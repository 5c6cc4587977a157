"""Correctness gates of the benchmark, written against plain Python data.

Each gate returns a list of failure messages; an empty list means the
output passed. The gates use only the standard library, so they judge the
program's numbers with arithmetic of their own rather than with the code
under test.
"""

from __future__ import annotations

import hashlib
import math

DIAGNOSE_HEADER = "check,case,statistic,bound,passed"
DIAGNOSE_CHECKS = frozenset({
    "regularization-path", "drift-spread", "estimator-mean",
    "dual-perturbation", "smoothing-bias-order", "second-moment-growth",
})

# The oracles accept a candidate at 1e-9 * scale and a residual at 1e-10;
# the gate recomputes in another summation order, so it allows 1e-8 * scale.
KKT_TOL = 1e-8
# solve_vi_extragradient stops at a fixed-point residual of 1e-8 per unit
# step; the regularized operator is eps-strongly monotone (eps = 1e-3), so
# its distance to the exact solution is at most about 1e-8 / 1e-3.
EXTRAGRADIENT_AGREEMENT = 1e-5


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def csv_digest_failures(paths: dict, expected: dict) -> list[str]:
    """Compare each named CSV file's sha256 with its recorded digest."""
    failures = []
    for kind, path in paths.items():
        try:
            got = sha256_file(path)
        except OSError as err:
            failures.append(f"{kind} CSV unreadable: {err}")
            continue
        if got != expected.get(kind):
            failures.append(f"{kind} CSV sha256 {got} != recorded {expected.get(kind)}")
    return failures


def parse_oracle_csv(stdout: str) -> tuple[list[float], list[float]]:
    """Primal and dual vectors from the key,value block `gnezero oracle` prints."""
    primal, dual = {}, {}
    for line in stdout.splitlines():
        key, _, value = line.partition(",")
        if key.startswith("a[") and key.endswith("]"):
            primal[int(key[2:-1])] = float(value)
        elif key.startswith("lambda[") and key.endswith("]"):
            dual[int(key[7:-1])] = float(value)
    for name, table in (("a", primal), ("lambda", dual)):
        if sorted(table) != list(range(len(table))):
            raise ValueError(f"oracle output has non-contiguous {name}[] indices")
    if not primal:
        raise ValueError("oracle output has no a[] rows")
    return [primal[k] for k in range(len(primal))], [dual[k] for k in range(len(dual))]


def _norm(v) -> float:
    return math.sqrt(math.fsum(x * x for x in v))


def _matvec(M, v) -> list[float]:
    return [math.fsum(m * x for m, x in zip(row, v)) for row in M]


def kkt_failures(P, q, K, l, a, lam, eps: float = 0.0, tol: float = KKT_TOL) -> list[str]:
    """Check a primal-dual pair against the (regularized) optimality conditions.

    With g = K a - l - eps * lam the conditions are stationarity
    P a + q + K' lam = 0, feasibility g <= 0, lam >= 0 and complementarity
    lam * g = 0; eps = 0 is the variational equilibrium. Tolerances scale
    with 1 + ||q|| + ||l||, as in the oracles.
    """
    if len(a) != len(q) or len(lam) != len(l):
        return [f"shape mismatch: |a|={len(a)} vs D={len(q)}, |lambda|={len(lam)} vs n={len(l)}"]
    limit = tol * (1.0 + _norm(q) + _norm(l))
    Kt_lam = [math.fsum(K[j][k] * lam[j] for j in range(len(lam))) for k in range(len(a))]
    stationarity = _norm([pa + qk + kl for pa, qk, kl in zip(_matvec(P, a), q, Kt_lam)])
    g = [ka - lj - eps * mj for ka, lj, mj in zip(_matvec(K, a), l, lam)]
    failures = []
    if not stationarity <= limit:
        failures.append(f"stationarity residual {stationarity:.3e} > {limit:.3e}")
    if g and not max(g) <= limit:
        failures.append(f"constraint violation {max(g):.3e} > {limit:.3e}")
    if lam and not min(lam) >= 0.0:
        failures.append(f"negative multiplier {min(lam):.3e}")
    comp = max((abs(mj * gj) for mj, gj in zip(lam, g)), default=0.0)
    if not comp <= limit:
        failures.append(f"complementarity residual {comp:.3e} > {limit:.3e}")
    return failures


def agreement_failures(a, a_ref, tol: float = EXTRAGRADIENT_AGREEMENT) -> list[str]:
    """Distance of a primal point to a reference, relative to 1 + ||a_ref||."""
    if len(a) != len(a_ref):
        return [f"shape mismatch: {len(a)} vs {len(a_ref)}"]
    dist = _norm([x - y for x, y in zip(a, a_ref)])
    limit = tol * (1.0 + _norm(a_ref))
    return [] if dist <= limit else [f"primal distance {dist:.3e} > {limit:.3e}"]


def diagnose_failures(returncode, stdout: str) -> list[str]:
    """The diagnose command must exit 0 and report every case as passed."""
    failures = [] if returncode == 0 else [f"exit code {returncode}"]
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != DIAGNOSE_HEADER:
        return failures + ["report header missing"]
    seen = set()
    for row in lines[1:]:
        fields = row.split(",")
        if len(fields) != 5:
            failures.append(f"malformed report row {row!r}")
            continue
        seen.add(fields[0])
        if fields[4] != "True":
            failures.append(f"case not passed: {row}")
    missing = DIAGNOSE_CHECKS - seen
    if missing:
        failures.append(f"checks missing from the report: {sorted(missing)}")
    return failures
