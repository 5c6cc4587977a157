"""One benchmark workload in one fresh process; prints its result as JSON.

run.py starts this file with BLAS pinned to one thread and the checkout's
src/ on PYTHONPATH. Subcommands:

    worker.py setup --workload W --seed N --workdir DIR
    worker.py run --workload W --seed N --seconds S --workdir DIR [--trace-out FILE]
    worker.py digests --workdir DIR
    worker.py environment

`setup` only sets the workload up and reports how long that took. `run`
sets up, then drives a closed loop: each round issues the workload's
commands one after another, times them (see Clock), checks their outputs,
and the next round starts when the previous one has finished, until S
seconds have passed. With --trace-out every other round runs under the span
tracer and times are not rescaled.
`digests` prints the CSV digests of learn-paper for every seed base in its
pool; `environment` prints the interpreter, numpy and BLAS in use.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import gates
from tracing import ORACLE_NS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_CSV = HERE / "expected_csv.json"

# Inputs are drawn from pools of this size; a workload seed fixes the order.
SEED_POOL = 64
LEARN_CONFIG = {"game": "paper-example", "num_seeds": 3, "T": 2000}
ORACLE_DIMS = [2] * 12
ORACLE_EPS = 1e-3
# Scaled times are expressed at a machine speed where reference_kernel()
# takes this long.
REF_SECONDS = 0.01


class Outcome(NamedTuple):
    result: object  # exit code of a CLI command, or a library return value
    stdout: str
    error: str | None
    seconds: float  # wall time of the call
    scaled: float | None = None  # seconds rescaled to the reference speed


def invoke(fn, *args) -> Outcome:
    """Time fn with stdout and stderr captured; an exception is an outcome."""
    out = io.StringIO()
    result, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            result = fn(*args)
    except SystemExit as exc:
        result = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a failed command is counted and the loop goes on
        error = traceback.format_exc(limit=-2)
    return Outcome(result, out.getvalue(), error, time.perf_counter() - start)


def reference_kernel():
    """A fixed mix of the program's kinds of numpy work, about 10 ms.

    Small-vector steps as in the learner, 30x30 least squares as in the
    oracles, and 2e4-row batches as in the diagnostics. It uses numpy only,
    never gnezero, so a change to the program does not change its time.
    """
    import numpy as np  # not at module level: set-up times the first import

    rng = np.random.default_rng(0)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    x = np.zeros(2)
    for t in range(1, 400):
        x = x - (A @ (x + rng.standard_normal(2))) / (t + 10.0)
    M = rng.standard_normal((30, 30))
    for _ in range(40):
        x = x + np.linalg.lstsq(M, M[0], rcond=None)[0][:2]
    X = rng.standard_normal((20000, 2))
    for _ in range(5):
        x = x + (X @ A * X).sum(axis=0)
    return x


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed_scale() -> float:
    """REF_SECONDS over the reference time now (after one warm-up call)."""
    reference_kernel()
    return 2 * REF_SECONDS / (reference_seconds() + reference_seconds())


class Clock:
    """Invokes commands, timing each between two runs of the reference kernel.

    Other load on a shared machine changes its speed for seconds to minutes.
    A command's time times REF_SECONDS over the mean reference time just
    before and after it stays steady across such changes; the raw time does
    not. With scaled=False the kernel never runs (traced runs).
    """

    def __init__(self, scaled: bool):
        self.scaled = scaled
        if scaled:
            reference_kernel()  # warm-up
            self._before = reference_seconds()

    def invoke(self, fn, *args) -> Outcome:
        outcome = invoke(fn, *args)
        if not self.scaled:
            return outcome
        after = reference_seconds()
        scale = 2 * REF_SECONDS / (self._before + after)
        self._before = after
        return outcome._replace(scaled=outcome.seconds * scale)


def cli_failures(outcome: Outcome) -> list[str]:
    if outcome.error is not None:
        return [outcome.error]
    return [] if outcome.result == 0 else [f"exit code {outcome.result}"]


def import_package():
    """Import gnezero and make sure it is the checkout's copy."""
    import gnezero
    import gnezero.cli

    src = (ROOT / "src").resolve()
    if not Path(gnezero.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gnezero imported from {gnezero.__file__}, not from {src}")
    return gnezero


def learn_argv(seed_base: int, outdir) -> list[str]:
    return ["learn", "--game", LEARN_CONFIG["game"], "--T", str(LEARN_CONFIG["T"]),
            "--num-seeds", str(LEARN_CONFIG["num_seeds"]), "--seed-base", str(seed_base),
            "--workers", "1", "--outdir", str(outdir), "--label", "learn"]


def learn_csvs(outdir) -> dict[str, Path]:
    return {"raw": Path(outdir) / "learn_raw.csv", "agg": Path(outdir) / "learn_agg.csv"}


class LearnPaper:
    """gnezero learn on paper-example, standard schedules, 3 seeds x 2000 steps."""

    steps_per_round = LEARN_CONFIG["num_seeds"] * LEARN_CONFIG["T"]

    def __init__(self, gn, seed: int, workdir: Path):
        self.cli = gn.cli
        self.workdir = workdir
        recorded = json.loads(EXPECTED_CSV.read_text())
        if recorded["config"] != LEARN_CONFIG:
            raise SystemExit(f"{EXPECTED_CSV.name} was recorded for {recorded['config']}, "
                             f"not {LEARN_CONFIG}; run perfbench/record.py digests")
        self.digests = recorded["digests"]
        self.order = random.Random(seed).sample(range(SEED_POOL), SEED_POOL)

    def prepare(self, r: int) -> int:
        return self.order[r % SEED_POOL] * LEARN_CONFIG["num_seeds"]

    def run_round(self, seed_base: int, call) -> list[Outcome]:
        return [call(self.cli.main, learn_argv(seed_base, self.workdir))]

    def check(self, seed_base: int, outcomes: list[Outcome]) -> list[list[str]]:
        failures = cli_failures(outcomes[0])
        paths = learn_csvs(self.workdir)
        if not failures:
            failures = gates.csv_digest_failures(
                {k: str(p) for k, p in paths.items()}, self.digests[str(seed_base)])
        for path in paths.values():  # a later failed round must not find these
            path.unlink(missing_ok=True)
        return [failures]


class OracleScaling:
    """gnezero oracle, with and without --eps 1e-3, plus extragradient, n = 2..12.

    Every round gets a fresh game per constraint count. The extragradient
    time varies severalfold from game to game, so a run that solved one
    fixed set would measure its seed's games more than the code.
    """

    steps_per_round = 0

    def __init__(self, gn, seed: int, workdir: Path):
        self.gn = gn
        self.workdir = workdir
        self.rng = random.Random(seed)

    def prepare(self, r: int):
        inputs = []
        for n in ORACLE_NS:
            game = self.gn.games.random_quadratic_game(
                self.rng.randrange(2**32), dims=ORACLE_DIMS, num_constraints=n)
            path = self.workdir / f"game_n{n}.json"
            path.write_text(json.dumps({
                "name": game.name, "players": game.num_players, "dims": list(game.dims),
                "A": game.A.tolist(), "b": game.b.tolist(),
                "K": game.constraints.K.tolist(), "l": game.constraints.l.tolist(),
            }))
            inputs.append((game, str(path)))
        return inputs

    def run_round(self, inputs, call) -> list[Outcome]:
        cli, oracles = self.gn.cli, self.gn.oracles
        outcomes = []
        for game, path in inputs:
            outcomes.append(call(cli.main, ["oracle", "--game", path]))
            outcomes.append(call(cli.main, ["oracle", "--eps", repr(ORACLE_EPS), "--game", path]))
            outcomes.append(call(oracles.solve_vi_extragradient, game, ORACLE_EPS))
        return outcomes

    def check(self, inputs, outcomes: list[Outcome]) -> list[list[str]]:
        results = []
        for k, (game, _) in enumerate(inputs):
            data = (game.P.tolist(), game.q.tolist(),
                    game.constraints.K.tolist(), game.constraints.l.tolist())
            vgne, reg, eg = outcomes[3 * k: 3 * k + 3]
            reg_primal = None
            for outcome, eps in ((vgne, 0.0), (reg, ORACLE_EPS)):
                failures = cli_failures(outcome)
                if not failures:
                    try:
                        a, lam = gates.parse_oracle_csv(outcome.stdout)
                    except ValueError as err:
                        failures = [str(err)]
                    else:
                        failures = gates.kkt_failures(*data, a, lam, eps=eps)
                        if eps:
                            reg_primal = a
                results.append([f"{game.name} eps={eps:g}: {f}" for f in failures])
            if eg.error is not None:
                failures = [eg.error]
            elif reg_primal is None:
                failures = ["no regularized oracle answer to compare with"]
            else:
                failures = gates.agreement_failures(eg.result.primal.flat.tolist(), reg_primal)
            results.append([f"{game.name} extragradient: {f}" for f in failures])
        return results


class DiagnoseAll:
    """gnezero diagnose --checks all --seed <seed>."""

    steps_per_round = 0

    def __init__(self, gn, seed: int, workdir: Path):
        self.cli = gn.cli
        self.order = random.Random(seed).sample(range(SEED_POOL), SEED_POOL)

    def prepare(self, r: int) -> int:
        return self.order[r % SEED_POOL]

    def run_round(self, seed: int, call) -> list[Outcome]:
        return [call(self.cli.main, ["diagnose", "--checks", "all", "--seed", str(seed)])]

    def check(self, seed: int, outcomes: list[Outcome]) -> list[list[str]]:
        outcome = outcomes[0]
        if outcome.error is not None:
            return [[outcome.error]]
        return [gates.diagnose_failures(outcome.result, outcome.stdout)]


WORKLOADS = {"learn-paper": LearnPaper, "oracle-scaling": OracleScaling,
             "diagnose-all": DiagnoseAll}


def set_up(workload: str, seed: int, workdir: Path, tracer_factory=None):
    """Import, build the workload and its first round's inputs; time all of it."""
    start = time.perf_counter()
    gn = import_package()
    tracer = tracer_factory(gn) if tracer_factory else None
    if tracer:
        tracer.install()
        span = tracer.open("bench.setup")
    wl = WORKLOADS[workload](gn, seed, workdir)
    inputs = wl.prepare(0)
    if tracer:
        tracer.close(span)
        tracer.uninstall()
    return wl, inputs, tracer, time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, workdir: Path, trace_out) -> dict:
    wl, inputs, tracer, setup_s = set_up(workload, seed, workdir,
                                         Tracer if trace_out else None)
    clock = Clock(scaled=tracer is None)
    round_s, scaled_round_s = [], []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 0
        if traced:
            tracer.install()
            span = tracer.open("bench.round")
        outcomes = wl.run_round(inputs, clock.invoke)
        if traced:
            tracer.close(span)
            tracer.uninstall()
        else:
            round_s.append(sum(outcome.seconds for outcome in outcomes))
            if clock.scaled:
                scaled_round_s.append(sum(outcome.scaled for outcome in outcomes))
        for failures in wl.check(inputs, outcomes):
            attempted += 1
            if failures:
                failed += 1
                print(f"{workload} round {r}: " + "; ".join(failures), file=sys.stderr)
        r += 1
        # a traced run needs a traced and an untraced round for the overhead
        if time.perf_counter() - start >= seconds and (tracer is None or r >= 2):
            break
        inputs = wl.prepare(r)

    result = {
        "setup_s": setup_s,
        "round_s": round_s,
        "scaled_round_s": scaled_round_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_per_round": wl.steps_per_round,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(round_s)
        Path(trace_out).write_text(json.dumps({
            "workload": workload, "seed": seed, "layers": result["layers"],
            "call_paths": tracer.call_paths()}, indent=1))
    else:
        result["setup_scaled_s"] = setup_s * speed_scale()
    return result


def record_digests(workdir: Path) -> dict:
    gn = import_package()
    digests = {}
    for k in range(SEED_POOL):
        seed_base = k * LEARN_CONFIG["num_seeds"]
        failures = cli_failures(invoke(gn.cli.main, learn_argv(seed_base, workdir)))
        if failures:
            raise SystemExit(f"learn --seed-base {seed_base} failed: {failures}")
        digests[str(seed_base)] = {kind: gates.sha256_file(path)
                                   for kind, path in learn_csvs(workdir).items()}
    return {"config": LEARN_CONFIG, "digests": digests}


def environment() -> dict:
    import numpy

    gn = import_package()
    config = numpy.show_config(mode="dicts")
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: v for k, v in config.get("Build Dependencies", {}).get("blas", {}).items()
                 if k in ("name", "version", "openblas configuration")},
        "gnezero": gn.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--workdir", type=Path, required=True)
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace-out", default=None)
    sub.add_parser("digests").add_argument("--workdir", type=Path, required=True)
    sub.add_parser("environment")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        setup_s = set_up(args.workload, args.seed, args.workdir)[3]
        out = {"setup_s": setup_s, "setup_scaled_s": setup_s * speed_scale()}
    elif args.mode == "run":
        out = run(args.workload, args.seed, args.seconds, args.workdir, args.trace_out)
    elif args.mode == "digests":
        out = record_digests(args.workdir)
    else:
        out = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
