"""Span tracing of gnezero from outside, and the per-layer metrics it yields.

The tracer replaces public functions of the package with wrappers at run
time; the source is never edited. A wrapped call records one span: its
name, start, end, parent span and an optional amount (steps, rows, samples,
bytes or constraint count). A few very frequent calls are only counted
("tallies"), against the span that encloses them. Spans stay in memory in
flat arrays and are reduced when the run ends.

Callers bind imported names at import time (``from .oracles import
solve_vgne``), so a wrapper replaces every module-level name in the package
that refers to the original function, not only its definition.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from array import array

ORACLE_NS = (2, 4, 6, 8, 10, 12)
DIAGNOSE_CHECK_SPANS = {
    "reg-path": ("diagnostics.regularization_path_report", "diagnostics.drift_spread_report"),
    "estimator-mean": ("diagnostics.estimator_mean_report",),
    "dual-perturbation": ("diagnostics.dual_perturbation_report",),
    "smoothing-bias-order": ("diagnostics.smoothing_bias_order_report",),
    "second-moment-growth": ("diagnostics.second_moment_growth_report",),
}
LAYERS = ("games", "schedules", "learner", "oracles", "augmented",
          "diagnostics", "harness", "cli")

# (name, unit) of every per-layer metric, in report order. Counts and times
# are per traced round unless the name says per call, per step, per row or
# per sample; oracles.<kind>_s.n<k> is the median time of one solve.
LAYER_METRICS = (
    [
        ("games.payoff_calls", "count"),
        ("games.payoff_us", "us"),
        ("games.costs_at_rows", "count"),
        ("games.costs_at_ns_per_row", "ns"),
        ("games.build_s", "s"),
        ("games.build_setup_s", "s"),
        ("schedules.calls", "count"),
        ("learner.run_calls", "count"),
        ("learner.steps", "count"),
        ("learner.self_us_per_step", "us"),
    ]
    + [(f"oracles.vgne_s.n{n}", "s") for n in ORACLE_NS]
    + [(f"oracles.regularized_s.n{n}", "s") for n in ORACLE_NS]
    + [
        ("oracles.linear_solves", "count"),
        ("oracles.extragradient_s", "s"),
        ("oracles.extragradient_pg_calls", "count"),
        ("oracles.vgne_calls_in_learn", "count"),
        ("oracles.vgne_in_learn_s", "s"),
        ("oracles.regularized_calls_in_diag", "count"),
        ("oracles.regularized_s_in_diag", "s"),
        ("augmented.extended_pg_calls", "count"),
        ("diagnostics.mc_samples", "count"),
        ("diagnostics.ns_per_sample", "ns"),
    ]
    + [(f"diagnostics.check_s.{check}", "s") for check in DIAGNOSE_CHECK_SPANS]
    + [
        ("harness.aggregate_s", "s"),
        ("harness.csv_write_s", "s"),
        ("harness.csv_bytes", "bytes"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("bench.self_s", "s"),
        ("trace.rounds", "count"),
        ("trace.spans_per_round", "count"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.accounted_frac", "fraction"),
    ]
)


# Times measured on every workload. The JSON result of a traced run carries
# these and every count; a time that is zero wherever its layer is idle
# (games.payoff_us outside learn-paper, say) would read the same on every
# run of the other workloads, so those are printed and written to the trace
# file only.
ALWAYS_TIMED = frozenset({
    "games.build_s", "games.self_s", "oracles.self_s", "cli.self_s", "bench.self_s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
})
REPORTED_METRICS = tuple((name, unit) for name, unit in LAYER_METRICS
                         if unit in ("count", "bytes", "fraction") or name in ALWAYS_TIMED)


def self_times(parents, starts, ends) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it and the subtraction leaves exactly the uncovered time.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


# -- measuring amounts from a wrapped call's arguments --------------------


def _constraint_count(args, kwargs, result):
    game = args[0] if args else kwargs["game"]
    return game.constraints.num_constraints


def _steps(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["T"]


def _rows(args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    shape = getattr(points, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _samples(args, kwargs, result):
    probe = args[1] if len(args) > 1 else kwargs["probe"]
    return probe.num_samples


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _targets(gn):
    """(owner, attribute, span name or None for a tally, amount) to wrap."""
    games, learner, oracles = gn.games, gn.learner, gn.oracles
    out = []
    for fn in ("random_quadratic_game", "paper_example", "softplus_game",
               "builtin_game", "game_from_config", "load_game", "resolve_game"):
        out.append((games, fn, f"games.build.{fn}", None))
    for cls in (games.GameSpec, games.QuadraticGame, games.SoftplusQuadraticGame):
        out.append((cls, "costs_at", "games.costs_at", _rows))
        out.append((cls, "pseudo_gradient", None, "pseudo_gradient"))
    out.append((learner.PayoffEnvironment, "feedback", "games.payoff", None))
    for method in ("gamma", "eps", "sigma", "validate"):
        out.append((gn.schedules.Schedules, method, f"schedules.{method}", None))
    out.append((gn.schedules, "validate_schedules", "schedules.validate_schedules", None))
    out.append((learner, "run", "learner.run", _steps))
    for fn in ("solve_vgne", "solve_regularized_vi", "solve_vi_extragradient"):
        out.append((oracles, fn, f"oracles.{fn}", _constraint_count))
    out.append((gn.augmented, "extended_pseudo_gradient",
                "augmented.extended_pseudo_gradient", None))
    for fn in ("smoothing_bias_stats", "dual_perturbation_stats", "estimator_second_moment"):
        out.append((gn.diagnostics, fn, f"diagnostics.{fn}", _samples))
    for fn in ("path_drift_ratios", "regularization_path_report", "drift_spread_report",
               "estimator_mean_report", "dual_perturbation_report",
               "smoothing_bias_order_report", "second_moment_growth_report"):
        out.append((gn.diagnostics, fn, f"diagnostics.{fn}", None))
    out.append((gn.harness, "run_experiment", "harness.run_experiment", None))
    # aggregation has no public entry point; _aggregate is the one private
    # function wrapped, because harness.aggregate_s needs its own span
    out.append((gn.harness, "_aggregate", "harness.aggregate", None))
    for fn in ("write_raw_csv", "write_aggregate_csv"):
        out.append((gn.harness, fn, f"harness.{fn}", _csv_bytes))
    for fn in ("main", "cmd_learn", "cmd_oracle", "cmd_diagnose"):
        out.append((gn.cli, fn, f"cli.{fn}", None))
    linalg = sys.modules["numpy.linalg"]
    for fn in ("solve", "lstsq"):
        out.append((linalg, fn, None, "linalg"))
    return out


class Tracer:
    """Spans and tallies of one process, with install and uninstall of the wrappers."""

    def __init__(self, package):
        self._package = package
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.amounts = array("d")
        self.tallies: dict[tuple[str, int], int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.amounts.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, amount):
        # open() and close() inlined with prebound methods: this runs up to
        # four times per learner step, so its cost shows in the overhead
        names, parents, starts, ends, amounts = (
            self.names, self.parents, self.starts, self.ends, self.amounts)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            amounts.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, kwargs, result)
            return result
        return traced

    def _tally_wrapper(self, tally, fn):
        tallies, stack = self.tallies, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (tally, stack[-1])
            tallies[key] = tallies.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, at its definition and at every package import of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gnezero" or name.startswith("gnezero."))]
        for owner, attr, span, extra in _targets(self._package):
            original = vars(owner).get(attr)
            if original is None:
                continue  # inherited: wrapped where it is defined
            wrapper = (self._span_wrapper(span, original, extra) if span
                       else self._tally_wrapper(extra, original))
            owners = [owner]
            if isinstance(owner, type(sys)) and owner.__name__.startswith("gnezero"):
                owners += [m for m in modules
                           if m is not owner and vars(m).get(attr) is original]
            for target in owners:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- reduction ----------------------------------------------------------

    def call_paths(self) -> list[dict]:
        """Count, total and self time per call path, e.g. bench.round/cli.main/..."""
        own = self_times(self.parents, self.starts, self.ends)
        path_of: list[str] = []
        table: dict[str, list[float]] = {}
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            path = name if parent < 0 else path_of[parent] + "/" + name
            path_of.append(path)
            row = table.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.ends[i] - self.starts[i]
            row[2] += own[i]
        return [{"path": p, "count": int(c), "total_s": t, "self_s": s}
                for p, (c, t, s) in sorted(table.items())]

    def layer_metrics(self, untraced_round_s: list[float]) -> dict[str, float]:
        """Per-layer metrics over the spans of traced rounds (bench.round roots)."""
        return layer_metrics(self.names, self.parents, self.starts, self.ends,
                             self.amounts, self.tallies, untraced_round_s)


def layer_metrics(names, parents, starts, ends, amounts, tallies, untraced_round_s):
    own = self_times(parents, starts, ends)
    dur = [end - start for start, end in zip(starts, ends)]
    count = len(names)
    # root span of each span, and whether it runs inside learner.run or the
    # diagnose command; a parent always precedes its children
    root = [0] * count
    in_learn = [False] * count
    in_diag = [False] * count
    for i in range(count):
        p = parents[i]
        if p < 0:
            root[i] = i
            continue
        root[i] = root[p]
        in_learn[i] = in_learn[p] or names[p] == "learner.run"
        in_diag[i] = in_diag[p] or names[p] == "cli.cmd_diagnose"

    in_round = [names[root[i]] == "bench.round" for i in range(count)]
    in_setup = [names[root[i]] == "bench.setup" for i in range(count)]
    by_name: dict[str, list[int]] = {}
    for i in range(count):
        if in_round[i]:
            by_name.setdefault(names[i], []).append(i)
    round_s = [dur[i] for i in by_name.get("bench.round", [])]
    rounds = len(round_s)
    per = 1.0 / rounds if rounds else 0.0

    def spans(pred):
        return [i for name, idx in by_name.items() if pred(name) for i in idx]

    def total(idx, values):
        return sum(values[i] for i in idx)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def median_dur(name, n):
        vals = [dur[i] for i in by_name.get(name, []) if amounts[i] == n]
        return statistics.median(vals) if vals else 0.0

    def tally(kind, pred):
        return sum(c for (t, i), c in tallies.items()
                   if t == kind and i >= 0 and in_round[i] and pred(i))

    m: dict[str, float] = {}
    payoff = spans(lambda s: s == "games.payoff")
    m["games.payoff_calls"] = len(payoff) * per
    m["games.payoff_us"] = ratio(total(payoff, own), len(payoff), 1e6)
    costs = spans(lambda s: s == "games.costs_at")
    rows = total(costs, amounts)
    m["games.costs_at_rows"] = rows * per
    m["games.costs_at_ns_per_row"] = ratio(total(costs, own), rows, 1e9)
    m["games.build_s"] = total(spans(lambda s: s.startswith("games.build.")), own) * per
    m["games.build_setup_s"] = sum((own[i] for i in range(count)
                                    if in_setup[i] and names[i].startswith("games.build.")), 0.0)
    m["schedules.calls"] = len(spans(lambda s: s.startswith("schedules."))) * per
    runs = spans(lambda s: s == "learner.run")
    steps = total(runs, amounts)
    m["learner.run_calls"] = len(runs) * per
    m["learner.steps"] = steps * per
    m["learner.self_us_per_step"] = ratio(total(runs, own), steps, 1e6)
    for n in ORACLE_NS:
        m[f"oracles.vgne_s.n{n}"] = median_dur("oracles.solve_vgne", n)
    for n in ORACLE_NS:
        m[f"oracles.regularized_s.n{n}"] = median_dur("oracles.solve_regularized_vi", n)
    m["oracles.linear_solves"] = tally("linalg", lambda i: names[i].startswith("oracles.")) * per
    eg = spans(lambda s: s == "oracles.solve_vi_extragradient")
    m["oracles.extragradient_s"] = total(eg, dur) * per
    m["oracles.extragradient_pg_calls"] = tally(
        "pseudo_gradient", lambda i: names[i] == "oracles.solve_vi_extragradient") * per
    vgne_learn = [i for i in spans(lambda s: s == "oracles.solve_vgne") if in_learn[i]]
    m["oracles.vgne_calls_in_learn"] = len(vgne_learn) * per
    m["oracles.vgne_in_learn_s"] = total(vgne_learn, dur) * per
    reg_diag = [i for i in spans(lambda s: s == "oracles.solve_regularized_vi") if in_diag[i]]
    m["oracles.regularized_calls_in_diag"] = len(reg_diag) * per
    m["oracles.regularized_s_in_diag"] = total(reg_diag, dur) * per
    m["augmented.extended_pg_calls"] = len(
        spans(lambda s: s == "augmented.extended_pseudo_gradient")) * per
    mc = spans(lambda s: s in ("diagnostics.smoothing_bias_stats",
                               "diagnostics.dual_perturbation_stats",
                               "diagnostics.estimator_second_moment"))
    samples = total(mc, amounts)
    m["diagnostics.mc_samples"] = samples * per
    m["diagnostics.ns_per_sample"] = ratio(total(mc, dur), samples, 1e9)
    for check, span_names in DIAGNOSE_CHECK_SPANS.items():
        m[f"diagnostics.check_s.{check}"] = total(spans(lambda s: s in span_names), dur) * per
    m["harness.aggregate_s"] = total(spans(lambda s: s == "harness.aggregate"), own) * per
    writes = spans(lambda s: s in ("harness.write_raw_csv", "harness.write_aggregate_csv"))
    m["harness.csv_write_s"] = total(writes, dur) * per
    m["harness.csv_bytes"] = total(writes, amounts) * per
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, idx in by_name.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + total(idx, own)
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = layer_self[layer] * per
    # fastest rounds, as for wall_s: slower ones were slowed by other load
    wall = min(round_s, default=0.0)
    untraced = min(untraced_round_s, default=0.0)
    m["trace.rounds"] = float(rounds)
    m["trace.spans_per_round"] = sum(map(len, by_name.values())) * per
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = wall - untraced if round_s and untraced_round_s else 0.0
    library = sum(v for k, v in layer_self.items() if k != "bench")
    m["trace.accounted_frac"] = ratio(library, sum(round_s))
    return m
