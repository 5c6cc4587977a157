"""Maintain the benchmark's recorded files. Standard library only.

    python3 perfbench/record.py digests
        Recompute the learn-paper CSV digests (perfbench/expected_csv.json)
        from the current code. Do this only when a change is meant to alter
        the CSV bytes, and say so in CHANGES.md.

    python3 perfbench/record.py baseline [--runs 10] [--first-seed 0]
                                         [--workload W ...] [--out FILE]
        Run every workload --runs times untraced, each with another seed,
        and once traced; write the run environment, each end-to-end metric's
        values, median, quartiles and spread (quartile distance over the
        median), and the traced per-layer metrics to FILE (default
        perfbench/baseline.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from run import PINNED_ENV, ROOT, SETUP_RUNS, call_worker

HERE = Path(__file__).resolve().parent


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def baseline(args) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    env = call_worker(["environment"], None)
    out = {
        "environment": {**env, "pinned_env": PINNED_ENV},
        "run_seconds": bench["run_seconds"],
        "setup_runs": SETUP_RUNS,
        "workloads": {},
    }
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in seeds:
            res = run_bench(workload, seed, bench["run_seconds"], 0)
            attempted += res["attempted"]
            failed += res["failed"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        run_bench(workload, seeds[0], bench["run_seconds"], 1)
        trace_file = ROOT / ".perfbench-out" / f"trace-{workload}-seed{seeds[0]}.json"
        traced = json.loads(trace_file.read_text())["layers"]
        stats = {name: {**spread(vals), "bound": bounds[name]} for name, vals in values.items()}
        out["workloads"][workload] = {
            "seeds": seeds,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": stats,
            "traced": traced,
        }
        for name, s in stats.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload:15s} {name:12s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {s['bound']}  {flag}", flush=True)
        print(f"{workload:15s} attempted {attempted} failed {failed}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def digests(args) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        recorded = call_worker(["digests", "--workdir", tmp], None)
    (HERE / "expected_csv.json").write_text(json.dumps(recorded, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("digests").set_defaults(func=digests)
    p = sub.add_parser("baseline")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workload", action="append", default=None)
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    p.set_defaults(func=baseline)
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
