"""gnezero benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in fresh worker
processes (perfbench/worker.py) with BLAS pinned to one thread and the
checkout's src/ on PYTHONPATH. With --trace 0 the end-to-end metrics are
measured: set-up is timed in SETUP_RUNS fresh processes and reported as the
median, and the last of them runs the closed loop for S seconds. Times are
rescaled to a reference speed (see worker.Clock and README.md). With
--trace 1 one process alternates traced and untraced rounds and the
per-layer metrics are reported. Every metric is printed by name with its
unit; the last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_METRICS, REPORTED_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("learn-paper", "oracle-scaling", "diagnose-all")

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_RUNS = 9
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))
# the whole run must end within this many seconds of its start
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A worker failed or overran; the run has no result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def call_worker(args: list[str], deadline: float | None) -> dict:
    """Run worker.py to completion and return the JSON of its last stdout line.

    deadline is a time.monotonic() value the worker must finish by, or None.
    """
    timeout = None if deadline is None else deadline - time.monotonic()
    if timeout is not None and timeout <= 0:
        raise BenchError("no time left before the deadline")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=worker_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} overran the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            deadline: float) -> tuple[dict, dict]:
    """Run the workload; return its worker result and the reported metrics."""
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    run_args = ["run", *common, "--seconds", repr(seconds)]
    if trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        run_args += ["--trace-out", str(out_dir / f"trace-{workload}-seed{seed}.json")]
        result = call_worker(run_args, deadline)
        return result, result["layers"]

    setups = [call_worker(["setup", *common], deadline) for _ in range(SETUP_RUNS - 1)]
    result = call_worker(run_args, deadline)
    setups.append(result)
    result["setup_raw_s"] = statistics.median(s["setup_s"] for s in setups)
    return result, {
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "wall_s": statistics.median(result["scaled_round_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload: str, seed: int, trace: bool, result: dict, metrics: dict) -> dict:
    """Print the metrics as a table and return the final JSON object."""
    units = dict(LAYER_METRICS if trace else END_TO_END)
    reported = REPORTED_METRICS if trace else END_TO_END
    rounds = len(result["round_s"]) + (int(metrics["trace.rounds"]) if trace else 0)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  rounds {rounds}  "
          f"commands {result['attempted']}  failed {result['failed']}")
    for name, value in metrics.items():
        note = "" if (name, units[name]) in reported else "  (trace file only)"
        print(f"  {name:36s} {value:16.6g} {units[name]}{note}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':36s} {failed_frac:16.6g} fraction")
    if not trace:
        raw_wall = statistics.median(result["round_s"])
        print(f"  {'setup_raw_s':36s} {result['setup_raw_s']:16.6g} s  (not rescaled)")
        print(f"  {'wall_raw_s':36s} {raw_wall:16.6g} s  (not rescaled)")
        if result["steps_per_round"]:
            steps_per_s = result["steps_per_round"] / metrics["wall_s"]
            print(f"  {'learn_steps_per_s':36s} {steps_per_s:16.6g} 1/s")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "gnezero" / "__init__.py").is_file():
        print(f"no gnezero sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result, metrics = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), workdir, deadline)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), result, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
