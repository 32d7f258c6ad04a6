"""Benchmark for axiclone, measured from outside the package.

    python3 bench/run.py --workload merit --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Workloads (see README.md in this directory): ``cli``, ``sweep``, ``merit``
and ``certify``.  Each runs closed loop, one client, one operation at a time,
in a fresh worker process that imports axiclone from ``src/`` of this
checkout.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  Lines before it print every metric by name with its unit.
Exits non-zero, printing no result, when the package cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cli", "sweep", "merit", "certify")

# Set-up is measured this many times per timed run (probes plus the measuring
# worker) and the median reported.
SETUP_SAMPLES = 5
# A run must finish within 180 s; leave room for reporting.
RUN_LIMIT_S = 170.0
# One BLAS thread per process: the matrices are 8x8, and extra threads only
# add run-to-run noise on a small machine.
BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def spawn_worker(args: argparse.Namespace, workload: str, deadline: float,
                 probe: bool = False) -> dict:
    """Run one worker to completion and return its JSON result."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--spawned-at", repr(spawned_at)]
    if probe:
        command.append("--probe")
    if args.tiny:
        command.append("--tiny")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its CLI children
        proc.communicate()
        raise BenchError(f"{workload}: worker exceeded the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}\n{err.strip()}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: worker printed no result\n{err.strip()}") from None


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """Result object for one workload, after printing its metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn_worker(args, workload, deadline, probe=True)["setup_s"])
    res = spawn_worker(args, workload, deadline)
    metrics = {}
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, (value, unit) in res["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}

    print(f"workload {workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['ops']} operations in {res['cycles']} cycles; "
          f"{res['failed']} of {res['attempted']} outputs failed "
          f"(fail_frac {res['failed'] / res['attempted']:.6g})")
    for key, value in res["detail"].items():
        print(f"  {key}: {value}")
    for msg in res["unexpected"]:
        print(f"  unexpected failure: {msg}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": res["unexpected_count"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-check")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(args, name) for name in names}
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
