"""One benchmark worker process: import axiclone, build inputs, run a workload.

Started by ``run.py``; prints one JSON object as its last stdout line.  Set-up
time runs from ``--spawned-at`` (the parent's CLOCK_MONOTONIC reading just
before it started this process) to the point where axiclone is imported and
the inputs are generated.  With ``--probe`` the worker stops there.

A timed run executes whole cycles of operations, one at a time, until the
next cycle would end after ``--seconds``.  A traced run executes a fixed
number of cycles twice on the same inputs, first untraced and then traced,
so that its counts repeat exactly and the gap between the two is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Tail percentiles tried from the top; the first with at least
# TAIL_MIN_BEYOND samples above it is reported.  The ladder stops at p95 so
# that a faster program, which completes more operations in a run, is still
# compared at the same percentile; at p99 the merit tail would also sit on
# the one known-defect input repeated every cycle.
TAIL_PERCENTILES = (95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(math.ceil(pct / 100 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with enough samples beyond.

    With fewer than 2 * TAIL_MIN_BEYOND samples no percentile qualifies and
    the maximum (percentile 100) is reported.
    """
    values = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        if len(values) - math.ceil(pct / 100 * len(values)) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return 100.0, values[-1]


class Recorder:
    """Runs operations one at a time and keeps latencies and failure counts."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def run(self, op) -> None:
        error = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # every failure is counted, never fatal
            error = exc
        self.latencies.append(time.perf_counter() - start)
        if error is None:
            if self.tracer is not None:
                self.tracer.active = False
            try:
                bad = op.check(result)
            except Exception as exc:
                error, bad = exc, op.outputs
            finally:
                if self.tracer is not None:
                    self.tracer.active = True
        else:
            bad = op.outputs
        self.attempted += op.outputs
        self.failed += bad
        if bad and not op.known_defect:
            reason = f"{type(error).__name__}: {error}" if error else "oracle rejected output"
            self.unexpected.append(f"{op.label}: {bad} of {op.outputs} outputs failed ({reason})")

    def run_cycles(self, workload, count: int) -> float:
        start = time.perf_counter()
        for index in range(count):
            for op in workload.cycle(index):
                self.run(op)
        return time.perf_counter() - start


def timed_run(workload, seconds: float) -> dict:
    rec = Recorder()
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in workload.cycle(cycles):
            rec.run(op)
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= workload.min_cycles and elapsed * (cycles + 1) / cycles > seconds:
            break
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    pct, tail_value = tail(rec.latencies)
    return {
        "recorders": [rec],
        "cycles": cycles,
        # Order statistics of one run take the speed of whichever state the
        # machine spent most of the run in, so they are printed, not bounded.
        "detail": {"op_s.p50": f"{percentile(sorted(rec.latencies), 50.0):.6g} s",
                   "op_s.tail": f"{tail_value:.6g} s (p{pct:g} of {len(rec.latencies)} operations)"},
        "metrics": {
            "ops_per_s": (len(rec.latencies) / elapsed, "1/s"),
            "ok_frac": (1.0 - rec.failed / rec.attempted, "frac"),
            "peak_rss_mb": (usage / 1024.0, "MB"),  # ru_maxrss is in KiB on Linux
        },
    }


def traced_run(workload, extra: dict) -> dict:
    from tracer import Tracer

    plain = Recorder()
    plain_wall = plain.run_cycles(workload, workload.trace_cycles)
    tracer = Tracer()
    traced = Recorder(tracer)
    tracer.install()
    try:
        traced_wall = traced.run_cycles(workload, workload.trace_cycles)
    finally:
        tracer.uninstall()
    # Same operations both times, so the ops_per_s gap is the wall-time ratio.
    extra["trace.overhead_frac"] = 1.0 - plain_wall / traced_wall
    metrics = tracer.metrics(extra)
    return {
        "recorders": [plain, traced],
        "cycles": workload.trace_cycles,
        "detail": {"absent": tracer.absent},
        "metrics": {name: (m["value"], m["unit"]) for name, m in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import axiclone
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import axiclone from {SRC}: {exc}\n")
        return 2
    import_s = time.perf_counter() - start
    if not Path(axiclone.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"error: imported axiclone from {axiclone.__file__}, not {SRC}\n")
        return 2
    scipy_optimize_loaded = "scipy.optimize" in sys.modules

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workload.cycle(0)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        result = traced_run(workload, {"import.axiclone_s": import_s,
                                       "import.scipy_optimize_loaded": float(scipy_optimize_loaded)})
    else:
        result = timed_run(workload, args.seconds)
    recorders = result.pop("recorders")
    unexpected = [msg for rec in recorders for msg in rec.unexpected]
    result.update({
        "setup_s": setup_s,
        "attempted": sum(rec.attempted for rec in recorders),
        "failed": sum(rec.failed for rec in recorders),
        "ops": sum(len(rec.latencies) for rec in recorders),
        "unexpected": unexpected[:10],
        "unexpected_count": len(unexpected),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
