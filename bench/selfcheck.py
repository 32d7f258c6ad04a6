"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. Runs every workload at tiny size, untraced and traced, and checks that
   the result line has the required keys and every metric that
   BENCHMARK.json names, with its unit.
2. Feeds each oracle a correct output and deliberately wrong ones (a
   perturbed merit operator, a shifted F_opt, a broken CSV row, a wrong
   amplitude, a failing exit code) and checks that only the correct one
   passes.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def require(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def check_result_lines() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=180, check=False)
            require(proc.returncode == 0, f"{workload} trace {trace} exits 0"
                    + (f": {proc.stderr.strip()[-300:]}" if proc.returncode else ""))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}
                    and result["correct"] and result["attempted"] >= 1,
                    f"{workload} trace {trace} result is well formed and correct")
            units = {name: m["unit"] for name, m in result["metrics"].items()
                     if isinstance(m["value"], (int, float))}
            require(units == expected, f"{workload} trace {trace} emits every {group} metric")


def check_oracles() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from axiclone import cli, dist, optimal

    merit = wl.MeritWorkload(seed=7, tiny=True)
    op = next(op for op in merit.cycle(0) if op.label.startswith("merit vmf"))
    good = op.run()
    require(op.check(good) == 0, "merit oracle accepts a correct output")
    m, ap, am, r, f, sims, u = good
    # same trace and still Hermitian: only the moment-affine reference sees it
    r_bad = r.copy()
    r_bad[0, 0] += 1e-6
    r_bad[7, 7] -= 1e-6
    for what, bad in {
        "a perturbed merit operator": (m, ap, am, r_bad, f, sims, u),
        "a shifted Tr(chi R)": (m, ap, am, r, f + 1e-6, sims, u),
        "a shifted simulated fidelity": (m, ap, am, r, f, [sims[0] + 1e-9] + sims[1:], u),
        "a circuit with swapped columns": (m, ap, am, r, f, sims, u[:, ::-1]),
    }.items():
        require(op.check(bad) == 1, f"merit oracle rejects {what}")

    spec = wl.CertifyWorkload.panel[0]
    op = wl.CertifyWorkload(seed=7, tiny=True).cycle(0)[0]
    moments = dist.moments(cli.parse_dist(spec))
    f_opt = optimal.average_fidelity(moments, optimal.optimal_angles(moments))
    report = {"distribution": spec, "F_opt": f_opt, "max_sampled_F": f_opt - 0.1,
              "n_samples": 150, "max_structured_F": f_opt}
    require(op.check((0, json.dumps(report))) == 0, "certify oracle accepts a correct report")
    for what, key, value in (("a shifted F_opt", "F_opt", f_opt + 1e-6),
                             ("a sampled map beating F_opt", "max_sampled_F", f_opt + 1e-6)):
        require(op.check((0, json.dumps({**report, key: value}))) == 1,
                f"certify oracle rejects {what}")
    require(op.check((3, json.dumps(report))) == 1, "certify oracle rejects exit code 3")

    op = wl.SweepWorkload(seed=7, tiny=True).cycle(0)[0]
    code, text = op.run()
    require(op.check((code, text)) == 0, "sweep oracle accepts a correct CSV")
    lines = text.splitlines()
    row = lines[3].split(",")
    row[6] = repr(float(row[6]) + 1e-6)
    for what, bad_lines in (
            ("a shifted F_opt", lines[:3] + [",".join(row)] + lines[4:]),
            ("a nan row", lines[:2] + [",".join(["nan"] * 9)] + lines[3:]),
            ("a missing row", lines[:-1])):
        require(op.check((0, "\n".join(bad_lines))) == 1, f"sweep oracle rejects {what}")
    require(op.check((2, text)) == op.outputs, "sweep oracle fails every row on exit code 2")

    ops = wl.CliWorkload(seed=7, tiny=True).cycle(0)
    for op, key, index in ((ops[0], "F_avg", None), (ops[1], "Phi", None),
                           (ops[2], "amplitudes", 0)):
        code, text = op.run()
        require(op.check((code, text)) == 0, f"cli oracle accepts {op.label.split()[0]} output")
        report = json.loads(text)
        if index is None:
            report[key] += 1e-6
        else:
            report[key][index][0] += 1e-6
        require(op.check((0, json.dumps(report))) == 1, f"cli oracle rejects a shifted {key} from {op.label.split()[0]}")
        require(op.check((1, text)) == 1, f"cli oracle rejects exit code 1 from {op.label.split()[0]}")


if __name__ == "__main__":
    check_oracles()
    check_result_lines()
    print("selfcheck passed")
