"""Benchmark workloads: seeded inputs, one operation at a time, and oracles.

Every workload yields its operations in cycles.  Cycle ``i`` is drawn from
``numpy.random.default_rng([seed, i])``, so a seed fixes every input and a
run that stops after whole cycles always holds the same mix of input
kinds.  Each operation returns its output; the oracle then counts how many
of its outputs are wrong.  An operation that raises fails all its outputs.

Some inputs are known defects of the package and fail today; they stay in
the generated set (marked ``known_defect``) so that ``fail_frac`` shows
them.  A failure on any other input makes the run incorrect.

The operations call the package through module attributes (``choi.build_merit``
and so on) so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from axiclone import choi, circuit, cli, optimal, qsim
from axiclone import dist as dists

ROOT = Path(__file__).resolve().parent.parent

SQRT2 = math.sqrt(2.0)
UC_ALPHA = 0.5 * math.asin(2.0 * SQRT2 / 3.0)
SWEEP_COLUMNS = "param,a1,a2,Gamma,alpha_plus,alpha_minus,F_opt,F_UC,F_PCC_branch"

# Oracle tolerances.  Quadrature runs at an absolute 1e-10, so anything
# built from the merit operator is held to 1e-9; closed forms to 1e-12.
EXACT_TOL = 1e-12
MERIT_TOL = 1e-9


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` counts its failed outputs."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], int]
    outputs: int = 1
    known_defect: bool = False


# ---------------------------------------------------------------- closed forms
# Written out here from the paper's formulas so the oracles do not trust the
# code they check.

def avg_fidelity(a1, a2, ap, am) -> float:
    """Ensemble-average single-copy fidelity of the cloner (ap, am)."""
    m2 = (2 * a2 + 1) / 3
    return 0.125 * (2 * (3 + math.cos(2 * ap)) * (1 + 2 * a1 + m2) / 4
                    + 2 * (3 + math.cos(2 * am)) * (1 - 2 * a1 + m2) / 4
                    + (math.sin(ap) ** 2 + math.sin(am) ** 2
                       + 2 * SQRT2 * math.sin(ap + am)) * (1 - m2))


def best_fixed_cloner(a1, a2) -> float:
    """Best of the universal and the two phase-covariant boundary cloners."""
    return max(avg_fidelity(a1, a2, UC_ALPHA, UC_ALPHA),
               avg_fidelity(a1, a2, 0.0, math.pi / 2),
               avg_fidelity(a1, a2, math.pi / 2, 0.0))


def single_fidelity(theta, ap, am) -> float:
    """Clone fidelity for an input at polar angle theta."""
    c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    return 0.125 * (2 * (3 + math.cos(2 * ap)) * c2 * c2
                    + 2 * (3 + math.cos(2 * am)) * s2 * s2
                    + (math.sin(ap) ** 2 + math.sin(am) ** 2
                       + 2 * SQRT2 * math.sin(ap + am)) * math.sin(theta) ** 2)


def isometry(ap, am) -> np.ndarray:
    """Images of |0>, |1> on (clone1, clone2, ancilla)."""
    v = np.zeros((8, 2), dtype=complex)
    v[0b001, 0] = math.cos(ap)
    v[0b010, 0] = v[0b100, 0] = math.sin(ap) / SQRT2
    v[0b110, 1] = math.cos(am)
    v[0b011, 1] = v[0b101, 1] = math.sin(am) / SQRT2
    return v


def qubit(theta, phi) -> np.ndarray:
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])


def close(x, y, tol=EXACT_TOL) -> bool:
    return abs(x - y) <= tol


def bad_sweep_rows(text: str, grid: np.ndarray) -> int:
    """Rows of a sweep CSV that are missing, non-finite or not optimal."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_COLUMNS:
        return len(grid)
    rows = lines[1:]
    bad = abs(len(grid) - len(rows))
    for value, line in zip(grid, rows):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            bad += 1
            continue
        if len(row) != 9 or not all(math.isfinite(v) for v in row):
            bad += 1
            continue
        param, a1, a2, _, ap, am, f_opt, f_uc, f_pcc = row
        ok = (close(param, value, EXACT_TOL * max(1.0, abs(value)))
              and close(f_opt, avg_fidelity(a1, a2, ap, am))
              and close(f_uc, avg_fidelity(a1, a2, UC_ALPHA, UC_ALPHA))
              and close(f_pcc, max(avg_fidelity(a1, a2, 0.0, math.pi / 2),
                                   avg_fidelity(a1, a2, math.pi / 2, 0.0)))
              and f_opt >= max(f_uc, f_pcc) - EXACT_TOL)
        bad += not ok
    return bad


def main_in_process(argv: list[str]) -> tuple[int, str]:
    """``axiclone.cli.main`` with stdout captured; stderr warnings dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def num(x) -> str:
    """Shortest round-trip text of a number (numpy scalars included)."""
    return repr(float(x))


def log_uniform(rng, lo, hi) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def random_spec(rng, kind: str) -> str:
    """A CLI spec of ``kind`` with parameters in the supported range."""
    if kind == "uniform":
        return "uniform"
    if kind == "vmf":
        return f"vmf:kappa={num(rng.choice([-1, 1]) * log_uniform(rng, 0.05, 50.0))}"
    if kind == "hg":
        return f"hg:h={num(rng.uniform(-0.95, 0.95))}"
    if kind == "brosseau":
        p = rng.uniform(0.05, 0.98)
        return f"brosseau:P={num(p)},mu={num(rng.uniform(-p, p))}"
    if kind == "belt":
        t1 = rng.uniform(0.0, 2.8)
        return f"belt:theta1={num(t1)},theta2={num(rng.uniform(t1 + 0.05, math.pi))}"
    if kind in ("delta", "deltapair"):
        return f"{kind}:theta={num(rng.uniform(0.0, math.pi))}"
    raise ValueError(kind)


KINDS = ("uniform", "vmf", "brosseau", "hg", "delta", "deltapair", "belt")


def sweep_grid(rng, kind: str, points: int) -> tuple[str, str, np.ndarray]:
    """(base spec, --sweep argument, grid) of a seeded sweep over ``kind``."""
    if kind == "vmf":
        base, key = "vmf:kappa=0", "kappa"
        start, stop = 0.0, float(rng.choice([-1, 1]) * log_uniform(rng, 1.0, 1e4))
    elif kind == "hg":
        base, key = "hg:h=0", "h"
        start, stop = -rng.uniform(0.5, 0.9999), rng.uniform(0.5, 0.9999)
    elif kind == "belt":
        t1 = rng.uniform(0.0, 2.5)
        base, key = f"belt:theta1={num(t1)},theta2={num(math.pi)}", "theta2"
        start, stop = t1 + 0.01, math.pi
    elif kind in ("delta", "deltapair"):
        base, key = f"{kind}:theta=0", "theta"
        start, stop = rng.uniform(0.0, 0.5), rng.uniform(math.pi - 0.5, math.pi)
    elif kind == "brosseau":
        base, key = "brosseau:P=0,mu=0", "P,mu"
        start, stop = 0.0, rng.uniform(0.9, 0.9999)
    else:
        raise ValueError(kind)
    return base, f"{key}={num(start)}:{num(stop)}:{points}", np.linspace(start, stop, points)


# ---------------------------------------------------------------- workloads

class Workload:
    """Seeded stream of operation cycles."""

    # Whole cycles run before a timed run may stop, and cycles of a traced run.
    min_cycles = 1
    trace_cycles = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        if tiny:
            self.min_cycles = self.trace_cycles = 1

    def cycle(self, index: int) -> list[Op]:
        return self.make_cycle(np.random.default_rng([self.seed, index]))

    def make_cycle(self, rng) -> list[Op]:
        raise NotImplementedError


class SweepWorkload(Workload):
    """In-process ``sweep`` calls; each CSV row is one output."""

    trace_cycles = 24
    kinds = ("vmf", "hg", "belt", "deltapair", "brosseau")

    def make_cycle(self, rng) -> list[Op]:
        points = 11 if self.tiny else 301
        ops = [self.sweep_op(*sweep_grid(rng, kind, points)) for kind in self.kinds]
        # Tied P, mu toward 1: the last row, 0.999999, stalls the Brosseau
        # quadrature.  The seeded start spreads the cost of this operation.
        start = rng.uniform(0.0, 0.9)
        ops.append(self.sweep_op("brosseau:P=0,mu=0", f"P,mu={num(start)}:0.999999:{points}",
                                 np.linspace(start, 0.999999, points), known_defect=True))
        return ops

    @staticmethod
    def sweep_op(base, sweep, grid, known_defect=False) -> Op:
        argv = ["sweep", "--dist", base, "--sweep", sweep]

        def check(result):
            code, text = result
            return len(grid) if code != 0 else min(bad_sweep_rows(text, grid), len(grid))
        return Op(f"sweep {base} {sweep}", lambda: main_in_process(argv), check,
                  outputs=len(grid), known_defect=known_defect)


class MeritWorkload(Workload):
    """Merit operator, Choi fidelity, simulation and circuit per ensemble."""

    trace_cycles = 10

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        # R is affine in (1, a1, a2); three point masses fix the reference.
        rings = [dists.Delta(theta=t) for t in (0.0, math.pi / 2, math.pi)]
        design = np.array([[1.0, *d.moment_pair()] for d in rings])
        merits = np.array([choi.build_merit(d) for d in rings])
        self.basis = np.tensordot(np.linalg.inv(design), merits, axes=(1, 0))

    def make_cycle(self, rng) -> list[Op]:
        def sign() -> float:
            return float(rng.choice([-1, 1]))

        ensembles = []
        # Moderate ensembles and point masses, 7 to 20 ms each, twice over:
        # with the two fast known defects they are most of the operations,
        # so the median lands among them.
        for _ in range(2):
            p, t1 = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.8)
            ensembles += [
                (dists.VonMisesFisher(kappa=sign() * log_uniform(rng, 0.05, 20.0)), False),
                (dists.HenyeyGreenstein(h=rng.uniform(-0.9, 0.9)), False),
                (dists.Brosseau(P=p, mu=rng.uniform(-p, p)), False),
                (dists.Belt(theta1=t1, theta2=rng.uniform(t1 + 0.05, math.pi)), False),
                (dists.Uniform(), False),
                (dists.Delta(theta=rng.uniform(0.0, math.pi)), False),
                (dists.DeltaPair(theta=rng.uniform(0.0, math.pi)), False),
            ]
        # Peaked ensembles, where array quadrature does most of the work.
        # Three of each kind keep the slow known defect (h = 0.9999) under 5%
        # of the operations, so the p95 tail lands among seeded ensembles
        # rather than on one input repeated every cycle.
        for _ in range(3):
            p = rng.uniform(0.99, 0.9999)
            ensembles += [
                (dists.VonMisesFisher(kappa=sign() * log_uniform(rng, 20.0, 5e4)), False),
                (dists.HenyeyGreenstein(h=sign() * rng.uniform(0.99, 0.999)), False),
                (dists.Brosseau(P=p, mu=sign() * p * rng.uniform(0.5, 1.0)), False),
            ]
        # Known defects: Tr R = 1.4e-13 instead of 2; QuadratureError in
        # build_merit; QuadratureError in the Brosseau moments.
        ensembles += [(dists.VonMisesFisher(kappa=1e5), True),
                      (dists.HenyeyGreenstein(h=0.9999), True),
                      (dists.Brosseau(P=0.999999, mu=0.999999), True)]
        return [self.merit_op(d, defect, rng.uniform(0.0, math.pi, 3),
                              rng.uniform(0.0, 2 * math.pi, 3))
                for d, defect in ensembles]

    def merit_op(self, d, known_defect: bool, thetas, phis) -> Op:
        def run():
            m = dists.moments(d)
            p = optimal.optimal_angles(m)
            r = choi.build_merit(d)
            f_choi = choi.choi_fidelity(choi.choi_from_params(p), r)
            sims = [qsim.clone_fidelity_sim(qsim.PureQubit(th, ph), p, i)
                    for th, ph in zip(thetas, phis) for i in (1, 2)]
            u = circuit.circuit_unitary(circuit.build_circuit(p))
            return m, p.alpha_plus, p.alpha_minus, r, f_choi, sims, u

        def check(result) -> int:
            (a1, a2), ap, am, r, f_choi, sims, u = result
            reference = np.tensordot([1.0, a1, a2], self.basis, axes=(0, 0))
            f = avg_fidelity(a1, a2, ap, am)
            ok = (close(np.trace(r).real, 2.0, MERIT_TOL)
                  and np.abs(r - r.conj().T).max() <= EXACT_TOL
                  and np.abs(r - reference).max() <= MERIT_TOL
                  and close(f_choi, f, MERIT_TOL)
                  and f >= best_fixed_cloner(a1, a2) - EXACT_TOL
                  and all(close(s, single_fidelity(th, ap, am))
                          for s, th in zip(sims, np.repeat(thetas, 2)))
                  and np.abs(u[:, [0b000, 0b100]] - isometry(ap, am)).max() <= EXACT_TOL
                  and np.abs(u.conj().T @ u - np.eye(8)).max() <= EXACT_TOL)
            return 0 if ok else 1
        return Op(f"merit {dists.spec_string(d)}", run, check, known_defect=known_defect)


class CertifyWorkload(Workload):
    """In-process ``verify`` at the default 10000 samples per environment size.

    Every cycle certifies the same three ensembles from the acceptance
    suite's reference panel; the seed draws the Haar sample seed of each
    call.  Nelder-Mead cost differs by up to a quarter between ensembles and
    a run holds only one or two cycles, so seeded ensembles would make the
    run-to-run spread wider than the benchmark's bounds.
    """

    panel = ("vmf:kappa=1.0", "deltapair:theta=1.0471975511965976", "brosseau:P=0.8,mu=0.5")

    def make_cycle(self, rng) -> list[Op]:
        samples = 50 if self.tiny else 10000
        return [self.verify_op(spec, samples, int(rng.integers(2 ** 31))) for spec in self.panel]

    @staticmethod
    def verify_op(spec: str, samples: int, haar_seed: int) -> Op:
        argv = ["verify", "--dist", spec, "--samples", str(samples), "--seed", str(haar_seed)]

        def check(result) -> int:
            code, text = result
            if code != 0:
                return 1
            report = json.loads(text)
            m = dists.moments(cli.parse_dist(spec))
            f_opt = report["F_opt"]
            ok = (report["max_sampled_F"] <= f_opt + MERIT_TOL
                  and close(f_opt, optimal.numeric_optimum(m)[2], MERIT_TOL))
            return 0 if ok else 1
        return Op(f"verify {spec}", lambda: main_in_process(argv), check)


class CliWorkload(Workload):
    """Cold ``python -m axiclone.cli`` processes, one command each."""

    min_cycles = 5
    trace_cycles = 2

    def make_cycle(self, rng) -> list[Op]:
        points = 11 if self.tiny else 301
        kinds = rng.permutation(KINDS)
        sweep_kind = str(rng.choice(("vmf", "hg", "belt", "delta", "deltapair", "brosseau")))
        base, sweep, grid = sweep_grid(rng, sweep_kind, points)
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
        return [
            self.cli_op(["params", "--dist", random_spec(rng, str(kinds[0]))]),
            self.cli_op(["circuit", "--dist", random_spec(rng, str(kinds[1]))]),
            self.cli_op(["simulate", "--dist", random_spec(rng, str(kinds[2])),
                         "--theta", repr(theta), "--phi", repr(phi)]),
            self.cli_op(["sweep", "--dist", base, "--sweep", sweep], grid),
        ]

    @staticmethod
    def cli_op(argv: list[str], grid=None) -> Op:
        command = [sys.executable, "-m", "axiclone.cli", *argv]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        def run():
            proc = subprocess.run(command, capture_output=True, text=True,
                                  env=env, cwd=ROOT, timeout=120, check=False)
            return proc.returncode, proc.stdout

        def check(result) -> int:
            code, text = result
            if code != 0:
                return 1
            if grid is not None:
                return int(bad_sweep_rows(text, grid) > 0)
            return 0 if check_report(argv, json.loads(text)) else 1
        return Op(" ".join(argv), run, check)


def check_report(argv: list[str], report: dict) -> bool:
    """Oracle for one params, circuit or simulate report."""
    command, spec = argv[0], argv[2]
    a1, a2 = dists.moments(cli.parse_dist(spec))
    p = optimal.optimal_angles((a1, a2))
    ap, am = p.alpha_plus, p.alpha_minus
    if avg_fidelity(a1, a2, ap, am) < best_fixed_cloner(a1, a2) - EXACT_TOL:
        return False
    if command != "simulate" and not (close(report["alpha_plus"], ap)
                                      and close(report["alpha_minus"], am)):
        return False
    if command == "params":
        return (close(report["a1"], a1) and close(report["a2"], a2)
                and close(report["F_avg"], avg_fidelity(a1, a2, ap, am)))
    if command == "circuit":
        gates = report["gates"]
        return ([g["kind"] for g in gates] == ["CRy", "Ry", "CH", "CNOT", "CNOT", "CNOT", "X"]
                and close(report["omega"], 2 * ap)
                and close(report["Phi"], 2 * (am - ap))
                and close(gates[0]["params"][0], report["Phi"])
                and close(gates[1]["params"][0], report["omega"]))
    theta, phi = float(argv[4]), float(argv[6])
    amps = np.array([complex(re, im) for re, im in report["amplitudes"]])
    f = single_fidelity(theta, ap, am)
    return (np.abs(amps - isometry(ap, am) @ qubit(theta, phi)).max() <= EXACT_TOL
            and all(close(report[k], f) for k in ("F_clone1", "F_clone2", "F_closed_form")))


WORKLOADS = {
    "cli": CliWorkload,
    "sweep": SweepWorkload,
    "merit": MeritWorkload,
    "certify": CertifyWorkload,
}
