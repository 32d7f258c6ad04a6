"""Span tracer that times axiclone's public functions from outside the package.

`Tracer.install()` replaces each traced function, in every loaded axiclone
module that binds it (the module that defines it and each module that
imported it by name, such as ``axiclone.dist.integrate`` or
``axiclone.choi.minimize``), with a wrapper that records one span: name,
parent span, start, end and whether it raised.  Spans stay in memory until
`metrics()` reduces them to per-layer numbers.  Self time is a span's
duration minus the time covered by its direct children.  A function that
no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute)
TARGETS = {
    "cli.main": ("axiclone.cli", "main"),
    "dist.moments": ("axiclone.dist", "moments"),
    "quadrature.integrate": ("axiclone.quadrature", "integrate"),
    "optimal.optimal_angles": ("axiclone.optimal", "optimal_angles"),
    "optimal.average_fidelity": ("axiclone.optimal", "average_fidelity"),
    "choi.build_merit": ("axiclone.choi", "build_merit"),
    "choi.max_sampled_fidelity": ("axiclone.choi", "max_sampled_fidelity"),
    "choi.constrained_maximize": ("axiclone.choi", "constrained_maximize"),
    "choi.minimize": ("axiclone.choi", "minimize"),
    "choi.optimality_report": ("axiclone.choi", "optimality_report"),
    "qsim.clone_fidelity_sim": ("axiclone.qsim", "clone_fidelity_sim"),
    "circuit.build_circuit": ("axiclone.circuit", "build_circuit"),
    "circuit.circuit_unitary": ("axiclone.circuit", "circuit_unitary"),
}

# Gauss-Legendre passes per evaluated interval in quadrature.integrate: the
# whole-interval rule plus one per half.
PASSES_PER_INTERVAL = 3

# Per-layer metrics in the order they are printed: (name, unit, source).
# The source is (span name, field) or a counter name.
METRICS = (
    ("import.axiclone_s", "s", "import.axiclone_s"),
    ("import.scipy_optimize_loaded", "bool", "import.scipy_optimize_loaded"),
    ("cli.main.busy_s", "s", ("cli.main", "busy")),
    ("cli.main.self_s", "s", ("cli.main", "self")),
    ("dist.moments.calls", "count", ("dist.moments", "calls")),
    ("dist.moments.busy_s", "s", ("dist.moments", "busy")),
    ("dist.moments.fail", "count", ("dist.moments", "fail")),
    ("quadrature.integrate.calls", "count", ("quadrature.integrate", "calls")),
    ("quadrature.integrate.evals", "count", "quadrature.integrate.evals"),
    ("quadrature.integrate.splits", "count", "quadrature.integrate.splits"),
    ("quadrature.integrate.busy_s", "s", ("quadrature.integrate", "busy")),
    ("quadrature.integrate.fail", "count", ("quadrature.integrate", "fail")),
    ("optimal.optimal_angles.calls", "count", ("optimal.optimal_angles", "calls")),
    ("optimal.optimal_angles.busy_s", "s", ("optimal.optimal_angles", "busy")),
    ("optimal.average_fidelity.calls", "count", ("optimal.average_fidelity", "calls")),
    ("optimal.average_fidelity.busy_s", "s", ("optimal.average_fidelity", "busy")),
    ("choi.build_merit.busy_s", "s", ("choi.build_merit", "busy")),
    ("choi.build_merit.self_s", "s", ("choi.build_merit", "self")),
    ("choi.build_merit.fail", "count", ("choi.build_merit", "fail")),
    ("choi.max_sampled_fidelity.busy_s", "s", ("choi.max_sampled_fidelity", "busy")),
    ("choi.haar.samples_per_s", "1/s", "choi.haar.samples_per_s"),
    ("choi.constrained_maximize.busy_s", "s", ("choi.constrained_maximize", "busy")),
    ("choi.minimize.calls", "count", ("choi.minimize", "calls")),
    ("choi.minimize.nfev", "count", "choi.minimize.nfev"),
    ("choi.optimality_report.busy_s", "s", ("choi.optimality_report", "busy")),
    ("qsim.clone_fidelity_sim.calls", "count", ("qsim.clone_fidelity_sim", "calls")),
    ("qsim.clone_fidelity_sim.busy_s", "s", ("qsim.clone_fidelity_sim", "busy")),
    ("circuit.build_circuit.busy_s", "s", ("circuit.build_circuit", "busy")),
    ("circuit.circuit_unitary.busy_s", "s", ("circuit.circuit_unitary", "busy")),
    ("trace.overhead_frac", "frac", "trace.overhead_frac"),
)


class Tracer:
    """Records spans and counters around the functions named in TARGETS."""

    def __init__(self):
        # span: [name, parent index or -1, start, end, raised]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (module_name, attr) in TARGETS.items():
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module_name != "axiclone" and not module_name.startswith("axiclone."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _span(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        spans, stack = self.spans, self._stack
        index = len(spans)
        span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, False]
        spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[4] = True
            raise
        finally:
            stack.pop()
            span[3] = time.perf_counter()

    def _wrap(self, name, fn):
        if name == "quadrature.integrate":
            return self._wrap_integrate(fn)
        if name == "choi.minimize":
            def traced_minimize(*args, **kwargs):
                result = self._span(name, fn, args, kwargs)
                if self.active:
                    self.counters["choi.minimize.nfev"] += getattr(result, "nfev", 0)
                return result
            return traced_minimize
        if name == "choi.max_sampled_fidelity":
            signature = inspect.signature(fn)

            def traced_haar(*args, **kwargs):
                if self.active:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counters["choi.haar.samples"] += (
                        bound.arguments["n_samples"] * len(bound.arguments["env_dims"]))
                return self._span(name, fn, args, kwargs)
            return traced_haar

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    def _wrap_integrate(self, fn):
        def traced_integrate(f, *args, **kwargs):
            if not self.active:
                return fn(f, *args, **kwargs)
            passes = 0

            def counted(x):
                nonlocal passes
                passes += 1
                self.counters["quadrature.integrate.evals"] += getattr(x, "size", 1)
                return f(x)
            try:
                return self._span("quadrature.integrate", fn, (counted,) + args, kwargs)
            finally:
                if passes:
                    intervals = passes / PASSES_PER_INTERVAL
                    self.counters["quadrature.integrate.splits"] += (intervals - 1) / 2
        return traced_integrate

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy and self seconds, spans that raised."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "fail": 0})
        for (name, _, start, end, raised), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["busy"] += end - start
            row["self"] += end - start - children
            row["fail"] += raised
        return out

    def metrics(self, extra: dict[str, float]) -> dict[str, dict]:
        """Every per-layer metric by name; ``extra`` supplies the non-span ones."""
        rows = self.summary()
        haar_busy = rows["choi.max_sampled_fidelity"]["busy"]
        values = {**self.counters, **extra}
        values["choi.haar.samples_per_s"] = (
            self.counters["choi.haar.samples"] / haar_busy if haar_busy else 0.0)
        out = {}
        for metric, unit, source in METRICS:
            if isinstance(source, tuple):
                span, field = source
                value = rows[span][field]
            else:
                value = values.get(source, 0)
            out[metric] = {"value": value, "unit": unit}
        return out
