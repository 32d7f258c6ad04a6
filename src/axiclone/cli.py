"""Command-line front end.

Subcommands: params, sweep, simulate, verify, circuit.  Distributions are
given as ``name`` or ``name:key=value[,key=value...]``, e.g. ``uniform``,
``vmf:kappa=1.5``, ``brosseau:P=0.8,mu=0.5``, ``deltapair:theta=1.0472``,
``belt:theta1=0.5,theta2=1.2``, ``hg:h=0.3``, ``table:/path/to.csv``.
The names are those of ``dist.KINDS`` and the keys are each kind's
``keys``.
Angles are radians everywhere.  Exit codes: 0 success, 1 usage or parse
error, 2 numeric failure, 3 optimality violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

from . import circuit as circuit_mod
from . import dist as dist_mod
from .errors import CloneError, ParseError
from .optimal import (average_fidelity, optimal_angles, pcc_params,
                      single_copy_fidelity, uc_params)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_OPTIMALITY = 3

# Largest excess of a sampled map over F_opt, and largest distance of the
# dual bound F_upper from F_opt, that verify accepts.
_CERTIFICATE_TOL = 1e-9
# Most points a sweep grid may have.
_MAX_SWEEP_POINTS = 1_000_000

def _finite_float(text: str, what: str | None = None,
                  position: int | None = None) -> float:
    """Parse a finite float; NaN and infinities are parse errors too.

    ``what`` names the number in the message, if given.
    """
    subject = f"number {text!r}" + ("" if what is None else f" for {what}")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad {subject}", position) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {subject}", position)
    return value


def _float_option(text: str) -> float:
    """argparse ``type`` of a float option; argparse names the option."""
    try:
        return _finite_float(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_dist(spec: str) -> dist_mod.AxisDistribution:
    """Parse a textual distribution spec; positions are 0-based."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty distribution spec", 0)
    name, sep, rest = spec.partition(":")
    name = name.lower()
    if name == dist_mod.Tabulated.kind:
        if not rest:
            raise ParseError(f"{name} needs a file path", len(name) + 1)
        return dist_mod.load_tabulated(rest)
    if name not in dist_mod.KINDS:
        raise ParseError(f"unknown distribution {name!r}", 0)
    cls = dist_mod.KINDS[name]
    allowed = cls.keys
    values: dict[str, float] = {}
    if sep and rest:
        offset = len(name) + 1
        for chunk in rest.split(","):
            key, eq, val = chunk.partition("=")
            key = key.strip()
            if not eq:
                raise ParseError(f"expected key=value, got {chunk!r}",
                                 offset)
            if key not in allowed:
                raise ParseError(f"unknown key {key!r} for {name}", offset)
            if key in values:
                raise ParseError(f"duplicate key {key!r}", offset)
            values[key] = _finite_float(val, key, offset + len(key) + 1)
            offset += len(chunk) + 1
    elif sep and not rest:
        raise ParseError("trailing colon without parameters", len(name))
    missing = [k for k in allowed if k not in values]
    if missing:
        raise ParseError(f"{name} needs {', '.join(missing)}", len(spec))
    try:
        return cls(**values)
    except CloneError as exc:
        raise ParseError(f"invalid parameters for {name}: {exc}") from exc


def _fmt(value) -> str:
    """17-significant-digit float rendering shared by JSON and CSV output."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        if value == 0.0:
            return "0"  # avoid the "-0" rendering of negative zero
        return format(value, ".17g")
    return str(value)


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting (insertion order kept)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {render_json(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    # a lone surrogate (an argv byte that was not UTF-8) has no UTF-8 form;
    # backslashreplace writes it as its \udcXX JSON escape instead
    text = json.dumps(str(obj), ensure_ascii=False)
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _claim_out(out: str) -> bool:
    """Check that ``out`` can be written, before any work; True if made here."""
    made = not os.path.lexists(out)
    try:
        # append mode creates a missing file and leaves an existing one as is
        with open(out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ParseError(f"cannot write {out!r}: {exc.strerror}") from None
    return made


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One ``warning:`` line on stderr, without the source location."""
    sys.stderr.write(f"warning: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _params_report(d: dist_mod.AxisDistribution) -> dict:
    m = dist_mod.moments(d)
    p = optimal_angles(m)
    return {
        "a1": m.a1,
        "a2": m.a2,
        "Gamma": p.gamma,
        "Omega": p.omega_value,
        "alpha_plus": p.alpha_plus,
        "alpha_minus": p.alpha_minus,
        "regime": p.regime.value,
        "F_avg": average_fidelity(m, p),
    }


def cmd_params(args) -> int:
    report = _params_report(parse_dist(args.dist))
    _emit(render_json(report), args.out)
    return EXIT_OK


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """``count`` points from ``start`` to ``stop``, bit for bit ``np.linspace``.

    numpy's recipe: i * step + start with step = (stop - start) / (count - 1),
    or (i / (count - 1)) * (stop - start) where the step underflows to zero,
    and the last point set to ``stop``.
    """
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        grid = [i / div * delta + start for i in range(count)]
    else:
        grid = [i * step + start for i in range(count)]
    grid[-1] = stop
    return grid


def _parse_sweep(text: str,
                 base: dist_mod.AxisDistribution) -> tuple[list[str], list[float]]:
    """Keys and grid of ``key[,key...]=start:stop:n``, checked against ``base``."""
    names, eq, grid = text.partition("=")
    if not eq:
        raise ParseError(f"sweep must look like key=start:stop:n, got {text!r}")
    parts = grid.split(":")
    if len(parts) != 3:
        raise ParseError(f"sweep grid must be start:stop:n, got {grid!r}")
    start = _finite_float(parts[0], "sweep start")
    stop = _finite_float(parts[1], "sweep stop")
    try:
        count = int(parts[2])
    except ValueError:
        raise ParseError(f"bad sweep grid {grid!r}") from None
    if count < 2:
        raise ParseError("sweep needs at least 2 points")
    if count > _MAX_SWEEP_POINTS:
        raise ParseError(f"sweep has {count} points, more than {_MAX_SWEEP_POINTS}")
    if start == stop:
        raise ParseError("sweep start and stop must differ")
    if not math.isfinite(stop - start):
        raise ParseError(f"sweep grid {grid!r} spans more than a float holds")
    keys = [k.strip() for k in names.split(",") if k.strip()]
    if not keys:
        raise ParseError("sweep needs a parameter name")
    # only a registered kind's keys are spec keys; a table has none
    allowed = base.keys if base.kind in dist_mod.KINDS else ()
    for i, key in enumerate(keys):
        if key not in allowed:
            raise ParseError(f"cannot sweep {key!r} on {base.kind}")
        if key in keys[:i]:
            raise ParseError(f"duplicate key {key!r}")
    return keys, _linspace(start, stop, count)


def cmd_sweep(args) -> int:
    base = parse_dist(args.dist)
    keys, grid = _parse_sweep(args.sweep, base)
    columns = ["param", "a1", "a2", "Gamma", "alpha_plus", "alpha_minus",
               "F_opt", "F_UC", "F_PCC_branch"]
    lines = [",".join(columns)]
    for value in grid:
        row: list[float] = [float(value)]
        try:
            d = base.with_(**dict.fromkeys(keys, float(value)))
            m = dist_mod.moments(d)
            p = optimal_angles(m)
            row += [m.a1, m.a2, p.gamma, p.alpha_plus, p.alpha_minus,
                    average_fidelity(m, p), average_fidelity(m, uc_params()),
                    average_fidelity(m, pcc_params(m.a1 >= 0))]
        except CloneError as exc:
            sys.stderr.write(
                f"warning: {','.join(keys)}={_fmt(float(value))}: {exc}\n")
            row += [math.nan] * 8
        lines.append(",".join(_fmt(v).replace("NaN", "nan") for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import qsim

    d = parse_dist(args.dist)
    m = dist_mod.moments(d)
    p = optimal_angles(m)
    q = qsim.PureQubit(args.theta, args.phi)
    state = qsim.apply_clone(q, p)
    report = {
        "amplitudes": [[float(a.real), float(a.imag)] for a in state],
        "F_clone1": qsim.clone_fidelity_sim(q, p, 1),
        "F_clone2": qsim.clone_fidelity_sim(q, p, 2),
        "F_closed_form": single_copy_fidelity(args.theta, p),
    }
    _emit(render_json(report), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import choi as choi_mod

    if args.samples < 1:
        raise ParseError("--samples must be >= 1")
    if args.seed < 0:
        raise ParseError("--seed must be >= 0")
    d = parse_dist(args.dist)
    numbers = choi_mod.optimality_report(d, args.samples, seed=args.seed)
    report = {"distribution": dist_mod.spec_string(d), **numbers}
    _emit(render_json(report), args.out)
    f_opt = report["F_opt"]
    # written as "not <=" so that a NaN anywhere fails the certificate
    if not (abs(report["F_upper"] - f_opt) <= _CERTIFICATE_TOL
            and report["max_sampled_F"] <= f_opt + _CERTIFICATE_TOL):
        return EXIT_OPTIMALITY
    return EXIT_OK


def cmd_circuit(args) -> int:
    d = parse_dist(args.dist)
    m = dist_mod.moments(d)
    p = optimal_angles(m)
    gates = circuit_mod.build_circuit(p)
    report = {
        "distribution": dist_mod.spec_string(d),
        "alpha_plus": p.alpha_plus,
        "alpha_minus": p.alpha_minus,
        "regime": p.regime.value,
        "omega": 2 * p.alpha_plus,
        "Phi": 2 * (p.alpha_minus - p.alpha_plus),
        "gates": [g.as_dict() for g in gates],
    }
    _emit(render_json(report), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="axiclone", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.add_argument("--dist", required=True, help="distribution spec")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(fn=fn)
        return p

    add("params", cmd_params)
    sweep = add("sweep", cmd_sweep)
    sweep.add_argument("--sweep", required=True, help="param=start:stop:n")
    simulate = add("simulate", cmd_simulate)
    simulate.add_argument("--theta", type=_float_option, required=True)
    simulate.add_argument("--phi", type=_float_option, default=0.0)
    verify = add("verify", cmd_verify)
    verify.add_argument("--samples", type=int, default=10000)
    verify.add_argument("--seed", type=int, default=0)
    add("circuit", cmd_circuit)
    return parser


def _run(args) -> int:
    """Run the command; a failed run removes the --out file it made."""
    made = bool(args.out) and _claim_out(args.out)
    try:
        return args.fn(args)
    except BaseException:
        if made:
            with contextlib.suppress(OSError):
                os.remove(args.out)
        raise


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        with warnings.catch_warnings():
            # a warning about the input, such as a renormalised table, is
            # one line in the style of the sweep's warnings
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = _show_warning
            return _run(parser.parse_args(argv))
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except CloneError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        # a float failure no CloneError check anticipated; never a traceback
        sys.stderr.write(f"numeric error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
