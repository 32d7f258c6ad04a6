import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from axiclone import choi as choi_mod
from axiclone import cli
from axiclone import dist as dist_mod
from axiclone.cli import main, parse_dist, render_json
from axiclone.dist import (AxisDistribution, Belt, Brosseau, Delta, DeltaPair,
                           HenyeyGreenstein, MomentPair, Uniform,
                           VonMisesFisher, spec_string)
from axiclone.errors import ParseError, UnsupportedKindError

from conftest import KIND_STRATEGIES, random_distribution
from oracles import block_basis

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Toy(AxisDistribution):
    """A kind defined outside the package: one ring at cos(theta) = s."""

    __slots__ = keys = ("s",)
    kind = "toy"

    def __init__(self, s: float = 0.0):
        object.__setattr__(self, "s", s)

    def moment_pair(self) -> MomentPair:
        return MomentPair(self.s, (3 * self.s * self.s - 1) / 2)


class TestParseDist:
    @pytest.mark.parametrize("spec,expected", [
        ("uniform", Uniform()),
        ("vmf:kappa=1.5", VonMisesFisher(kappa=1.5)),
        ("vmf:kappa=-0.4", VonMisesFisher(kappa=-0.4)),
        ("brosseau:P=0.8,mu=0.5", Brosseau(P=0.8, mu=0.5)),
        ("hg:h=0.3", HenyeyGreenstein(h=0.3)),
        ("delta:theta=1.0472", Delta(theta=1.0472)),
        ("deltapair:theta=1.0472", DeltaPair(theta=1.0472)),
        ("belt:theta1=0.5,theta2=1.2", Belt(theta1=0.5, theta2=1.2)),
    ])
    def test_examples(self, spec, expected):
        assert parse_dist(spec) == expected

    def test_round_trip_all_kinds(self, rng):
        dists = [Uniform(), VonMisesFisher(kappa=2.25), Brosseau(P=0.7, mu=-0.3),
                 HenyeyGreenstein(h=-0.55), Delta(theta=0.4),
                 DeltaPair(theta=2.2), Belt(theta1=0.1, theta2=3.0),
                 VonMisesFisher(kappa=1e-300), HenyeyGreenstein(h=-0.999999)]
        dists += [random_distribution(rng) for _ in range(200)]
        for d in dists:
            assert parse_dist(spec_string(d)) == d

    def test_strategy_for_every_kind(self):
        assert set(KIND_STRATEGIES) == set(dist_mod.KINDS)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(*KIND_STRATEGIES.values()), st.booleans())
    def test_round_trip_property(self, d, numpy_fields):
        if numpy_fields:
            d = d.with_(**{key: np.float64(getattr(d, key))
                           for key in d.keys})
        assert parse_dist(spec_string(d)) == d

    def test_new_kind_needs_no_cli_edit(self, capsys, monkeypatch):
        monkeypatch.setitem(dist_mod.KINDS, "toy", Toy)
        assert parse_dist("toy:s=0.5") == Toy(0.5)
        assert spec_string(Toy(0.5)) == "toy:s=0.5"
        code, out, err = run_cli(capsys, "sweep", "--dist", "toy:s=0",
                                 "--sweep", "s=0:1:3")
        assert code == 0 and err == ""
        rows = out.splitlines()[1:]
        assert len(rows) == 3 and all("nan" not in row for row in rows)
        code, out, err = run_cli(capsys, "sweep", "--dist", "toy:s=0",
                                 "--sweep", "x=0:1:3")
        assert code == 1 and out == ""
        assert err == "error: cannot sweep 'x' on toy\n"

    def test_unregistered_type_has_no_spec(self):
        class Concentrated(VonMisesFisher):
            pass

        for d in (Toy(0.5), Concentrated(2.0)):
            with pytest.raises(UnsupportedKindError):
                spec_string(d)

    def test_table_round_trip(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("-1.0,0.5\n1.0,0.5\n")
        d = parse_dist(f"table:{path}")
        assert parse_dist(spec_string(d)) == d

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_dist("gauss:sigma=1")

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_dist("vmf:k=1")

    def test_bad_number_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_dist("vmf:kappa=abc")
        assert err.value.position is not None

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_dist("brosseau:P=0.5")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParseError):
            parse_dist("brosseau:P=1.0,mu=0.0")


@pytest.mark.parametrize("argv", [
    ("simulate", "--dist", "uniform", "--theta", "nan"),
    ("simulate", "--dist", "uniform", "--theta", "0.7", "--phi", "inf"),
    ("params", "--dist", "vmf:kappa=inf"),
    ("sweep", "--dist", "vmf:kappa=0", "--sweep", "kappa=0:1e400:3"),
    ("sweep", "--dist", "vmf:kappa=0", "--sweep", "kappa=-inf:1:3"),
    ("sweep", "--dist", "vmf:kappa=0", "--sweep", "kappa=-1e308:1.7e308:3"),
])
def test_non_finite_numbers_are_parse_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    if argv[0] == "simulate":
        # argparse names the option and keeps the parse error's own text
        option, text = argv[-2:]
        assert err == f"error: argument {option}: non-finite number {text!r}\n"
        assert "_finite_float" not in err


class TestRenderJson:
    def test_seventeen_digit_floats(self):
        assert render_json({"x": 5 / 6}) == '{\n  "x": 0.83333333333333337\n}'

    def test_nested_and_specials(self):
        text = render_json({"a": [1.0, float("nan")], "b": None, "c": True})
        assert "NaN" in text and "null" in text and "true" in text

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_string_parses_back(self, s):
        # control characters, quotes and backslashes are escaped; other
        # characters, non-ASCII included, are written as they are
        assert json.loads(render_json(s)) == s
        assert json.loads(render_json({s: [s]})) == {s: [s]}

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters()
                   | st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF,
                                   categories=["Cs"])))
    def test_lone_surrogates_are_escaped(self, s):
        # argv decodes a byte that is not UTF-8 to U+DC80..U+DCFF; it is
        # written as its \udcXX escape, so the output is UTF-8; any other
        # string is written exactly as json.dumps(ensure_ascii=False) does
        text = render_json(s)
        text.encode("utf-8")
        assert json.loads(text) == s
        if not any("\ud800" <= c <= "\udfff" for c in s):
            assert text == json.dumps(s, ensure_ascii=False)


class TestParamsCommand:
    def test_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--dist", "uniform")
        assert code == 0
        rep = json.loads(out)
        assert rep["F_avg"] == pytest.approx(5 / 6, abs=1e-12)
        assert rep["regime"] == "Interior"
        assert rep["Gamma"] == 0.0
        assert rep["alpha_plus"] == pytest.approx(0.6154797086703875, abs=1e-12)

    def test_vmf_boundary_regime(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--dist", "vmf:kappa=1")
        rep = json.loads(out)
        assert code == 0
        assert rep["regime"] == "PccUpper"
        assert rep["alpha_plus"] == 0.0
        assert rep["alpha_minus"] == pytest.approx(math.pi / 2)

    def test_near_equator_mirror_pair(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--dist", "deltapair:theta=1.5708")
        rep = json.loads(out)
        assert code == 0
        assert rep["alpha_plus"] == pytest.approx(math.pi / 4, abs=1e-5)
        assert rep["alpha_minus"] == pytest.approx(rep["alpha_plus"], abs=1e-12)

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "params", "--dist", "nope")
        assert code == 1
        assert "error" in err

    def test_numeric_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,1.0\n0.5,1.0\n")
        code, _, err = run_cli(capsys, "params", "--dist", f"table:{bad}")
        assert code == 2
        assert "numeric error" in err

    @pytest.mark.parametrize("row", ["0.0,nan", "0.0,inf", "nan,0.5"])
    def test_non_finite_table_is_numeric_error(self, capsys, tmp_path, row):
        path = tmp_path / "table.csv"
        path.write_text(f"-1.0,0.5\n{row}\n1.0,0.5\n")
        code, out, err = run_cli(capsys, "params", "--dist", f"table:{path}")
        assert (code, out) == (2, "")
        assert err == "numeric error: tabulated samples must be finite\n"

    @pytest.mark.parametrize("rows,area", [("0,1\n1e-320,1\n", "1e-320"),
                                           ("0,1\n5e-324,0\n", "0")])
    def test_subnormally_narrow_table_is_named(self, capsys, tmp_path, rows,
                                               area):
        path = tmp_path / "table.csv"
        path.write_text(rows)
        code, out, err = run_cli(capsys, "params", "--dist", f"table:{path}")
        assert (code, out) == (2, "")
        assert err == ("numeric error: tabulated support is too narrow: "
                       f"g / max(g) integrates to {area}, below the smallest "
                       "normal float\n")

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_table_is_parse_error(self, capsys, tmp_path, case):
        path = tmp_path / "table.csv"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b"\xff\xfe0.5,1.0\n")
        code, out, err = run_cli(capsys, "params", "--dist", f"table:{path}")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_is_parse_error(self, capsys, tmp_path, target):
        # a missing directory, or a directory itself, cannot take the report
        out = str(tmp_path / target)
        code, stdout, err = run_cli(capsys, "params", "--dist", "uniform",
                                    "--out", out)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out!r}: ")
        assert err.count("\n") == 1

    def test_renormalised_table_warns_in_one_line(self, capsys, tmp_path):
        # the warning names the table, not the package's source; stdout is
        # the report of the normalised table
        unit = tmp_path / "unit.csv"
        unit.write_text("-1,0.5\n1,0.5\n")
        double = tmp_path / "double.csv"
        double.write_text("-1,1\n1,1\n")
        _, expected, _ = run_cli(capsys, "params", "--dist", f"table:{unit}")
        code, out, err = run_cli(capsys, "params", "--dist", f"table:{double}")
        assert (code, out) == (0, expected)
        assert err == (f"warning: tabulated density {str(double)!r} "
                       "integrates to 2; renormalising\n")

    def test_underflowing_polarization(self, capsys):
        # P^2 underflows to zero; the moments are those of the uniform ring
        code, out, err = run_cli(capsys, "params", "--dist", "brosseau:P=1e-300,mu=0")
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert rep["a1"] == 0.0 and rep["a2"] == 0.0
        code, out, err = run_cli(capsys, "params", "--dist",
                                 "brosseau:P=1e-300,mu=1e-300")
        assert code == 0 and err == ""
        assert 0.0 < json.loads(out)["a1"] <= 1e-300

    @pytest.mark.parametrize("exc", [ZeroDivisionError, OverflowError,
                                     FloatingPointError])
    def test_arithmetic_error_is_numeric_exit(self, capsys, monkeypatch, exc):
        def broken(dist):
            raise exc("injected")

        monkeypatch.setattr(dist_mod, "moments", broken)
        code, out, err = run_cli(capsys, "params", "--dist", "uniform")
        assert code == 2
        assert out == ""
        assert err == f"numeric error: {exc.__name__}: injected\n"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "params", "--dist", "brosseau:P=0.6,mu=0.2")
        _, out2, _ = run_cli(capsys, "params", "--dist", "brosseau:P=0.6,mu=0.2")
        assert out1 == out2


_COMMAND_ARGS = {
    "params": (),
    "sweep": ("--sweep", "kappa=0:1:3"),
    "simulate": ("--theta", "0.7"),
    "verify": ("--samples", "5"),
    "circuit": (),
}


class TestOutPath:
    @pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
    def test_unwritable_out_fails_before_any_work(self, capsys, monkeypatch,
                                                  tmp_path, command):
        def never(spec):
            raise AssertionError("the distribution was parsed")

        monkeypatch.setattr(cli, "parse_dist", never)
        out = str(tmp_path / "missing" / "x.json")
        code, stdout, err = run_cli(capsys, command, "--dist", "vmf:kappa=1",
                                    *_COMMAND_ARGS[command], "--out", out)
        assert (code, stdout) == (1, "")
        assert err == (f"error: cannot write {out!r}: "
                       "No such file or directory\n")

    def test_unwritable_out_skips_the_certificate(self, capsys, monkeypatch,
                                                  tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("the certificate ran")

        monkeypatch.setattr(choi_mod, "optimality_report", never)
        out = str(tmp_path / "missing" / "x.json")
        code, stdout, err = run_cli(capsys, "verify", "--dist", "uniform",
                                    "--samples", "100000", "--out", out)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out!r}: ")

    def test_failed_run_leaves_no_new_file(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("-1.0,0.5\n0.0,nan\n1.0,0.5\n")
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(capsys, "params", "--dist", f"table:{table}",
                                    "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("numeric error: ")
        assert not out.exists()

    def test_failed_parse_leaves_no_new_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "params", "--dist",
                               f"table:{tmp_path / 'missing.csv'}",
                               "--out", str(out))
        assert code == 1 and err.startswith("error: cannot read table")
        assert not out.exists()

    def test_failed_run_keeps_an_existing_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        code, _, _ = run_cli(capsys, "params", "--dist", "uniform",
                             "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["regime"] == "Interior"
        out.write_text("earlier report\n")
        table = tmp_path / "table.csv"
        table.write_text("-1.0,0.5\n0.0,nan\n1.0,0.5\n")
        code, _, _ = run_cli(capsys, "params", "--dist", f"table:{table}",
                             "--out", str(out))
        assert code == 2
        assert out.read_text() == "earlier report\n"


class TestSimulateCommand:
    def test_uniform_clones(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dist", "uniform",
                               "--theta", "0.7", "--phi", "2.1")
        rep = json.loads(out)
        assert code == 0
        assert rep["F_clone1"] == pytest.approx(5 / 6, abs=1e-12)
        assert rep["F_clone2"] == pytest.approx(5 / 6, abs=1e-12)
        assert rep["F_clone1"] == pytest.approx(rep["F_closed_form"], abs=1e-12)
        amps = np.array([complex(re, im) for re, im in rep["amplitudes"]])
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_equatorial_ring(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dist", "delta:theta=1.5708",
                               "--theta", str(math.pi / 2), "--phi", "0")
        rep = json.loads(out)
        assert code == 0
        assert rep["F_clone1"] == pytest.approx((4 + 2 * SQRT2) / 8, abs=1e-9)

    def test_cross_path_consistency(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dist", "hg:h=0.4",
                               "--theta", "1.0", "--phi", "0.3")
        rep = json.loads(out)
        assert rep["F_clone1"] == pytest.approx(rep["F_closed_form"], abs=1e-12)


class TestSweepCommand:
    def test_vmf_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                               "--sweep", "kappa=0:3:31", "--out", str(out_path))
        assert code == 0
        assert err == ""
        lines = out_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["param", "a1", "a2", "Gamma", "alpha_plus",
                          "alpha_minus", "F_opt", "F_UC", "F_PCC_branch"]
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 31
        f_opt = [r[6] for r in rows]
        assert f_opt[0] == pytest.approx(5 / 6, abs=1e-9)
        assert all(b >= a - 1e-12 for a, b in zip(f_opt, f_opt[1:]))

    def test_tied_parameter_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "bro.csv"
        code, _, err = run_cli(capsys, "sweep", "--dist", "brosseau:P=0,mu=0",
                               "--sweep", "P,mu=0:0.9:10", "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[6]) == pytest.approx(5 / 6, abs=1e-9)

    def test_tied_sweep_to_full_polarization(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--dist", "brosseau:P=0,mu=0",
                                 "--sweep", "P,mu=0.5:0.999999:3")
        assert code == 0
        assert err == ""
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert all("nan" not in row for row in rows)
        last = list(map(float, rows[-1].split(",")))
        assert last[0] == 0.999999 and 0.9999 < last[1] < 1

    def test_full_polarization_envelope_dominates(self, capsys, tmp_path):
        # the fixed P ~ 1 curve lies above the depolarized-phase P = mu curve
        tied, envelope = tmp_path / "tied.csv", tmp_path / "env.csv"
        run_cli(capsys, "sweep", "--dist", "brosseau:P=0,mu=0",
                "--sweep", "P,mu=0:0.9:7", "--out", str(tied))
        run_cli(capsys, "sweep", "--dist", "brosseau:P=0.9999,mu=0",
                "--sweep", "mu=0:0.9:7", "--out", str(envelope))

        def f_opt_column(path):
            return [float(ln.split(",")[6])
                    for ln in path.read_text().strip().splitlines()[1:]]

        for low, high in zip(f_opt_column(tied), f_opt_column(envelope)):
            assert high >= low - 1e-12

    def test_failed_rows_are_nan_with_warning(self, capsys, tmp_path):
        out_path = tmp_path / "hg.csv"
        code, _, err = run_cli(capsys, "sweep", "--dist", "hg:h=0",
                               "--sweep", "h=0.8:1.0:3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        nan_rows = [ln for ln in lines[1:] if "nan" in ln]
        warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        assert len(nan_rows) == 1
        assert len(warnings) == 1

    def test_table_has_no_sweep_keys(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("-1.0,0.5\n1.0,0.5\n")
        code, out, err = run_cli(capsys, "sweep", "--dist", f"table:{path}",
                                 "--sweep", "xs=0:1:3")
        assert code == 1 and out == ""
        assert err == "error: cannot sweep 'xs' on table\n"

    def test_bad_sweep_spec(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                             "--sweep", "kappa=0:3")
        assert code == 1

    def test_grid_too_large_to_allocate(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                                 "--sweep", "kappa=0:1:100000000000000000000")
        assert (code, out) == (1, "")
        assert err == (f"error: sweep has 100000000000000000000 points, "
                       f"more than {cli._MAX_SWEEP_POINTS}\n")

    def test_point_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_SWEEP_POINTS", 4)
        code, out, _ = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                               "--sweep", "kappa=0:1:4")
        assert code == 0 and len(out.splitlines()) == 5
        code, out, _ = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                               "--sweep", "kappa=0:1:5")
        assert (code, out) == (1, "")

    def test_duplicate_key_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                                 "--sweep", "kappa,kappa=0:1:3")
        assert (code, out) == (1, "")
        assert err == "error: duplicate key 'kappa'\n"

    def test_format_mismatch_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                             "--sweep", "kappa=0:3:5", "--format", "json")
        assert code == 1
        code, _, _ = run_cli(capsys, "params", "--dist", "uniform",
                             "--format", "csv")
        assert code == 1

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.integers(2, 400))
    @example(0.0, 5e-324, 3)  # the step underflows to zero
    @example(5e-324, -5e-324, 7)
    @example(1.0, -2.5, 2)
    @example(-0.0, -3.0, 11)
    @example(0.0, 3.0, 301)
    def test_grid_is_numpy_linspace(self, start, stop, count):
        # the grid is built without numpy, bit for bit as np.linspace builds it
        if start == stop or not math.isfinite(stop - start):
            return
        _, grid = cli._parse_sweep(f"kappa={start!r}:{stop!r}:{count}",
                                   VonMisesFisher(kappa=0.0))
        # numpy's own last point may overflow before it is set to stop
        with np.errstate(over="ignore"):
            expected = np.linspace(start, stop, count)
        assert len(grid) == count
        for got, want in zip(grid, expected.tolist()):
            assert type(got) is float
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_sweep_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                    "--sweep", "kappa=0:2:9", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_uniform_small_sample(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dist", "uniform",
                               "--samples", "150", "--seed", "42")
        rep = json.loads(out)
        assert code == 0
        assert rep["distribution"] == "uniform"
        assert rep["n_samples"] == 450
        assert rep["max_sampled_F"] <= rep["F_opt"] + 1e-9
        assert abs(rep["F_upper"] - rep["F_opt"]) <= 1e-9
        assert abs(rep["dual_gap"]) <= 1e-9
        assert rep["dual_lambda_min"] >= -1e-9

    @pytest.mark.parametrize("spec", ["vmf:kappa=1e5", "hg:h=0.9999",
                                      "brosseau:P=0.999999,mu=0.999999"])
    def test_peaked_ensembles_certify(self, capsys, spec):
        code, out, _ = run_cli(capsys, "verify", "--dist", spec,
                               "--samples", "20")
        rep = json.loads(out)
        assert code == 0
        assert abs(rep["F_upper"] - rep["F_opt"]) <= 1e-9

    def test_verify_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--dist", "deltapair:theta=1.0472",
                             "--samples", "50", "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "--dist", "deltapair:theta=1.0472",
                             "--samples", "50", "--seed", "7")
        assert out1 == out2

    def test_rejects_bad_samples(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--dist", "uniform",
                             "--samples", "0")
        assert code == 1

    def test_rejects_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--dist", "uniform",
                                 "--samples", "5", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "--seed" in err

    def test_report_keys_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dist", "vmf:kappa=1",
                               "--samples", "20", "--seed", "3")
        rep = json.loads(out)
        assert code == 0
        assert list(rep) == ["distribution", "F_opt", "max_sampled_F",
                             "n_samples", "dual_gap", "dual_lambda_min",
                             "F_upper"]
        assert abs(rep["F_upper"] - rep["F_opt"]) <= 1e-9

    @pytest.mark.parametrize("where", ["in_support", "outside_support"])
    def test_broken_merit_fails_certificate(self, capsys, monkeypatch, where):
        # a merit operator the closed form is not optimal for must exit 3
        # even when no sampled map comes near F_opt: raising R on |000>
        # moves Tr Y, raising it on |1>|S-> (no cloner weight) moves lambda_min
        merit = choi_mod._merit
        if where == "in_support":
            bump = np.zeros((8, 8))
            bump[0, 0] = 1e-6
        else:
            b = block_basis()[:, 4]
            bump = 0.5 * np.outer(b, b)

        monkeypatch.setattr(choi_mod, "_merit",
                            lambda a1, a2: merit(a1, a2) + bump)
        code, out, _ = run_cli(capsys, "verify", "--dist", "uniform",
                               "--samples", "5")
        rep = json.loads(out)
        assert code == 3
        assert rep["max_sampled_F"] <= rep["F_opt"]
        assert rep["F_upper"] - rep["F_opt"] > 1e-9

    def test_builds_merit_once_through_build_merit(self, capsys, monkeypatch):
        # the certificate's R comes from build_merit, so a tracer that wraps
        # it sees the merit construction of every verify call
        calls = []
        build = choi_mod.build_merit
        monkeypatch.setattr(choi_mod, "build_merit",
                            lambda d: calls.append(d) or build(d))
        code, _, _ = run_cli(capsys, "verify", "--dist", "vmf:kappa=1.5",
                             "--samples", "5")
        assert code == 0
        assert calls == [VonMisesFisher(kappa=1.5)]


class TestCircuitCommand:
    def test_uniform_angles(self, capsys):
        code, out, _ = run_cli(capsys, "circuit", "--dist", "uniform")
        rep = json.loads(out)
        assert code == 0
        assert rep["omega"] == pytest.approx(2 * 0.6154797086703875, abs=1e-12)
        assert rep["Phi"] == pytest.approx(0.0, abs=1e-12)
        kinds = [g["kind"] for g in rep["gates"]]
        assert kinds == ["CRy", "Ry", "CH", "CNOT", "CNOT", "CNOT", "X"]

    def test_mirror_pair_is_uncontrolled(self, capsys):
        _, out, _ = run_cli(capsys, "circuit", "--dist", "deltapair:theta=1.0472")
        rep = json.loads(out)
        assert rep["Phi"] == 0.0

    def test_boundary_angles(self, capsys):
        _, out, _ = run_cli(capsys, "circuit", "--dist", "vmf:kappa=1")
        rep = json.loads(out)
        assert rep["omega"] == 0.0
        assert rep["Phi"] == pytest.approx(math.pi, abs=1e-12)

    def test_round_trip_of_embedded_spec(self, capsys):
        _, out, _ = run_cli(capsys, "circuit", "--dist", "belt:theta1=0.5,theta2=1.2")
        rep = json.loads(out)
        assert parse_dist(rep["distribution"]) == Belt(theta1=0.5, theta2=1.2)


@pytest.mark.parametrize("argv", [("circuit",), ("verify", "--samples", "5")])
def test_table_path_with_control_character_is_valid_json(capsys, tmp_path, argv):
    path = tmp_path / "a\tb.csv"
    path.write_text("-1.0,0.5\n1.0,0.5\n")
    code, out, _ = run_cli(capsys, argv[0], "--dist", f"table:{path}", *argv[1:])
    assert code == 0
    rep = json.loads(out)
    assert rep["distribution"] == f"table:{path}"
    assert parse_dist(rep["distribution"]) == parse_dist(f"table:{path}")


@pytest.mark.parametrize("errors", ["surrogateescape", "strict"])
@pytest.mark.parametrize("argv,to_file", [(("circuit",), False),
                                          (("verify", "--samples", "5"), False),
                                          (("circuit",), True)])
def test_table_path_that_is_not_utf8_is_valid_json(tmp_path, argv, to_file,
                                                   errors):
    # argv decodes the byte 0xff to the lone surrogate U+DCFF; the report
    # escapes it, so stdout (or the --out file) is valid UTF-8 and JSON
    # whichever error handler stdout has
    path = os.fsencode(tmp_path) + b"/a\xffb.csv"
    with open(path, "wb") as fh:
        fh.write(b"-1.0,0.5\n1.0,0.5\n")
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONIOENCODING=f"utf-8:{errors}")
    result = subprocess.run(
        [sys.executable, "-m", "axiclone.cli", argv[0],
         "--dist", b"table:" + path, *argv[1:],
         *(["--out", str(out)] if to_file else [])],
        env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    raw = out.read_bytes() if to_file else result.stdout
    rep = json.loads(raw.decode("utf-8"))
    assert rep["distribution"] == "table:" + os.fsdecode(path)


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [
    ("params", "--dist", "vmf:kappa=1.5"),
    ("sweep", "--dist", "vmf:kappa=0", "--sweep", "kappa=0:3:301")])
def test_closed_stdout_is_one_error_line(argv, unbuffered):
    # the reader is gone before the first byte is written: exit 1 with one
    # error line, no traceback, and nothing from the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    try:
        result = subprocess.run([sys.executable, "-m", "axiclone.cli", *argv],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env=env, timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr.decode() == (
        "error: stdout was closed before the output was written\n")


def _readme_commands() -> list[str]:
    """The ``axiclone ...`` lines of README's "Command line" block."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("axiclone ")]


# sha256 of each README example's output (stdout, or the --out file)
README_SHA256 = {
    "axiclone params --dist vmf:kappa=1.5":
        "375d2cf5fd351bab16139967d28d395d80780c58f681d5de9bc7d37ba4422f64",
    "axiclone sweep --dist vmf:kappa=0 --sweep kappa=0:3:301 --out sweep.csv":
        "1be7161179078c0a07384dcb268d3992d26075d84eecf97c82f4387a77ac2170",
    "axiclone sweep --dist brosseau:P=0,mu=0 --sweep P,mu=0:0.95:96 --out tied.csv":
        "31493586ae84ef978830e40ba5ecc489885ef8bcb4ff469b65242a13df7d823c",
    "axiclone simulate --dist uniform --theta 0.7 --phi 2.1":
        "1174fbaca346daccd19ba886a2d3e28814a8ae1f272387acb31362b70eb19b1a",
    "axiclone circuit --dist brosseau:P=0.8,mu=0.5":
        "906a4db2524125cf936b9409f8bd957b2a2677cb876ce3a541f1ebf47bdee1e4",
}
# verify's report; max_sampled_F depends on BLAS rounding and is checked
# to 1e-15, every other field exactly and in this order
README_VERIFY = {
    "axiclone verify --dist deltapair:theta=1.0472 --samples 10000 --seed 42": {
        "distribution": "deltapair:theta=1.0472",
        "F_opt": 0.83493126195043865,
        "max_sampled_F": 0.70739189978782702,
        "n_samples": 30000,
        "dual_gap": -1.1102230246251565e-16,
        "dual_lambda_min": -3.7133924407628527e-18,
        "F_upper": 0.83493126195043854,
    },
}


class TestReadmeExamples:
    def test_every_example_is_pinned(self):
        assert sorted(_readme_commands()) == sorted({**README_SHA256,
                                                     **README_VERIFY})

    @pytest.mark.parametrize("line", _readme_commands())
    def test_output_is_pinned(self, capsys, tmp_path, line):
        argv = shlex.split(line)[1:]
        out_file = None
        if "--out" in argv:
            i = argv.index("--out") + 1
            out_file = argv[i] = str(tmp_path / argv[i])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        if out_file is not None:
            assert out == ""
            out = Path(out_file).read_text(encoding="utf-8")
        if line in README_VERIFY:
            expected = dict(README_VERIFY[line])
            rep = json.loads(out)
            sampled = rep.pop("max_sampled_F")
            assert abs(sampled - expected.pop("max_sampled_F")) <= 1e-15
            assert list(rep.items()) == list(expected.items())
        else:
            assert hashlib.sha256(out.encode()).hexdigest() == README_SHA256[line]
