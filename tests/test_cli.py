import json
import math
import os
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
from axiclone.errors import CloneError, ParseError, UnsupportedKindError
from axiclone.optimal import optimal_angles, pcc_params, uc_params

from conftest import KIND_STRATEGIES, random_distribution
from oracles import block_basis, fidelity_reference, mp_optimum
from readme_examples import (README_SHA256, README_VERIFY, fault,
                             readme_commands)

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

    @pytest.mark.parametrize("spec, message", [
        ("", "empty distribution spec (at position 0)"),
        ("table:", "table needs a file path (at position 6)"),
        ("vmf:kappa", "expected key=value, got 'kappa' (at position 4)"),
        ("vmf:kappa=1,kappa=2", "duplicate key 'kappa' (at position 12)"),
        ("vmf:", "trailing colon without parameters (at position 3)"),
    ])
    def test_malformed_spec_names_the_fault(self, spec, message):
        with pytest.raises(ParseError) as err:
            parse_dist(spec)
        assert str(err.value) == message


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


def _json_reading(s: str) -> str:
    """``s`` as JSON reads it back from its escapes.

    A lone high surrogate followed by a lone low one is written as two
    \\uXXXX escapes, which JSON reads as one surrogate pair: no JSON text
    gives back such a string.  Every other string reads back unchanged.
    """
    return s.encode("utf-16-le", "surrogatepass").decode("utf-16-le",
                                                         "surrogatepass")


class TestRenderJson:
    def test_seventeen_digit_floats(self):
        assert render_json({"x": 5 / 6}) == '{\n  "x": 0.83333333333333337\n}'

    def test_nested_and_specials(self):
        text = render_json({"a": [1.0, float("nan")], "b": None, "c": True})
        assert "NaN" in text and "null" in text and "true" in text

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    @example("\ud800\udc00")
    def test_any_string_parses_back(self, s):
        # control characters, quotes and backslashes are escaped; other
        # characters, non-ASCII included, are written as they are
        t = _json_reading(s)
        assert json.loads(render_json(s)) == t
        assert json.loads(render_json({s: [s]})) == {t: [t]}

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters()
                   | st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF,
                                   categories=["Cs"])))
    @example("\ud800\udc00")
    def test_lone_surrogates_are_escaped(self, s):
        # argv decodes a byte that is not UTF-8 to U+DC80..U+DCFF; it is
        # written as its \udcXX escape, so the output is UTF-8; any other
        # string is written exactly as json.dumps(ensure_ascii=False) does
        text = render_json(s)
        text.encode("utf-8")
        assert json.loads(text) == _json_reading(s)
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

    def test_table_with_blank_lines_before_its_header(self, capsys, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("cos_theta,g\n-1.0,0.5\n0.0,0.5\n1.0,0.5\n")
        lead = tmp_path / "lead.csv"
        lead.write_text("\n" + plain.read_text())
        _, expected, _ = run_cli(capsys, "params", "--dist", f"table:{plain}")
        code, out, err = run_cli(capsys, "params", "--dist", f"table:{lead}")
        assert (code, out, err) == (0, expected, "")
        assert json.loads(out)["a1"] == 0

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

    @pytest.mark.parametrize("rows", ["-1.0,0.5\n0.0,0.5\n1.0,0.5\n",
                                      "-1.0,2.0\n0.0,0.0\n1.0,0.0\n",
                                      "cos_theta,g\n-1.0,0.5\n1.0,0.5\n"])
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, rows):
        # Excel writes a UTF-8 byte-order mark; row 1 is still read as data
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows, encoding="utf-8")
        marked.write_text(rows, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        _, expected, _ = run_cli(capsys, "params", "--dist", f"table:{plain}")
        code, out, err = run_cli(capsys, "params", "--dist", f"table:{marked}")
        assert (code, out, err) == (0, expected, "")

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

    @pytest.mark.parametrize("spec, shown", [
        # mu ** 2 would overflow; both squares would underflow to zero
        ("brosseau:P=0.5,mu=1e200", "P=0.5, mu=1e+200"),
        ("brosseau:P=1e-200,mu=2e-200", "P=1e-200, mu=2e-200"),
    ])
    def test_mu_beyond_P_is_a_parse_error(self, capsys, spec, shown):
        code, out, err = run_cli(capsys, "params", "--dist", spec)
        assert (code, out) == (1, "")
        assert err == ("error: invalid parameters for brosseau: "
                       f"require |mu| <= P, got {shown}\n")

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
        for out in (str(tmp_path / "missing" / "x.json"), ""):
            code, stdout, err = run_cli(capsys, command, "--dist", "vmf:kappa=1",
                                        *_COMMAND_ARGS[command], "--out", out)
            assert (code, stdout) == (1, "")
            assert err == (f"error: cannot write {out!r}: "
                           "No such file or directory\n")

    @pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
    def test_file_holds_the_bytes_stdout_gets(self, capsys, tmp_path, command):
        argv = [command, "--dist", "vmf:kappa=1", *_COMMAND_ARGS[command]]
        out = tmp_path / "out"
        _, stdout, _ = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == stdout.encode()

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


def _seeded_sweeps(rng):
    """(base spec, sweep key, start, stop, points) over every sweepable kind.

    The tied Brosseau grid runs to P = mu = 0.999999; the hg and delta grids
    end past their domains, so their last rows warn.
    """
    sweeps = [("brosseau:P=0,mu=0", "P,mu", 0.0, 0.999999, 301),
              ("hg:h=0", "h", 0.5, 1.2, 15),
              ("delta:theta=0", "theta", 0.0, math.pi + 0.5, 41)]
    for _ in range(3):
        n = int(rng.integers(2, 80))
        t1 = float(rng.uniform(0.0, 2.5))
        sweeps += [
            ("vmf:kappa=0", "kappa", -rng.uniform(0.0, 20.0),
             10 ** rng.uniform(0.0, 4.0), n),
            ("hg:h=0", "h", -rng.uniform(0.5, 0.9999), rng.uniform(0.5, 0.9999), n),
            (f"belt:theta1={t1!r},theta2={math.pi!r}", "theta2", t1 + 0.01,
             math.pi, n),
            ("delta:theta=0", "theta", rng.uniform(0.0, 0.5),
             rng.uniform(math.pi - 0.5, math.pi), n),
            ("deltapair:theta=0", "theta", rng.uniform(0.0, 0.5),
             rng.uniform(math.pi - 0.5, math.pi), n),
            ("brosseau:P=0,mu=0", "P,mu", 0.0, rng.uniform(0.9, 0.9999), n),
            ("brosseau:P=0.9,mu=0", "mu", -0.9, rng.uniform(0.0, 0.9), n),
        ]
    return sweeps


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

    def test_rows_equal_the_reference_formula(self, capsys):
        # each row's fidelities are the one-expression formula of the
        # oracles at F_opt's, the universal and the branch's boundary cloner
        uc = uc_params()
        warned = 0
        for base, key, start, stop, n in _seeded_sweeps(np.random.default_rng(29)):
            start, stop = float(start), float(stop)
            code, out, err = run_cli(capsys, "sweep", "--dist", base,
                                     "--sweep", f"{key}={start!r}:{stop!r}:{n}")
            assert code == 0
            keys = key.split(",")
            want = []
            for value in np.linspace(start, stop, n).tolist():
                try:
                    m = dist_mod.moments(parse_dist(base).with_(
                        **dict.fromkeys(keys, value)))
                    p = optimal_angles(m)
                except CloneError:
                    want.append(cli._csv_row((value,) + (math.nan,) * 8))
                    continue
                fids = [fidelity_reference(m, c.alpha_plus, c.alpha_minus)
                        for c in (p, uc, pcc_params(m.a1 >= 0))]
                want.append(cli._csv_row((value, m.a1, m.a2, p.gamma,
                                          p.alpha_plus, p.alpha_minus, *fids)))
            assert out.splitlines()[1:] == want, (base, key)
            nan_rows = sum("nan" in row for row in want)
            assert len(err.splitlines()) == nan_rows
            warned += nan_rows
        assert warned > 0

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

    def test_mu_beyond_P_at_any_magnitude_is_a_nan_row(self, capsys):
        # mu ** 2 would overflow at the first two points; the grid still runs
        code, out, err = run_cli(capsys, "sweep", "--dist", "brosseau:P=0.5,mu=0",
                                 "--sweep", "mu=-1e300:0.25:3")
        assert code == 0
        rows = out.splitlines()[1:]
        nan_row = ",".join(["nan"] * 8)
        assert [row.split(",", 1)[1] for row in rows[:2]] == [nan_row, nan_row]
        assert "nan" not in rows[2]
        assert err.splitlines() == [
            "warning: mu=-1.0000000000000001e+300: require |mu| <= P, "
            "got P=0.5, mu=-1e+300",
            "warning: mu=-5.0000000000000003e+299: require |mu| <= P, "
            "got P=0.5, mu=-5e+299"]

    @pytest.mark.parametrize("dist, sweep, index, row", [
        # Gamma = +inf where x+ x- = 0
        ("hg:h=0", "h=0.25:0.75:3", 1,
         "0.5,0.5,0.25,Infinity,0,1.5707963267948966,0.92677669529663687,"
         "0.83333333333333326,0.92677669529663687"),
        # a -0.0 start prints as 0
        ("vmf:kappa=0", "kappa=-0.0:-5:7", 0,
         "0,0,0,0,0.61547970867038748,0.61547970867038748,0.83333333333333326,"
         "0.83333333333333326,0.81903559372884915"),
    ])
    def test_special_rows_are_pinned(self, capsys, dist, sweep, index, row):
        code, out, err = run_cli(capsys, "sweep", "--dist", dist, "--sweep", sweep)
        assert (code, err) == (0, "")
        assert out.splitlines()[1 + index] == row

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                         -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                         1.7976931348623157e308]),
        st.floats(), st.floats(allow_subnormal=True, max_value=1e-300,
                               min_value=-1e-300)),
        min_size=9, max_size=9))
    def test_csv_row_renders_as_fmt(self, row):
        expected = ",".join(cli._fmt(v).replace("NaN", "nan") for v in row)
        assert cli._csv_row(row) == expected

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

    @pytest.mark.parametrize("sweep, message", [
        ("kappa", "sweep must look like key=start:stop:n, got 'kappa'"),
        ("kappa=0:1:x", "bad sweep grid '0:1:x'"),
        ("kappa=0:1:1", "sweep needs at least 2 points"),
        ("kappa=1:1:3", "sweep start and stop must differ"),
        (",=0:1:3", "sweep needs a parameter name"),
    ])
    def test_malformed_sweep_names_the_fault(self, capsys, sweep, message):
        code, out, err = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                                 "--sweep", sweep)
        assert (code, out, err) == (1, "", f"error: {message}\n")

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


# A table whose moments lie 1.4e-13 from the upper pole, where x+ x- and
# Omega's radicand formed from the moments keep few correct digits: the
# cloner built from them is 1.9e-7 short, and verify's lambda_min -1.9e-7.
_NEAR_POLE_TABLE = """\
-0.6799140883747451,0.0
-0.6699140883747451,7.352772665910357e-12
-0.6599140883747451,0.0
0.9999999999999408,0.0
1.0,33803687948268.832
"""


class TestNearPoleTable:
    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "near_pole.csv"
        path.write_text(_NEAR_POLE_TABLE, encoding="utf-8")
        return f"table:{path}"

    def test_params_reaches_the_50_digit_optimum(self, capsys, spec):
        code, out, _ = run_cli(capsys, "params", "--dist", spec)
        assert code == 0
        m = dist_mod.moments(parse_dist(spec))
        assert 1 - m.a1 < 1e-12
        assert abs(json.loads(out)["F_avg"] - mp_optimum(m)) <= 1e-13

    def test_verify_certifies_it(self, capsys, spec):
        code, out, _ = run_cli(capsys, "verify", "--dist", spec,
                               "--samples", "100")
        rep = json.loads(out)
        assert code == 0
        assert abs(rep["F_upper"] - rep["F_opt"]) <= 1e-9
        assert rep["dual_lambda_min"] >= -1e-9


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


def test_reused_parser_keeps_calls_independent(capsys, tmp_path):
    # main builds its parser once per process; no parse, failed or not,
    # may leave anything in it that changes a later call
    out = tmp_path / "sweep.csv"
    calls = [
        ["params", "--dist", "vmf:kappa=1.5"],
        ["sweep", "--dist", "hg:h=0", "--sweep", "h=0.25:0.75:3",
         "--out", str(out)],
        ["simulate", "--dist", "uniform", "--theta", "0.7", "--phi", "x"],
        ["verify", "--dist", "uniform", "--samples", "50"],
        ["params", "--dist", "vmf:kappa=1.5"],
    ]

    def run(argv):
        code, stdout, stderr = run_cli(capsys, *argv)
        return code, stdout, stderr, out.read_text() if "--out" in argv else None

    cli._build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert reused[0] == reused[4]
    assert [r[0] for r in reused] == [0, 0, 1, 0, 0]
    assert reused[2][2] == "error: argument --phi: bad number 'x'\n"


class TestReadmeExamples:
    def test_every_example_is_pinned(self):
        assert sorted(readme_commands()) == sorted({**README_SHA256,
                                                    **README_VERIFY})

    @pytest.mark.parametrize("line", readme_commands())
    def test_output_is_pinned(self, line):
        # the scalar lines run under -S with only src/ on the path, so no
        # installed package, numpy included, can reach them
        flags = [] if line in README_VERIFY else ["-S"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        why = fault(line, [sys.executable, *flags, "-m", "axiclone.cli"], env)
        assert why is None, why
