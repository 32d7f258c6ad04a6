import json
import math

import numpy as np
import pytest

from axiclone import Belt, Brosseau, Delta, DeltaPair, HenyeyGreenstein, Uniform, VonMisesFisher
from axiclone import choi as choi_mod
from axiclone import dist as dist_mod
from axiclone.cli import main, parse_dist, render_json
from axiclone.dist import spec_string
from axiclone.errors import ParseError

SQRT2 = math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_round_trip_all_kinds(self):
        dists = [Uniform(), VonMisesFisher(kappa=2.25), Brosseau(P=0.7, mu=-0.3),
                 HenyeyGreenstein(h=-0.55), Delta(theta=0.4),
                 DeltaPair(theta=2.2), Belt(theta1=0.1, theta2=3.0)]
        for d in dists:
            assert parse_dist(spec_string(d)) == d

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


class TestRenderJson:
    def test_seventeen_digit_floats(self):
        assert render_json({"x": 5 / 6}) == '{\n  "x": 0.83333333333333337\n}'

    def test_nested_and_specials(self):
        text = render_json({"a": [1.0, float("nan")], "b": None, "c": True})
        assert "NaN" in text and "null" in text and "true" in text


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

    def test_bad_sweep_spec(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                             "--sweep", "kappa=0:3")
        assert code == 1

    def test_format_mismatch_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--dist", "vmf:kappa=0",
                             "--sweep", "kappa=0:3:5", "--format", "json")
        assert code == 1
        code, _, _ = run_cli(capsys, "params", "--dist", "uniform",
                             "--format", "csv")
        assert code == 1

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

    def test_changed_seeding_is_numeric_error(self, capsys, monkeypatch):
        # a derivation that no longer matches numpy's PCG64 seeding must
        # stop the sweep instead of drawing other samples
        monkeypatch.setattr(choi_mod, "_MULT_A", choi_mod._MULT_A ^ 1)
        code, out, err = run_cli(capsys, "verify", "--dist", "uniform",
                                 "--samples", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("numeric error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["in_support", "outside_support"])
    def test_broken_merit_fails_certificate(self, capsys, monkeypatch, where):
        # a merit operator the closed form is not optimal for must exit 3
        # even when no sampled map comes near F_opt: raising R on |000>
        # moves Tr Y, raising it on |1>|S-> (no cloner weight) moves lambda_min
        build = choi_mod.build_merit
        if where == "in_support":
            bump = np.zeros((8, 8))
            bump[0, 0] = 1e-6
        else:
            b = choi_mod.block_basis()[:, 4]
            bump = 0.5 * np.outer(b, b)

        monkeypatch.setattr(choi_mod, "build_merit",
                            lambda dist: build(dist) + bump)
        code, out, _ = run_cli(capsys, "verify", "--dist", "uniform",
                               "--samples", "5")
        rep = json.loads(out)
        assert code == 3
        assert rep["max_sampled_F"] <= rep["F_opt"]
        assert rep["F_upper"] - rep["F_opt"] > 1e-9


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
