import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axiclone.dist import (FEASIBILITY_TOL, Brosseau, DeltaPair, MomentPair,
                           VonMisesFisher, moments, validate_moments)
from axiclone.errors import InfeasibleMomentsError
from axiclone.optimal import (Regime, UC_ALPHA, average_fidelity,
                              numeric_optimum, optimal_angles, pcc_params,
                              single_copy_fidelity, uc_params)
from axiclone import cli, dist, optimal
from conftest import (angle_params, random_distribution,
                      random_feasible_moments)
from oracles import (branch_search_angles, density, integrate_marginal,
                     vmf_kappa_threshold)

SQRT2 = math.sqrt(2.0)
PCC_EQUATOR_F = (4 + 2 * SQRT2) / 8


class TestGamma:
    def test_vanishes_with_a1(self):
        assert optimal_angles(MomentPair(0.0, 0.3)).gamma == 0.0

    def test_vmf_kappa_one(self):
        m = moments(VonMisesFisher(kappa=1.0))
        g = optimal_angles(m).gamma
        assert g == pytest.approx(-6.625545262083531, abs=1e-9)
        assert abs(g) > 1  # boundary cloner is optimal there

    def test_sign_preserved(self):
        assert optimal_angles(MomentPair(0.2, 0.0)).gamma < 0
        assert optimal_angles(MomentPair(-0.2, 0.0)).gamma > 0


class TestOptimalAngles:
    def test_uniform_recovers_state_independent_cloner(self):
        p = optimal_angles(MomentPair(0.0, 0.0))
        assert p.alpha_plus == pytest.approx(UC_ALPHA, abs=1e-12)
        assert p.alpha_minus == pytest.approx(UC_ALPHA, abs=1e-12)
        assert math.cos(p.alpha_plus) ** 2 == pytest.approx(2 / 3, abs=1e-10)
        assert p.regime is Regime.INTERIOR

    def test_equatorial_degenerate_limit(self):
        p = optimal_angles(MomentPair(0.0, -0.5))
        assert p.alpha_plus == pytest.approx(math.pi / 4, abs=1e-12)
        assert p.alpha_minus == pytest.approx(math.pi / 4, abs=1e-12)
        assert p.omega_value == pytest.approx(1.0, abs=1e-12)
        assert p.gamma == 0.0

    @pytest.mark.parametrize("m,regime", [
        (MomentPair(0.3, -0.05), Regime.PCC_UPPER),      # x- = 0
        (MomentPair(-0.2, -0.2), Regime.PCC_LOWER),      # x+ = 0
        (MomentPair(1e-6, -0.4999985), Regime.PCC_UPPER),
    ])
    def test_vanishing_x_factor_off_the_equator_is_boundary(self, m, regime):
        # E[x^2] = |E[x]| (a pole plus the equator) sends |Gamma| to infinity
        p = optimal_angles(m)
        assert p.regime is regime
        assert average_fidelity(m, p) >= numeric_optimum(m)[2] - 1e-12

    def test_vmf_kappa_one_is_upper_boundary(self):
        p = optimal_angles(moments(VonMisesFisher(kappa=1.0)))
        assert p.regime is Regime.PCC_UPPER
        assert p.alpha_plus == 0.0
        assert p.alpha_minus == math.pi / 2

    def test_negative_kappa_mirrors_to_lower(self):
        p = optimal_angles(moments(VonMisesFisher(kappa=-1.0)))
        assert p.regime is Regime.PCC_LOWER

    def test_pole_deltas_clone_their_pole_exactly(self):
        up = optimal_angles(MomentPair(1.0, 1.0))
        assert up.regime is Regime.PCC_UPPER
        assert single_copy_fidelity(0.0, up) == pytest.approx(1.0, abs=1e-14)
        down = optimal_angles(MomentPair(-1.0, 1.0))
        assert down.regime is Regime.PCC_LOWER
        assert single_copy_fidelity(math.pi, down) == pytest.approx(1.0, abs=1e-14)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleMomentsError):
            optimal_angles(MomentPair(0.9, -0.5))

    @pytest.mark.parametrize("m", [MomentPair(1.0, 1.0 + 1e-12),
                                   MomentPair(-1.0, 1.0 + 1e-13)])
    def test_just_above_a_pole_is_the_pole_cloner(self, m):
        # just above a pole, inside the feasibility tolerance, |Gamma| is
        # sqrt(2)/2 and no arcsin branch puts both angles in [0, pi/2]; the
        # pair is that pole up to the tolerance
        p = optimal_angles(m)
        assert _fields(p) == _fields(_pole_cloner(m))
        assert average_fidelity(m, p) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pole_neighbourhood_grid(self, sign):
        # 25 x 25 pairs within the feasibility tolerance of a pole; the
        # interior formulas fail on most of them, and those get the pole's
        # cloner with its diagnostics, while the rest keep the branch
        # search's answer bit for bit
        pole = _pole_cloner((sign, 1.0))
        for i in range(-12, 13):
            for j in range(-12, 13):
                m = MomentPair(sign * (1 + i * 1e-13), 1 + j * 1e-12)
                p = optimal_angles(m)
                assert abs(average_fidelity(m, p) - 1) <= 1e-9
                want = _outcome(branch_search_angles, m)
                if want in (AssertionError, InfeasibleMomentsError):
                    want = _fields(_pole_cloner(m))
                assert _fields(p) == want
                if m.a2 == 1.0 and abs(m.a1) < 1:
                    # a mixture of both poles: the interior optimum is the
                    # Z-basis copier (0, 0), which ties at F = 1
                    assert (p.regime, p.alpha_plus, p.alpha_minus) == (
                        Regime.INTERIOR, 0.0, 0.0)
                else:
                    assert (p.regime, p.alpha_plus, p.alpha_minus) == (
                        pole.regime, pole.alpha_plus, pole.alpha_minus)

    def test_interior_invariant_sin_sum_equals_omega(self, rng):
        seen = 0
        while seen < 50:
            m = random_feasible_moments(rng)
            p = optimal_angles(m)
            if p.regime is not Regime.INTERIOR:
                continue
            seen += 1
            assert abs(p.gamma) < 1
            assert math.sin(p.alpha_plus + p.alpha_minus) == pytest.approx(
                p.omega_value, abs=1e-12)

    def test_boundary_regimes_have_large_gamma(self, rng):
        seen = 0
        while seen < 25:
            m = random_feasible_moments(rng)
            p = optimal_angles(m)
            if p.regime is Regime.INTERIOR:
                continue
            seen += 1
            assert abs(p.gamma) >= 1


class TestSingleCopyFidelity:
    def test_upper_boundary_copies_the_pole(self):
        assert single_copy_fidelity(0.0, pcc_params(True)) == pytest.approx(1.0)

    def test_state_independent_cloner_is_flat(self):
        p = uc_params()
        for theta in np.linspace(0, math.pi, 17):
            assert single_copy_fidelity(float(theta), p) == pytest.approx(5 / 6, abs=1e-12)

    def test_equatorial_value(self):
        p = optimal_angles(MomentPair(0.0, -0.5))
        assert single_copy_fidelity(math.pi / 2, p) == pytest.approx(
            PCC_EQUATOR_F, abs=1e-12)

    def test_boundary_matches_quarter_wave_form(self):
        # the upper boundary cloner's fidelity curve in closed trigonometric form
        p = pcc_params(True)
        for theta in np.linspace(0, math.pi, 13):
            expected = (5 + SQRT2 + 2 * math.cos(theta)
                        - (SQRT2 - 1) * math.cos(2 * theta)) / 8
            assert single_copy_fidelity(float(theta), p) == pytest.approx(
                expected, abs=1e-12)

    def test_range(self, rng):
        for _ in range(40):
            ap, am = rng.uniform(0, math.pi / 2, 2)
            p = angle_params(float(ap), float(am))
            for theta in np.linspace(0, math.pi, 21):
                f = single_copy_fidelity(float(theta), p)
                assert 0.5 - 1e-12 <= f <= 1 + 1e-12


class TestAverageFidelity:
    def test_uniform_with_uc_angles(self):
        assert average_fidelity(MomentPair(0, 0), uc_params()) == pytest.approx(
            5 / 6, abs=1e-14)

    def test_equator_with_quarter_angles(self):
        p = optimal_angles(MomentPair(0.0, -0.5))
        assert average_fidelity(MomentPair(0.0, -0.5), p) == pytest.approx(
            PCC_EQUATOR_F, abs=1e-12)

    def test_mirror_pair_matches_single_copy_closed_form(self):
        # two mirror rings at +-cos(vartheta): the ensemble average equals the
        # pointwise fidelity there, and the optimum has the mirror form
        # (1 + L^2)/2 - sin^2(theta) (L^2 - sqrt(2) L Lbar)/2 with L = cos(alpha)
        for vartheta in (math.pi / 6, math.pi / 3, 1.2):
            m = moments(DeltaPair(theta=vartheta))
            p = optimal_angles(m)
            assert p.alpha_plus == pytest.approx(p.alpha_minus, abs=1e-12)
            lam = math.cos(p.alpha_plus)
            lbar = math.sin(p.alpha_plus)
            expected = (1 + lam ** 2) / 2 - 0.5 * math.sin(vartheta) ** 2 * (
                lam ** 2 - lam * lbar * SQRT2)
            assert average_fidelity(m, p) == pytest.approx(expected, abs=1e-10)

    def test_moment_reduction_equals_direct_quadrature(self, rng):
        for _ in range(50):
            dist = random_distribution(rng, density_only=True)
            m = moments(dist)
            ap, am = rng.uniform(0, math.pi / 2, 2)
            p = angle_params(float(ap), float(am))

            def integrand(x):
                thetas = np.arccos(np.clip(x, -1, 1))
                vals = np.array([single_copy_fidelity(float(t), p) for t in thetas])
                return density(dist, x) * vals

            direct = float(integrate_marginal(dist, integrand, tol=1e-11))
            assert average_fidelity(m, p) == pytest.approx(direct, abs=1e-9)

    def test_optimum_dominates_reference_cloners(self, rng):
        for _ in range(60):
            m = random_feasible_moments(rng)
            best = average_fidelity(m, optimal_angles(m))
            reference = max(
                average_fidelity(m, uc_params()),
                average_fidelity(m, pcc_params(True)),
                average_fidelity(m, pcc_params(False)))
            assert best >= reference - 1e-12

    def test_range(self, rng):
        for _ in range(60):
            m = random_feasible_moments(rng)
            f = average_fidelity(m, optimal_angles(m))
            assert 0.5 - 1e-12 <= f <= 1 + 1e-12


class TestNumericOptimum:
    def test_uniform(self):
        _, _, f = numeric_optimum(MomentPair(0.0, 0.0))
        assert f == pytest.approx(5 / 6, abs=1e-9)

    def test_equator(self):
        _, _, f = numeric_optimum(MomentPair(0.0, -0.5))
        assert f == pytest.approx(PCC_EQUATOR_F, abs=1e-9)

    def test_vmf_low_concentration_matches_closed_form(self):
        m = moments(VonMisesFisher(kappa=0.2))
        _, _, f = numeric_optimum(m)
        assert f == pytest.approx(average_fidelity(m, optimal_angles(m)), abs=1e-8)

    def test_oracle_equivalence_on_random_moments(self, rng):
        for _ in range(200):
            m = random_feasible_moments(rng)
            closed = average_fidelity(m, optimal_angles(m))
            _, _, oracle = numeric_optimum(m)
            assert abs(closed - oracle) <= 1e-7

    @settings(max_examples=50, deadline=None)
    @given(a1=st.one_of(st.sampled_from([0.0, -1.0, 1.0]),
                        st.floats(-1.0, 1.0)),
           t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    def test_closed_form_is_optimal_on_feasible_region(self, a1, t):
        # t = 0 is the variance bound (3 a1^2 - 1)/2, t = 1 is a2 = 1
        low = (3 * a1 * a1 - 1) / 2
        m = MomentPair(a1, low + t * (1.0 - low))
        p = optimal_angles(m)
        assert 0.0 <= p.alpha_plus <= math.pi / 2
        assert 0.0 <= p.alpha_minus <= math.pi / 2
        assert average_fidelity(m, p) >= numeric_optimum(m)[2] - 1e-12


class TestBranchStructure:
    def test_threshold_location(self):
        assert vmf_kappa_threshold() == pytest.approx(0.3305, abs=5e-4)

    def test_no_jump_between_branches_at_threshold(self):
        # at the threshold the interior solution reaches the boundary corner,
        # so the two branch formulas agree there (one-sided limits coincide)
        kappa = vmf_kappa_threshold()
        m = moments(VonMisesFisher(kappa=kappa))
        interior = optimal_angles(MomentPair(m.a1 * (1 - 1e-12), m.a2))
        assert interior.regime is Regime.INTERIOR
        f_interior = average_fidelity(m, interior)
        f_boundary = average_fidelity(m, pcc_params(True))
        assert abs(f_interior - f_boundary) <= 1e-6

    def test_fidelity_continuity_across_threshold(self):
        kappa = vmf_kappa_threshold()
        step = 1e-4
        f = []
        for k in (kappa - step, kappa + step):
            m = moments(VonMisesFisher(kappa=k))
            f.append(average_fidelity(m, optimal_angles(m)))
        # the smooth slope dominates this difference; it bounds the jump
        assert abs(f[1] - f[0]) <= 5e-5

    def test_regime_switch_sides(self):
        kappa = vmf_kappa_threshold()
        below = optimal_angles(moments(VonMisesFisher(kappa=kappa - 1e-3)))
        above = optimal_angles(moments(VonMisesFisher(kappa=kappa + 1e-3)))
        assert below.regime is Regime.INTERIOR
        assert above.regime is Regime.PCC_UPPER


class TestBrosseauRegimes:
    def test_strong_polarization_hits_boundary(self):
        p = optimal_angles(moments(Brosseau(P=0.8, mu=0.5)))
        assert p.regime is Regime.PCC_UPPER


def _on_line(where: str, a1: float, t: float) -> MomentPair:
    """A moment pair at a1 on one of the lines where the branch choice turns."""
    low = (3 * a1 * a1 - 1) / 2  # variance bound
    line = (3 * abs(a1) - 1) / 2  # x+ x- = 0: 1 + 2 a2 = 3 |a1|
    return MomentPair(a1, {
        "region": low + t * (1.0 - low), "variance": low, "top": 1.0,
        "line": line, "line+": line + 1e-12, "line-": line - 1e-12,
    }[where])


_BRANCH_MOMENTS = st.one_of(
    st.sampled_from([MomentPair(0.0, -0.5), MomentPair(1.0, 1.0),
                     MomentPair(-1.0, 1.0), MomentPair(0.0, 0.0)]),
    st.builds(
        _on_line,
        st.sampled_from(["region", "variance", "top", "line", "line+",
                         "line-"]),
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5,
                                   1 / 3, -1 / 3]),
                  st.floats(-1e-6, 1e-6), st.floats(-1.0, 1.0)),
        st.floats(0.0, 1.0)),
)


def _fields(p):
    """A cloner's fields as exact bit patterns."""
    return (p.alpha_plus.hex(), p.alpha_minus.hex(), p.gamma.hex(),
            p.omega_value.hex(), p.regime)


def _outcome(angles, m):
    """A cloner's fields as exact bit patterns, or the type of its error."""
    try:
        p = angles(m)
    except (InfeasibleMomentsError, AssertionError) as exc:
        return type(exc)
    return _fields(p)


def _pole_cloner(m) -> optimal.ClonerParams:
    """The boundary cloner of the pole on the side of a1, as at the pole."""
    return optimal._boundary(m[0] > 0, math.copysign(SQRT2, m[0]), math.nan)


def _near_pole(m) -> bool:
    """A feasible pair within the feasibility tolerance of (+-1, 1)."""
    a1, a2 = m
    return (validate_moments(m) and abs(abs(a1) - 1) <= FEASIBILITY_TOL
            and abs(a2 - 1) <= FEASIBILITY_TOL)


def _sweep_pcc_column(m: MomentPair) -> float:
    """``F_PCC_branch`` of a sweep row whose ensemble has the moments m."""
    out = io.StringIO()
    with (contextlib.redirect_stdout(out),
          pytest.MonkeyPatch.context() as patch):
        patch.setattr(dist, "moments", lambda d: m)
        code = cli.main(["sweep", "--dist", "delta:theta=0",
                         "--sweep", "theta=0:1:2"])
    assert code == 0
    return float(out.getvalue().splitlines()[1].split(",")[-1])


class TestBranchChoice:
    @settings(max_examples=300, deadline=None)
    @given(m=_BRANCH_MOMENTS,
           b=st.floats(0.0, math.pi / 2), d=st.floats(-math.pi / 2, math.pi / 2))
    def test_closed_form_choice_equals_branch_search(self, m, b, d):
        got = _outcome(optimal_angles, m)
        want = _outcome(branch_search_angles, m)
        # where no candidate is in range the search stops at its assert,
        # and the closed form raises instead; within the feasibility
        # tolerance of a pole, where the search fails, it returns that
        # pole's cloner
        if want in (AssertionError, InfeasibleMomentsError) and _near_pole(m):
            want = _fields(_pole_cloner(m))
        assert got == (InfeasibleMomentsError if want is AssertionError
                       else want)

        a1, a2 = m
        m2 = (2 * a2 + 1) / 3
        upper = average_fidelity(m, pcc_params(True))
        lower = average_fidelity(m, pcc_params(False))
        # the upper boundary cloner wins exactly when a1 >= 0
        assert abs((upper - lower) - a1 / 2) <= 1e-15

        def fidelity(ap, am):
            return optimal._fidelity(m, ap, am, math.cos, math.sin)

        pairs = [(b, d)]
        if got is not InfeasibleMomentsError:
            p = optimal_angles(m)
            assert _sweep_pcc_column(m) == max(upper, lower)
            if p.regime is Regime.INTERIOR and abs(p.gamma) < 1:
                pairs.append((math.asin(min(p.omega_value, 1.0)),
                              math.asin(p.gamma)))
        for b, d in pairs:
            # the principal arcsin branch beats the pi - b one by a
            # non-negative amount
            gap = (fidelity((b + d) / 2, (b - d) / 2)
                   - fidelity((math.pi - b + d) / 2, (math.pi - b - d) / 2))
            assert abs(gap - m2 * math.cos(b) * math.cos(d) / 2) <= 1e-15
