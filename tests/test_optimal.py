import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axiclone import (Brosseau, DegenerateDenominatorError, DeltaPair,
                      InfeasibleMomentsError, MomentPair, Regime, UC_ALPHA,
                      VonMisesFisher, average_fidelity, fidelity_from_angles,
                      gamma, moments, numeric_optimum, optimal_angles,
                      pcc_params, single_copy_fidelity, uc_params)
from axiclone.dist import integrate_marginal

from conftest import random_distribution, random_feasible_moments
from oracles import vmf_kappa_threshold

SQRT2 = math.sqrt(2.0)
PCC_EQUATOR_F = (4 + 2 * SQRT2) / 8


class TestGamma:
    def test_vanishes_with_a1(self):
        assert gamma(MomentPair(0.0, 0.3)) == 0.0

    def test_vmf_kappa_one(self):
        m = moments(VonMisesFisher(kappa=1.0))
        g = gamma(m)
        assert g == pytest.approx(-6.625545262083531, abs=1e-9)
        assert abs(g) > 1  # boundary cloner is optimal there

    def test_degenerate_denominator_signal(self):
        with pytest.raises(DegenerateDenominatorError):
            gamma(MomentPair(0.0, -0.5))

    def test_sign_preserved(self):
        assert gamma(MomentPair(0.2, 0.0)) < 0
        assert gamma(MomentPair(-0.2, 0.0)) > 0


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

    def test_interior_invariant_sin_sum_equals_omega(self, rng):
        seen = 0
        while seen < 50:
            m = random_feasible_moments(rng)
            p = optimal_angles(m)
            if p.regime is not Regime.INTERIOR:
                continue
            seen += 1
            assert abs(p.gamma) < 1
            assert math.sin(p.alpha_sum) == pytest.approx(p.omega_value, abs=1e-12)

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
            from axiclone import ClonerParams
            p = ClonerParams.from_angles(float(ap), float(am))
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
            from axiclone import ClonerParams
            p = ClonerParams.from_angles(float(ap), float(am))

            def integrand(x):
                thetas = np.arccos(np.clip(x, -1, 1))
                vals = np.array([single_copy_fidelity(float(t), p) for t in thetas])
                return dist.density(x) * vals

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
