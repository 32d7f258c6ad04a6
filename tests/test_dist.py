import math

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

import axiclone.dist as dist_mod
from axiclone.dist import (Belt, Brosseau, Delta, DeltaPair, HenyeyGreenstein,
                           Tabulated, Uniform, VonMisesFisher, load_tabulated,
                           moments, validate_moments)
from axiclone.errors import DomainError, UnsupportedKindError

from conftest import random_distribution
from oracles import (QuadratureError, marginal_density, normalization_integral,
                     quadrature_moments)


def simpson_brosseau_moments(P, mu, npts=1_000_001):
    """Independent fixed-grid oracle for (a1, a2): composite Simpson on 1e6
    points over the marginal written out in its naive expanded form."""
    x = np.linspace(-1.0, 1.0, npts)
    q = 1 + mu ** 2 - P ** 2 - 2 * x * mu + x ** 2 * P ** 2
    g = (1 - P ** 2) * (1 - mu * x) / (2 * q ** 1.5)
    h = x[1] - x[0]
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= h / 3
    return float(np.dot(w, g * x)), float(np.dot(w, g * (3 * x * x - 1) / 2))


class TestLegendre:
    def test_degree_two(self):
        assert dist_mod._p2(0.5) == pytest.approx(-0.125, abs=1e-15)
        xs = np.linspace(-1, 1, 41)
        expected = np.polynomial.legendre.legval(xs, [0.0, 0.0, 1.0])
        got = [dist_mod._p2(float(x)) for x in xs]
        assert np.allclose(got, expected, rtol=0, atol=1e-15)


class TestMarginalDensity:
    def test_uniform_is_half(self):
        for x in (-1.0, -0.3, 0.0, 0.9):
            assert marginal_density(Uniform(), x) == 0.5

    def test_vmf_small_kappa_limit_is_uniform(self):
        xs = np.linspace(-1, 1, 11)
        assert np.allclose(marginal_density(VonMisesFisher(kappa=0.0), xs), 0.5)
        assert np.allclose(marginal_density(VonMisesFisher(kappa=1e-13), xs), 0.5)

    def test_brosseau_unpolarized_is_uniform(self):
        xs = np.linspace(-1, 1, 11)
        assert np.allclose(marginal_density(Brosseau(P=0.0, mu=0.0), xs), 0.5)

    @pytest.mark.parametrize("P", [1e-300, 1e-160])
    def test_brosseau_underflowing_polarization_is_uniform(self, P):
        # P^2 underflows to zero (1e-300) or to a subnormal (1e-160)
        xs = np.linspace(-1, 1, 11)
        for mu in (P, 0.0, -P):
            g = marginal_density(Brosseau(P=P, mu=mu), xs)
            assert np.allclose(g, 0.5, rtol=0, atol=1e-15)

    def test_vmf_negative_kappa_mirrors(self):
        g_pos = marginal_density(VonMisesFisher(kappa=2.5), 0.7)
        g_neg = marginal_density(VonMisesFisher(kappa=-2.5), -0.7)
        assert g_pos == pytest.approx(g_neg, rel=1e-14)

    def test_belt_is_flat_on_band(self):
        belt = Belt(theta1=0.5, theta2=1.2)
        hi, lo = math.cos(0.5), math.cos(1.2)
        inside = marginal_density(belt, 0.5 * (hi + lo))
        assert inside == pytest.approx(1.0 / (hi - lo), rel=1e-14)
        assert marginal_density(belt, -0.9) == 0.0
        assert marginal_density(belt, 0.99) == 0.0

    def test_delta_kinds_have_no_density(self):
        with pytest.raises(UnsupportedKindError):
            marginal_density(Delta(theta=0.3), 0.0)
        with pytest.raises(UnsupportedKindError):
            marginal_density(DeltaPair(theta=0.3), 0.0)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            marginal_density(Uniform(), 1.5)

    @pytest.mark.parametrize("dist", [
        Uniform(),
        VonMisesFisher(kappa=0.5),
        VonMisesFisher(kappa=-4.0),
        VonMisesFisher(kappa=25.0),
        Brosseau(P=0.6, mu=0.3),
        Brosseau(P=0.95, mu=-0.5),
        HenyeyGreenstein(h=0.3),
        HenyeyGreenstein(h=-0.7),
        Belt(theta1=0.4, theta2=2.0),
        Delta(theta=0.8),
        DeltaPair(theta=2.1),
        HenyeyGreenstein(h=0.9995),
        HenyeyGreenstein(h=-0.9995),
        HenyeyGreenstein(h=0.99941),
        HenyeyGreenstein(h=-0.99941),
    ])
    def test_normalization(self, dist):
        assert normalization_integral(dist) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kappa", [1e5, -1e5, 1e6])
    def test_peaked_vmf_cross_checks(self, kappa):
        # the mass sits within 1/|kappa| of a pole, below the first 64-node
        # pass unless the scale points split there
        dist = VonMisesFisher(kappa=kappa)
        assert normalization_integral(dist) == pytest.approx(1.0, abs=1e-10)
        quad, closed = quadrature_moments(dist), moments(dist)
        assert quad.a1 == pytest.approx(closed.a1, abs=1e-10)
        assert quad.a2 == pytest.approx(closed.a2, abs=1e-10)

    @pytest.mark.parametrize("h", [0.9995, -0.9995, 0.99941, -0.99941])
    def test_peaked_hg_moments(self, h):
        # with the density written as 1 + h^2 - 2 h x, which cancels at
        # the pole, both cross-checks were 2.8e-10 off at |h| = 0.99941
        dist = HenyeyGreenstein(h=h)
        quad, closed = quadrature_moments(dist), moments(dist)
        assert quad.a1 == pytest.approx(closed.a1, abs=1e-10)
        assert quad.a2 == pytest.approx(closed.a2, abs=1e-10)

    @pytest.mark.parametrize("dist", [HenyeyGreenstein(h=0.9999),
                                      HenyeyGreenstein(h=-0.9999),
                                      VonMisesFisher(kappa=1e10),
                                      HenyeyGreenstein(h=0.9996),
                                      HenyeyGreenstein(h=-0.9996)])
    def test_too_peaked_cross_checks_raise(self, dist):
        with pytest.raises(QuadratureError):
            normalization_integral(dist)
        with pytest.raises(QuadratureError):
            quadrature_moments(dist)


class TestMoments:
    def test_uniform(self):
        assert moments(Uniform()) == (0.0, 0.0)

    def test_vmf_kappa_one_closed_form(self):
        a1, a2 = moments(VonMisesFisher(kappa=1.0))
        assert a1 == pytest.approx(0.3130352854993313, abs=1e-14)
        assert a2 == pytest.approx(0.0608941435020056, abs=1e-14)

    def test_vmf_closed_form_equals_quadrature(self):
        for kappa in (0.1, 0.5, 1.0, 5.0, 20.0):
            dist = VonMisesFisher(kappa=kappa)
            closed = moments(dist)
            quad = quadrature_moments(dist)
            assert closed.a1 == pytest.approx(quad.a1, abs=1e-8)
            assert closed.a2 == pytest.approx(quad.a2, abs=1e-8)

    def test_vmf_tiny_kappa_series(self):
        a1, a2 = moments(VonMisesFisher(kappa=1e-7))
        assert a1 == pytest.approx(1e-7 / 3, rel=1e-9)
        assert a2 == pytest.approx(1e-14 / 15, rel=1e-6)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.floats(1e-150, 50.0),
                     st.floats(-150.0, math.log10(50.0)).map(
                         lambda e: min(max(10.0 ** e, 1e-150), 50.0))),
           st.booleans())
    # where coth k - 1/k cancels, and either side of the series cut
    @example(3e-6, False)
    @example(1.02e-6, True)
    @example(math.nextafter(3.0, 0.0), False)
    @example(3.0, True)
    def test_vmf_matches_mpmath(self, kappa, negate):
        # a1 = coth k - 1/k and a2 = 1 - 3 a1/k to 1e-15 relative, exactly
        # odd and even in kappa
        import mpmath

        if negate:
            kappa = -kappa
        a1, a2 = moments(VonMisesFisher(kappa=kappa))
        # a2 ~ k^2/15 is left after cancelling ~k^3 terms of coth k ~ 1/k
        digits = 40 + 5 * max(0, -math.floor(math.log10(abs(kappa))))
        with mpmath.workdps(digits):
            k = mpmath.mpf(kappa)
            x1 = mpmath.coth(k) - 1 / k
            x2 = 1 - 3 * x1 / k
            assert abs((a1 - x1) / x1) <= 1e-15
            assert abs((a2 - x2) / x2) <= 1e-15
        mirror = moments(VonMisesFisher(kappa=-kappa))
        assert (mirror.a1, mirror.a2) == (-a1, a2)

    def test_vmf_odd_even_in_kappa(self):
        plus = moments(VonMisesFisher(kappa=2.0))
        minus = moments(VonMisesFisher(kappa=-2.0))
        assert minus.a1 == pytest.approx(-plus.a1, abs=1e-14)
        assert minus.a2 == pytest.approx(plus.a2, abs=1e-14)

    def test_deltapair_equator(self):
        a1, a2 = moments(DeltaPair(theta=math.pi / 2))
        assert a1 == 0.0
        assert a2 == pytest.approx(-0.5, abs=1e-14)

    def test_delta_moments(self):
        a1, a2 = moments(Delta(theta=0.8))
        c = math.cos(0.8)
        assert a1 == pytest.approx(c, abs=1e-15)
        assert a2 == pytest.approx((3 * c * c - 1) / 2, abs=1e-15)

    def test_brosseau_unpolarized(self):
        assert moments(Brosseau(P=0.0, mu=0.0)) == (0.0, 0.0)

    def test_brosseau_matches_quadrature(self):
        dist = Brosseau(P=0.8, mu=0.5)
        closed = moments(dist)
        quad = quadrature_moments(dist)
        assert closed.a1 == pytest.approx(quad.a1, abs=1e-9)
        assert closed.a2 == pytest.approx(quad.a2, abs=1e-9)

    def test_brosseau_delta_concentration_limit(self):
        a1, a2 = moments(Brosseau(P=1 - 1e-12, mu=0.5))
        d1, d2 = moments(Delta(theta=math.acos(0.5)))
        assert a1 == pytest.approx(d1, abs=1e-9)
        assert a2 == pytest.approx(d2, abs=1e-9)

    def test_henyey_greenstein_powers(self):
        for h in (0.3, -0.55, 0.8):
            quad = quadrature_moments(HenyeyGreenstein(h=h))
            assert quad.a1 == pytest.approx(h, abs=1e-8)
            assert quad.a2 == pytest.approx(h * h, abs=1e-8)

    def test_belt_closed_form_equals_quadrature(self):
        belt = Belt(theta1=0.5, theta2=1.2)
        closed = moments(belt)
        quad = quadrature_moments(belt)
        assert closed.a1 == pytest.approx(quad.a1, abs=1e-10)
        assert closed.a2 == pytest.approx(quad.a2, abs=1e-10)

    def test_feasibility_across_parameter_sweep(self, rng):
        for _ in range(100):
            assert validate_moments(moments(random_distribution(rng)))


# P from 0 through the series/closed-form switch at 0.8 up to 0.999, plus
# seeded draws; mu at both ties, the midpoints and zero.
BROSSEAU_P_GRID = (
    [0.0, 1e-8, 0.01, 0.1, 0.25, 0.5, 0.7, 0.79, 0.8, 0.81, 0.9, 0.99, 0.999]
    + [float(p) for p in np.random.default_rng(77).uniform(0.0, 0.999, 12)])


def brosseau_grid():
    return [Brosseau(P=P, mu=mu) for P in BROSSEAU_P_GRID
            for mu in (-P, -P / 2, 0.0, P / 3, P)]


class TestBrosseauMoments:
    """The closed-form moments of Brosseau against independent integrals."""

    def test_matches_tight_quadrature_on_grid(self):
        for d in brosseau_grid():
            closed = moments(d)
            quad = quadrature_moments(d, tol=1e-13)
            assert closed.a1 == pytest.approx(quad.a1, abs=1e-12), d
            assert closed.a2 == pytest.approx(quad.a2, abs=1e-12), d

    def test_against_simpson_oracle(self):
        for P, mu in ((0.5, 0.25), (0.8, 0.5), (0.3, -0.3), (0.9, -0.45),
                      (0.6, 0.0)):
            a1, a2 = moments(Brosseau(P=P, mu=mu))
            o1, o2 = simpson_brosseau_moments(P, mu)
            assert a1 == pytest.approx(o1, abs=1e-9)
            assert a2 == pytest.approx(o2, abs=1e-9)

    def test_series_and_closed_form_agree_at_switch(self):
        switch = dist_mod._SERIES_BELOW
        for P in (np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0)):
            series = dist_mod._axis_moments_series(float(P))
            closed = dist_mod._axis_moments_closed(float(P))
            assert np.max(np.abs(np.subtract(series, closed))) <= 1e-15

    def test_unpolarized_moments_vanish(self):
        assert moments(Brosseau(P=0.0, mu=0.0)) == (0.0, 0.0)
        assert moments(Brosseau(P=1e-300, mu=0.0)) == (0.0, 0.0)
        a1, a2 = moments(Brosseau(P=1e-300, mu=1e-300))
        assert 0.0 < a1 <= 1e-300 and a2 == 0.0

    def test_small_P_series_leading_terms(self):
        # b1 = 2P/3 + O(P^3) and b2 = 2P^2/5 + O(P^4) on the axis
        P = 1e-8
        for mu in (-P, 0.0, P / 3, P):
            a1, a2 = moments(Brosseau(P=P, mu=mu))
            c = mu / P
            assert a1 == pytest.approx(2 * mu / 3, rel=1e-15, abs=1e-30)
            assert a2 == pytest.approx(0.4 * P * P * (3 * c * c - 1) / 2,
                                       rel=1e-15, abs=1e-40)

    def test_sharp_peak_matches_quadrature(self):
        # P -> 1 concentrates the marginal; the closed form needs no refinement
        d = Brosseau(P=0.999, mu=0.5)
        closed, quad = moments(d), quadrature_moments(d, tol=1e-13)
        assert np.max(np.abs(np.subtract(closed, quad))) <= 1e-12
        a1, a2 = moments(Brosseau(P=0.999999, mu=0.999999))
        assert 1 - 1e-4 < a1 < 1 and 1 - 1e-4 < a2 < 1

    def test_domain_checks(self):
        for P, mu in ((1.0, 0.0), (-0.1, 0.0), (0.3, 0.5), (0.3, -0.5)):
            with pytest.raises(DomainError):
                Brosseau(P=P, mu=mu)

    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(-1.0, 1.0))
    def test_moments_feasible_on_whole_domain(self, P, u):
        mu = P * u
        m = moments(Brosseau(P=P, mu=mu))
        # validate_moments' three inequalities, with 1e-15 slack
        assert abs(m.a1) <= 1 + 1e-15 and m.a2 <= 1 + 1e-15
        assert (2 * m.a2 + 1) / 3 >= m.a1 * m.a1 - 1e-15
        # the mean cos(theta) never exceeds the mean Stokes parameter
        assert abs(m.a1) <= abs(mu) * (1 + 1e-15) + 1e-300


class TestValidateMoments:
    def test_uniform_feasible(self):
        assert validate_moments((0.0, 0.0)) is True

    def test_pole_delta_feasible(self):
        assert validate_moments((1.0, 1.0)) is True

    def test_violating_second_moment(self):
        assert validate_moments((0.9, -0.5)) is False

    def test_nan_rejected(self):
        assert validate_moments((math.nan, 0.0)) is False


class TestParameterValidation:
    def test_brosseau_rejects_full_polarization(self):
        with pytest.raises(DomainError):
            Brosseau(P=1.0, mu=0.5)

    def test_brosseau_rejects_mu_above_P(self):
        with pytest.raises(DomainError):
            Brosseau(P=0.4, mu=0.5)

    def test_hg_range(self):
        with pytest.raises(DomainError):
            HenyeyGreenstein(h=1.0)

    def test_belt_ordering(self):
        with pytest.raises(DomainError):
            Belt(theta1=1.2, theta2=0.5)

    def test_polar_range(self):
        with pytest.raises(DomainError):
            Delta(theta=3.5)


class TestTabulated:
    def test_uniform_table(self):
        t = Tabulated(xs=(-1.0, 1.0), gs=(0.5, 0.5))
        a1, a2 = moments(t)
        assert a1 == pytest.approx(0.0, abs=1e-14)
        assert a2 == pytest.approx(0.0, abs=1e-14)
        assert normalization_integral(t) == pytest.approx(1.0, abs=1e-10)

    def test_renormalizes_with_warning(self):
        with pytest.warns(UserWarning, match="renormalising"):
            t = Tabulated(xs=(-1.0, 0.0, 1.0), gs=(1.0, 2.0, 1.0))
        assert normalization_integral(t) == pytest.approx(1.0, abs=1e-10)

    def test_renormalisation_warning_names_the_caller(self, tmp_path):
        # the location is the code that built the table, not
        # Tabulated.__init__
        with pytest.warns(UserWarning, match="renormalising") as record:
            Tabulated(xs=(-1.0, 1.0), gs=(1.0, 1.0))
        assert [w.filename for w in record] == [__file__]
        path = tmp_path / "double.csv"
        path.write_text("-1,1\n1,1\n")
        with pytest.warns(UserWarning, match="renormalising") as record:
            load_tabulated(str(path))
        assert [w.filename for w in record] == [dist_mod.__file__]

    def test_renormalisation_warning_names_the_table(self, tmp_path):
        # with several tables, the path tells which one was renormalised
        path = tmp_path / "double.csv"
        path.write_text("-1,1\n1,1\n")
        with pytest.warns(UserWarning, match="renormalising") as record:
            load_tabulated(str(path))
        assert [repr(str(path)) in str(w.message) for w in record] == [True]

    def test_moments_match_quadrature(self):
        xs = tuple(np.linspace(-1, 1, 41))
        gs = tuple(0.5 * (1 + 0.4 * x) for x in xs)
        t = Tabulated(xs=xs, gs=gs)
        closed = moments(t)
        quad = quadrature_moments(t)
        assert closed.a1 == pytest.approx(quad.a1, abs=1e-9)
        assert closed.a2 == pytest.approx(quad.a2, abs=1e-9)

    def test_overflowing_trapezoid_keeps_the_shape(self):
        # the raw trapezoid sum overflows; the renormalised g is (1 + x) / 2
        # up to 5e-309
        with pytest.warns(UserWarning, match="renormalising"):
            t = Tabulated(xs=(-1.0, 1.0), gs=(0.5, 1e308))
        a1, a2 = moments(t)
        assert a1 == pytest.approx(1 / 3, abs=1e-15)
        assert a2 == pytest.approx(0.0, abs=1e-15)

    def test_requires_increasing_abscissae(self):
        with pytest.raises(DomainError):
            Tabulated(xs=(0.0, 0.0, 1.0), gs=(1.0, 1.0, 1.0))

    def test_rejects_negative_density(self):
        with pytest.raises(DomainError):
            Tabulated(xs=(-1.0, 1.0), gs=(1.0, -0.5))

    def test_csv_loader_with_header(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("cos_theta,g\n-1.0,0.5\n0.0,0.5\n1.0,0.5\n")
        t = load_tabulated(str(path))
        assert t.xs == (-1.0, 0.0, 1.0)
        assert moments(t).a1 == pytest.approx(0.0, abs=1e-14)

    def test_csv_loader_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("-1.0,0.5,9\n1.0,0.5\n")
        with pytest.raises(DomainError):
            load_tabulated(str(path))
