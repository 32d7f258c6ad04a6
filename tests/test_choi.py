import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from axiclone.choi import (build_merit, choi_fidelity, choi_from_params,
                           dual_certificate, max_sampled_fidelity)
from axiclone.dist import (FEASIBILITY_TOL, Belt, Brosseau, Delta, DeltaPair,
                           HenyeyGreenstein, MomentPair, Uniform,
                           VonMisesFisher, moments, validate_moments)
from axiclone.errors import DomainError, NonHermitianError
from axiclone.optimal import (average_fidelity, optimal_angles, pcc_params,
                              uc_params)
from axiclone.qsim import clone_isometry
from axiclone import choi
from conftest import (angle_params, assert_primal_optimum,
                      random_distribution, random_params, traced_peak_mib)
from oracles import (block_basis, choi_from_isometry, fixed_rule,
                     haar_isometry, integration_edges, kron_merit,
                     lapack_fidelities, lapack_haar_isometry,
                     marginal_density, merit_kernel_reference,
                     partial_trace, random_cptp, row_fidelity,
                     sampled_fidelity_loop, symmetry_blocks)

SQRT2 = math.sqrt(2.0)

# Ensembles whose mass sits within 1e-4 of a point, where a float
# integration of the density over [-1, 1] misses or cannot resolve it;
# R is built from their exact moments.
PEAKED = [VonMisesFisher(kappa=1e5), VonMisesFisher(kappa=-1e6),
          HenyeyGreenstein(h=0.9999), HenyeyGreenstein(h=-0.999999),
          Brosseau(P=0.999999, mu=0.999999), Brosseau(P=0.999999, mu=-0.5)]


def phase_conjugated(r, seed=11):
    """U R U^dag for a diagonal phase U: Hermitian, with Im R != 0."""
    phases = np.exp(2j * math.pi * np.random.default_rng(seed).uniform(size=8))
    return phases[:, None] * r * phases.conj()[None, :]


def assert_cptp(chi):
    assert np.linalg.norm(chi - chi.conj().T) <= 1e-12
    assert np.linalg.eigvalsh(chi).min() >= -1e-10
    assert np.trace(chi).real == pytest.approx(2.0, abs=1e-10)
    assert np.linalg.norm(partial_trace(chi, {1}) - np.eye(2)) <= 1e-10


@st.composite
def _accepted_moments(draw):
    """A pair ``validate_moments`` accepts: inside, on the variance bound,
    at a2 = 1, with a1 = +-0.0 and +-1, and in the tolerance's slack."""
    a1 = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1 - FEASIBILITY_TOL, 1 + FEASIBILITY_TOL)))
    low = (3 * a1 * a1 - 1) / 2
    a2 = draw(st.one_of(
        st.sampled_from([low, 1.0, low - FEASIBILITY_TOL,
                         1 + FEASIBILITY_TOL]),
        st.floats(min(low, 1.0), 1.0)))
    assume(validate_moments((a1, a2)))
    return a1, a2


class TestMeritOperator:
    def test_uniform_pairs_to_five_sixths(self):
        r = build_merit(Uniform())
        chi = choi_from_params(uc_params())
        assert choi_fidelity(chi, r) == pytest.approx(5 / 6, abs=1e-10)

    def test_equatorial_ring(self):
        r = build_merit(Delta(theta=math.pi / 2))
        p = optimal_angles(MomentPair(0.0, -0.5))
        assert choi_fidelity(choi_from_params(p), r) == pytest.approx(
            (4 + 2 * SQRT2) / 8, abs=1e-10)

    def test_hermitian_and_contractive(self, rng):
        for dist in [random_distribution(rng) for _ in range(10)] + PEAKED:
            r = build_merit(dist)
            assert np.linalg.norm(r - r.conj().T) <= 1e-12
            assert np.trace(r) == pytest.approx(2.0, abs=1e-12)
            eig = np.linalg.eigvalsh(r)
            assert eig.min() >= -1e-12
            assert eig.max() <= 1 + 1e-12
            m = moments(dist)
            p = optimal_angles(m)
            f_opt = average_fidelity(m, p)
            assert choi_fidelity(choi_from_params(p), r) == pytest.approx(
                f_opt, abs=1e-12)
            tr_y, _ = dual_certificate(r, p)
            assert abs(tr_y - f_opt) <= 1e-12

    @settings(max_examples=500, deadline=None)
    @given(_accepted_moments())
    def test_precomputed_terms_equal_kronecker_sum_bit_for_bit(self, m):
        got, want = choi._merit(*m), kron_merit(*m)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_build_merit_never_calls_kron(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_merit called numpy.kron")

        monkeypatch.setattr(np, "kron", refuse)
        r = build_merit(VonMisesFisher(kappa=1.0))
        assert np.trace(r) == pytest.approx(2.0, abs=1e-12)

    def test_point_masses_equal_reference_kernel(self):
        # the azimuthal-kernel integrand at one latitude is the merit
        # operator of that latitude ring
        for theta in np.concatenate([np.linspace(0.0, math.pi, 41),
                                     [math.pi / 2]]):
            got = build_merit(Delta(theta=float(theta)))
            want = merit_kernel_reference(math.cos(theta))[0]
            assert np.abs(got - want).max() <= 1e-15

    def test_densities_equal_integrated_reference_kernel(self, rng):
        # the kernel is 8x8, so it stays on a float Gauss-Legendre rule over
        # the marginal's segments; a 64- and a 128-node pass must agree
        # before either counts
        for _ in range(8):
            dist = random_distribution(rng, density_only=True)
            edges = integration_edges(dist)

            def integral(n):
                return sum(fixed_rule(
                    lambda x: marginal_density(dist, x)[:, None, None]
                    * merit_kernel_reference(x), a, b, n)
                    for a, b in zip(edges, edges[1:]))
            coarse, fine = integral(64), integral(128)
            assert np.abs(fine - coarse).max() <= 1e-13, dist
            assert np.abs(build_merit(dist) - fine).max() <= 1e-12

    def test_pairing_equals_moment_formula(self, rng):
        dist = VonMisesFisher(kappa=0.7)
        r = build_merit(dist)
        m = moments(dist)
        for _ in range(20):
            p = random_params(rng)
            assert choi_fidelity(choi_from_params(p), r) == pytest.approx(
                average_fidelity(m, p), abs=1e-9)

    def test_consistency_over_random_pairs(self, rng):
        for _ in range(50):
            dist = random_distribution(rng)
            p = random_params(rng)
            lhs = choi_fidelity(choi_from_params(p), build_merit(dist))
            rhs = average_fidelity(moments(dist), p)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestChoiFromParams:
    def test_uc_top_entry(self):
        chi = choi_from_params(uc_params())
        assert chi[0, 0].real == pytest.approx(2 / 3, abs=1e-12)

    def test_upper_boundary_diagonal(self):
        chi = choi_from_params(pcc_params(True))
        expected = np.array([1, 0, 0, 0, 0, 0.5, 0.5, 0])
        assert np.linalg.norm(np.diagonal(chi).real - expected) <= 1e-14

    def test_explicit_matrix_pattern(self, rng):
        p = random_params(rng)
        cp, sp = math.cos(p.alpha_plus), math.sin(p.alpha_plus)
        cm, sm = math.cos(p.alpha_minus), math.sin(p.alpha_minus)
        chi = choi_from_params(p)
        assert chi[0, 0].real == pytest.approx(cp * cp, abs=1e-14)
        assert chi[0, 5].real == pytest.approx(sm * cp / SQRT2, abs=1e-14)
        assert chi[1, 2].real == pytest.approx(sp * sp / 2, abs=1e-14)
        assert chi[1, 7].real == pytest.approx(cm * sp / SQRT2, abs=1e-14)
        assert chi[6, 5].real == pytest.approx(sm * sm / 2, abs=1e-14)
        assert chi[7, 7].real == pytest.approx(cm * cm, abs=1e-14)

    def test_cptp_for_random_params(self, rng):
        for _ in range(20):
            assert_cptp(choi_from_params(random_params(rng)))

    def test_average_output_state(self, rng):
        chi = choi_from_params(random_params(rng))
        avg_out = np.einsum("imin->mn", chi.reshape(2, 4, 2, 4))
        assert np.trace(avg_out).real == pytest.approx(2.0, abs=1e-12)


class TestChoiFidelityErrors:
    def test_rejects_non_hermitian(self):
        r = build_merit(Uniform())
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NonHermitianError):
            choi_fidelity(bad, r)

    def test_rejects_imaginary_trace_within_hermitian_tolerance(self):
        # |chi - chi^dag| = 8e-11 passes the Hermitian check, but
        # Im Tr(chi R) = 4e-11 Tr R = 8e-11 is above 1e-12
        chi = np.eye(8) / 4 + 4e-11j * np.eye(8)
        with pytest.raises(NonHermitianError, match="imaginary part"):
            choi_fidelity(chi, build_merit(Uniform()))


@pytest.mark.parametrize("call", [
    lambda r: max_sampled_fidelity(r, 10),
    lambda r: choi_fidelity(random_cptp(1), r),
    lambda r: dual_certificate(r, uc_params()),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_merit_rejected(call, bad):
    # a NaN deviation passes "dev > tol"; the sweep returned -inf for this
    r = build_merit(Uniform())
    r[0, 0] = bad
    with pytest.raises(DomainError):
        call(r)


class TestRandomCptp:
    def test_deterministic_per_seed(self):
        a = random_cptp(123, env_dim=2)
        b = random_cptp(123, env_dim=2)
        assert np.array_equal(a, b)

    def test_pure_isometry_channel_has_rank_two(self):
        chi = random_cptp(7, env_dim=1)
        eig = np.linalg.eigvalsh(chi)
        assert int((eig > 1e-10).sum()) == 2

    def test_cptp_invariants(self, rng):
        for seed in rng.integers(0, 10 ** 6, size=10):
            for env in (1, 2, 4):
                assert_cptp(random_cptp(int(seed), env_dim=env))

    def test_small_sweep_stays_below_optimum(self):
        r = build_merit(Uniform())
        best = max_sampled_fidelity(r, 300, seed=0, env_dims=(1, 2, 4))
        assert best <= 5 / 6 + 1e-9


class TestMaxSampledFidelity:
    def test_reference_loop_draws_random_cptp_samples(self):
        # row 0 of the batched Gram-Schmidt is the oracle's one-row isometry
        for seed in (0, 1, 41, 10 ** 6):
            for env in (1, 2, 3, 4):
                z = np.random.default_rng(seed).standard_normal((1, 32 * env))
                re, im = choi._haar_columns(z, env)[0]
                assert np.array_equal((re + 1j * im).T, haar_isometry(seed, env))

    def test_batched_sweep_equals_per_sample_loop(self):
        for seed in (17, 2 ** 160):
            for dist in (VonMisesFisher(kappa=1.0), DeltaPair(theta=math.pi / 3)):
                for r in (build_merit(dist), phase_conjugated(build_merit(dist))):
                    batched = max_sampled_fidelity(r, 200, seed=seed,
                                                   env_dims=(1, 2, 4))
                    assert batched == sampled_fidelity_loop(
                        r, 200, seed=seed, env_dims=(1, 2, 4))

    def test_result_independent_of_chunking(self, monkeypatch):
        r0 = build_merit(Brosseau(P=0.8, mu=0.5))
        for r in (r0, phase_conjugated(r0)):
            expected = sampled_fidelity_loop(r, 200, seed=3, env_dims=(3, 1))
            for chunk in (1024, 64, 7):
                monkeypatch.setattr(choi, "_HAAR_CHUNK", chunk)
                assert max_sampled_fidelity(r, 200, seed=3,
                                            env_dims=(3, 1)) == expected

    def test_sweeps_in_small_chunks(self):
        # 1024-row chunks peak at 4.8 MiB on the first sweep of a process
        r = build_merit(VonMisesFisher(kappa=1.0))
        assert traced_peak_mib(max_sampled_fidelity, r, 10_000) <= 2.5

    def test_gram_schmidt_matches_lapack_qr(self):
        r0 = build_merit(VonMisesFisher(kappa=1.0))
        for seed in (0, 17, 2 ** 160):
            z = np.random.default_rng(seed).standard_normal((300, 128))
            for env in (1, 2, 3, 4):
                q = choi._haar_columns(z, env)
                w = (q[:, 0] + 1j * q[:, 1]).transpose(0, 2, 1)
                assert np.max(np.abs(w - lapack_haar_isometry(z, env))) <= 1e-14
                gram = w.conj().transpose(0, 2, 1) @ w
                assert np.max(np.abs(gram - np.eye(2))) <= 1e-14
                for r in (r0, phase_conjugated(r0)):
                    loop = np.array([row_fidelity(r, row, env) for row in z])
                    assert np.max(np.abs(loop - lapack_fidelities(r, z, env))) <= 1e-14
        # README: verify --dist vmf:kappa=1.0 --samples 10000 --seed 42
        sampled = max_sampled_fidelity(r0, 10_000, seed=42)
        assert abs(sampled - 0.72998774121532639) <= 1e-15
        z = np.random.default_rng(42).standard_normal((10_000, 128))
        lapack = max(lapack_fidelities(r0, z, env).max() for env in (1, 2, 4))
        assert abs(lapack - 0.72998774121532661) <= 1e-15

    def test_complex_hermitian_merit_keeps_imaginary_part(self):
        # a contraction with Re R alone drops 2 Im(v)^T Im(R) Re(v) and
        # reads 0.672 instead of 0.692 at env 1
        r = phase_conjugated(build_merit(VonMisesFisher(kappa=1.0)))
        for env in (1, 2, 4):
            z = np.random.default_rng(5).standard_normal((500, 32 * env))
            expected = lapack_fidelities(r, z, env).max()
            got = max_sampled_fidelity(r, 500, seed=5, env_dims=(env,))
            assert got == pytest.approx(expected, abs=1e-14)

    def test_rejects_non_hermitian_merit(self):
        r = build_merit(VonMisesFisher(kappa=1.0))
        r[0, 1] += 0.3
        with pytest.raises(NonHermitianError):
            max_sampled_fidelity(r, 10)

    @pytest.mark.parametrize("shape", [(4, 4), (8,), (16, 16), (8, 8, 1)])
    def test_rejects_merit_of_wrong_shape(self, shape):
        with pytest.raises(DomainError):
            max_sampled_fidelity(np.zeros(shape), 10)

    def test_sweep_never_calls_lapack_qr(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Haar sweep called numpy.linalg.qr")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        r = build_merit(VonMisesFisher(kappa=1.0))
        assert max_sampled_fidelity(r, 50, seed=1) <= 1.0

    @pytest.mark.parametrize("env_dims", [(0,), (), (5,), (-1,)])
    def test_rejects_environment_sizes_random_cptp_rejects(self, env_dims):
        r = build_merit(Uniform())
        with pytest.raises(DomainError):
            max_sampled_fidelity(r, 10, env_dims=env_dims)

    def test_rejects_no_samples(self):
        with pytest.raises(DomainError, match="at least one sample"):
            max_sampled_fidelity(build_merit(Uniform()), 0)

    def test_per_sample_values_match_choi_fidelity(self):
        r = build_merit(VonMisesFisher(kappa=-2.0))
        for k in range(20):
            expected = max(choi_fidelity(random_cptp(k, env_dim=env), r)
                           for env in (1, 2, 4))
            assert max_sampled_fidelity(r, 1, seed=k) == pytest.approx(
                expected, abs=1e-14)


class TestSymmetryBlocks:
    def test_cloner_choi_block_pattern(self, rng):
        p = random_params(rng)
        cp, sp = math.cos(p.alpha_plus), math.sin(p.alpha_plus)
        cm, sm = math.cos(p.alpha_minus), math.sin(p.alpha_minus)
        blocks = symmetry_blocks(choi_from_params(p))
        expected1 = np.array([[cp * cp, sm * cp], [sm * cp, sm * sm]])
        expected2 = np.array([[cm * cm, cm * sp], [cm * sp, sp * sp]])
        assert np.linalg.norm(blocks.block1.real - expected1) <= 1e-12
        assert np.linalg.norm(blocks.block2.real - expected2) <= 1e-12
        assert np.linalg.norm(blocks.scalars) <= 1e-12
        assert blocks.off_block_residual <= 1e-12

    def test_extremal_blocks_are_rank_one(self, rng):
        for _ in range(10):
            blocks = symmetry_blocks(choi_from_params(random_params(rng)))
            for blk in (blocks.block1, blocks.block2):
                assert np.linalg.norm(
                    blk @ blk - np.trace(blk) * blk) <= 1e-12

    def test_merit_is_block_diagonal_for_axisymmetric_input(self):
        blocks = symmetry_blocks(build_merit(Delta(theta=math.pi / 3)))
        assert blocks.off_block_residual <= 1e-10

    def test_antisymmetric_sector_closed_form(self, rng):
        # the exchange-odd scalars of R are (1 -+ a1)/4 and the remaining two
        # both equal <sin^2 theta>/4; all are bounded by 1/2, which with the
        # trace-preservation cap on the matching chi scalars keeps each
        # scalar sector's fidelity contribution at or below 1/2
        for _ in range(50):
            dist = random_distribution(rng)
            a1, a2 = moments(dist)
            s = 1 - (2 * a2 + 1) / 3
            blocks = symmetry_blocks(build_merit(dist))
            assert blocks.scalars[0] == pytest.approx((1 - a1) / 4, abs=1e-9)
            assert blocks.scalars[1] == pytest.approx((1 + a1) / 4, abs=1e-9)
            assert blocks.scalars[2] == pytest.approx(s / 4, abs=1e-9)
            assert blocks.scalars[3] == pytest.approx(s / 4, abs=1e-9)
            assert np.all(blocks.scalars <= 0.5 + 1e-9)

    def test_antisymmetric_sector_quarter_bound_for_balanced_input(self, rng):
        # ensembles with a1 = 0 (mirror pairs, the uniform) do satisfy <= 1/4
        for dist in (Uniform(), DeltaPair(theta=0.9), DeltaPair(theta=2.0)):
            blocks = symmetry_blocks(build_merit(dist))
            assert blocks.scalars[0] <= 0.25 + 1e-9
            assert blocks.scalars[1] <= 0.25 + 1e-9

    def test_uniform_merit_scalars(self):
        blocks = symmetry_blocks(build_merit(Uniform()))
        assert blocks.scalars[0] == pytest.approx(0.25, abs=1e-10)
        assert blocks.scalars[1] == pytest.approx(0.25, abs=1e-10)


class TestExtremalIteration:
    """The extremal iteration over every CPTP map reaches the closed form."""

    def test_uniform_reaches_uc_optimum(self):
        f, chi = assert_primal_optimum(Uniform())
        assert f == pytest.approx(5 / 6, abs=1e-10)
        assert np.linalg.norm(chi - choi_from_params(uc_params())) <= 1e-8

    def test_high_concentration_reaches_boundary_optimum(self):
        assert_primal_optimum(VonMisesFisher(kappa=1.0))

    # At the poles, on the equator and at the peaked ensembles the optimal
    # face is not one point, so only F and feasibility are asserted there.
    @pytest.mark.parametrize("dist, pinned", [
        (VonMisesFisher(kappa=5.0), True),
        (Belt(theta1=0.5, theta2=1.2), True),
        (VonMisesFisher(kappa=1e5), False),
        (HenyeyGreenstein(h=-0.999999), False),
        (Brosseau(P=0.999999, mu=0.999999), False),
        (Delta(theta=0.0), False),
        (Delta(theta=math.pi / 2), False),
        (DeltaPair(theta=math.pi / 2), False),
        (DeltaPair(theta=0.0029), False),
        (Delta(theta=math.pi), False),
    ])
    def test_reaches_optimum_in_every_regime(self, dist, pinned):
        assert_primal_optimum(dist, pinned)


def assert_certificate(dist):
    """The dual bound of the closed-form cloner closes on F_opt."""
    m = moments(dist)
    p = optimal_angles(m)
    f_opt = average_fidelity(m, p)
    r = build_merit(dist)
    tr_y, lam = dual_certificate(r, p)
    f_upper = tr_y - 2 * min(lam, 0.0)
    assert abs(tr_y - f_opt) <= 1e-9
    assert lam >= -1e-9
    assert abs(f_upper - f_opt) <= 1e-9
    return r, f_upper


class TestDualCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.integers(0, 2 ** 32 - 1).map(
            lambda s: random_distribution(np.random.default_rng(s))),
        st.sampled_from([kind(theta=t) for kind in (Delta, DeltaPair)
                         for t in (0.0, math.pi / 2, math.pi)])))
    def test_certificate_holds(self, dist):
        r, f_upper = assert_certificate(dist)
        for seed in range(3):
            assert choi_fidelity(random_cptp(seed, env_dim=4), r) <= f_upper + 1e-12

    def test_bound_is_sound_for_suboptimal_cloners(self, rng):
        # any dual point bounds the optimum, so the bound built from a
        # non-optimal cloner can only overshoot F_opt
        for _ in range(20):
            dist = random_distribution(rng)
            m = moments(dist)
            f_opt = average_fidelity(m, optimal_angles(m))
            r = build_merit(dist)
            tr_y, lam = dual_certificate(r, random_params(rng))
            assert tr_y - 2 * min(lam, 0.0) >= f_opt - 1e-12

    def test_perturbed_merit_fails(self):
        for dist in (Uniform(), VonMisesFisher(kappa=1.0),
                     DeltaPair(theta=math.pi / 3)):
            m = moments(dist)
            p = optimal_angles(m)
            r = build_merit(dist).astype(complex)
            r[0, 0] += 1e-6      # |000>, inside the first symmetric block
            tr_y, lam = dual_certificate(r, p)
            f_upper = tr_y - 2 * min(lam, 0.0)
            assert abs(f_upper - average_fidelity(m, p)) > 1e-9

    def test_gain_outside_cloner_support_shows_in_lambda_min(self):
        # raising R on |1>|S->, where the cloner's Choi matrix has no
        # weight, leaves Tr Y alone; only lambda_min can reveal that a
        # channel using that direction now beats the cloner
        dist = VonMisesFisher(kappa=0.2)
        m = moments(dist)
        p = optimal_angles(m)
        f_opt = average_fidelity(m, p)
        b = block_basis()[:, 4]
        r = build_merit(dist) + 0.5 * np.outer(b, b)
        tr_y, lam = dual_certificate(r, p)
        assert abs(tr_y - f_opt) <= 1e-12
        assert lam < -1e-3
        assert tr_y - 2 * min(lam, 0.0) - f_opt > 1e-3

    def test_rejects_non_hermitian_merit(self):
        r = build_merit(Uniform()).astype(complex)
        r[0, 1] += 1e-3
        with pytest.raises(NonHermitianError):
            dual_certificate(r, uc_params())

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, math.pi / 2), st.floats(0.0, math.pi / 2),
           st.booleans())
    def test_equals_generic_partial_trace_path_bit_for_bit(self, a1, t, ap,
                                                           am, complex_r):
        # the certificate's fixed-shape clone trace and Choi reshape give
        # the very digits of the general isometry-Choi and partial trace
        a2 = (3 * a1 * a1 - 1) / 2 + t * (3 - 3 * a1 * a1) / 2
        r = choi._merit(a1, a2)
        if complex_r:
            r = phase_conjugated(r)
        p = angle_params(ap, am)
        chi = choi_from_isometry(np.array(clone_isometry(p), dtype=complex))
        assert np.array_equal(choi_from_params(p), chi)
        y = partial_trace(r @ chi, {1})
        y = 0.5 * (y + y.conj().T)
        lam = float(np.linalg.eigvalsh(np.kron(y, np.eye(4)) - r)[0])
        assert dual_certificate(r, p) == (float(np.trace(y).real), lam)
