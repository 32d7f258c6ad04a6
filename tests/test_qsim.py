import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axiclone.dist import MomentPair
from axiclone.errors import DomainError
from axiclone.optimal import (optimal_angles, pcc_params, single_copy_fidelity,
                              uc_params)
from axiclone.qsim import (PureQubit, apply_clone, clone_fidelity_sim,
                           clone_isometry)
from conftest import angle_params, random_params
from oracles import partial_trace, simulate_reference

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class AxisFrame:
    """Orientation (vartheta, varphi) of the axis state in the global basis."""

    vartheta: float = 0.0
    varphi: float = 0.0

    def matrix(self) -> np.ndarray:
        """Unitary whose columns are the axis state and its complement."""
        c = math.cos(self.vartheta / 2)
        s = math.sin(self.vartheta / 2)
        ph = np.exp(1j * self.varphi)
        return np.array([[c, -s / ph], [s * ph, c]], dtype=complex)


def from_amplitudes(amps: np.ndarray) -> PureQubit:
    """Canonical (theta, phi) of a state vector; global phase dropped."""
    a0, a1 = complex(amps[0]), complex(amps[1])
    theta = 2.0 * math.atan2(abs(a1), abs(a0))
    if abs(a1) < 1e-15 or abs(a0) < 1e-15:
        phi = 0.0
    else:
        phi = (np.angle(a1) - np.angle(a0)) % (2 * math.pi)
    return PureQubit(theta, phi)


def rotate_frame(q: PureQubit, f: AxisFrame, inverse: bool = False) -> PureQubit:
    """Re-express a qubit between the global basis and the axis frame.

    Forward maps a globally-parametrised qubit into the frame where the axis
    state is |0>; ``inverse=True`` maps back.  The round trip reproduces the
    original Bloch angles (the canonical form drops only a global phase).
    """
    u = f.matrix()
    amps = q.amplitudes()
    rotated = (u if inverse else u.conj().T) @ amps
    return from_amplitudes(rotated)


def reduced_clone_closed_form(theta, phi, p):
    """Single-clone density matrix from the trace of the output projector.

    Diagonal weights mix the copy and exchange amplitudes; the coherence is
    exp(-i phi) sin(theta) sin(alpha+ + alpha-) / (2 sqrt(2)).
    """
    cp, sp = math.cos(p.alpha_plus), math.sin(p.alpha_plus)
    cm, sm = math.cos(p.alpha_minus), math.sin(p.alpha_minus)
    c2 = math.cos(theta / 2) ** 2
    s2 = math.sin(theta / 2) ** 2
    rho = np.empty((2, 2), dtype=complex)
    rho[0, 0] = 0.5 * ((cp * cp + 1) * c2 + sm * sm * s2)
    rho[1, 1] = 0.5 * ((cm * cm + 1) * s2 + sp * sp * c2)
    rho[0, 1] = (np.exp(-1j * phi) * math.sin(theta)
                 * math.sin(p.alpha_plus + p.alpha_minus) / (2 * SQRT2))
    rho[1, 0] = np.conj(rho[0, 1])
    return rho


class TestPureQubit:
    def test_amplitudes_unit_norm(self, rng):
        for _ in range(20):
            q = PureQubit(float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, 2 * math.pi)))
            assert np.linalg.norm(q.amplitudes()) == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_through_amplitudes(self, rng):
        for _ in range(20):
            q = PureQubit(float(rng.uniform(0.1, math.pi - 0.1)),
                          float(rng.uniform(0, 2 * math.pi)))
            back = from_amplitudes(q.amplitudes())
            assert back.theta == pytest.approx(q.theta, abs=1e-12)
            assert back.phi == pytest.approx(q.phi, abs=1e-12)


class TestCloneIsometry:
    def test_columns_orthonormal(self, rng):
        for _ in range(50):
            v = np.asarray(clone_isometry(random_params(rng)), dtype=complex)
            assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-14

    def test_columns_have_disjoint_support(self, rng):
        v = np.asarray(clone_isometry(random_params(rng)), dtype=complex)
        overlap = complex(v[:, 0].conj() @ v[:, 1])
        assert overlap == 0

    def test_upper_boundary_columns(self):
        v = np.asarray(clone_isometry(pcc_params(True)), dtype=complex)
        expected0 = np.zeros(8)
        expected0[0b001] = 1.0
        assert np.linalg.norm(v[:, 0] - expected0) <= 1e-15
        expected1 = np.zeros(8)
        expected1[0b011] = expected1[0b101] = 1 / SQRT2
        assert np.linalg.norm(v[:, 1] - expected1) <= 1e-15

    def test_state_independent_column(self):
        v = np.asarray(clone_isometry(uc_params()), dtype=complex)
        expected = np.zeros(8)
        expected[0b001] = math.sqrt(2 / 3)
        expected[0b010] = expected[0b100] = math.sqrt(1 / 6)
        assert np.linalg.norm(v[:, 0] - expected) <= 1e-12


class TestApplyClone:
    def test_pole_input_upper_boundary(self):
        out = apply_clone(PureQubit(0.0), pcc_params(True))
        expected = np.zeros(8)
        expected[0b001] = 1.0
        assert np.linalg.norm(out - expected) <= 1e-15

    def test_antipode_input_upper_boundary(self):
        out = apply_clone(PureQubit(math.pi), pcc_params(True))
        expected = np.zeros(8)
        expected[0b011] = expected[0b101] = 1 / SQRT2
        assert np.linalg.norm(out - expected) <= 1e-12

    def test_output_norm_one(self, rng):
        for _ in range(30):
            q = PureQubit(float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, 2 * math.pi)))
            out = apply_clone(q, random_params(rng))
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_equator_with_uc_angles_gives_five_sixths(self):
        q = PureQubit(math.pi / 2, 0.0)
        assert clone_fidelity_sim(q, uc_params(), 1) == pytest.approx(5 / 6, abs=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rho1 = np.array([[1, 0], [0, 0]], dtype=complex)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        rho23 = np.outer(a, a.conj())
        rho = np.kron(rho1, rho23)
        assert np.linalg.norm(partial_trace(rho, {1}) - rho1) <= 1e-14

    def test_bell_pair_reduces_to_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0b00] = bell[0b11] = 1 / SQRT2
        state = np.kron(bell, np.array([1, 0], dtype=complex))
        rho = np.outer(state, state.conj())
        assert np.linalg.norm(partial_trace(rho, {1}) - np.eye(2) / 2) <= 1e-14

    def test_trace_preserved(self, rng):
        out = np.asarray(apply_clone(PureQubit(0.9, 1.3), random_params(rng)))
        rho = np.outer(out, out.conj())
        for keep in ({1}, {2}, {3}, {1, 2}, {2, 3}):
            red = partial_trace(rho, keep)
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(red - red.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(red).min() >= -1e-10

    def test_matches_closed_form_clone_state(self, rng):
        for _ in range(25):
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            p = random_params(rng)
            out = np.asarray(apply_clone(PureQubit(theta, phi), p))
            rho = np.outer(out, out.conj())
            got = partial_trace(rho, {1})
            expected = reduced_clone_closed_form(theta, phi, p)
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_validates_subset(self):
        rho = np.eye(8, dtype=complex) / 8
        with pytest.raises(DomainError):
            partial_trace(rho, set())
        with pytest.raises(DomainError):
            partial_trace(rho, {4})


# interior angle pairs, either boundary angle, and the UC and both PCC cloners
_ALPHA = st.one_of(st.sampled_from([0.0, math.pi / 2]),
                   st.floats(0.0, math.pi / 2))
_CLONERS = st.one_of(
    st.sampled_from([uc_params(), pcc_params(True), pcc_params(False)]),
    st.builds(angle_params, _ALPHA, _ALPHA))
_ANGLE = st.floats(-1e3, 1e3)


class TestScalarSimulationMatchesArrayReference:
    @settings(max_examples=500, deadline=None)
    @given(theta=st.one_of(st.floats(-4 * math.pi, 4 * math.pi), _ANGLE),
           phi=st.one_of(st.floats(-4 * math.pi, 4 * math.pi), _ANGLE),
           p=_CLONERS)
    def test_amplitudes_exact_and_fidelities_to_rounding(self, theta, phi, p):
        amps, out, fids = simulate_reference(theta, phi, p)
        q = PureQubit(theta, phi)
        # repr tells -0.0 from 0.0, so signed zeros must match too
        assert [repr(a) for a in q.amplitudes()] == [repr(complex(a)) for a in amps]
        assert [repr(a) for a in apply_clone(q, p)] == [repr(complex(a)) for a in out]
        closed = single_copy_fidelity(theta, p)
        for i, f_ref in zip((1, 2), fids):
            f = clone_fidelity_sim(q, p, i)
            assert abs(f - f_ref) <= 1e-15
            assert abs(f - closed) <= 1e-15


class TestCloneFidelity:
    def test_pole_exact_copy(self):
        assert clone_fidelity_sim(PureQubit(0.0), pcc_params(True), 1) == pytest.approx(
            1.0, abs=1e-14)

    def test_uc_flat_at_five_sixths(self, rng):
        p = uc_params()
        for _ in range(10):
            q = PureQubit(float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, 2 * math.pi)))
            assert clone_fidelity_sim(q, p, 1) == pytest.approx(5 / 6, abs=1e-12)

    def test_equator_quarter_angles_second_clone(self):
        p = optimal_angles(MomentPair(0.0, -0.5))
        q = PureQubit(math.pi / 2, 1.234)
        assert clone_fidelity_sim(q, p, 2) == pytest.approx(
            (4 + 2 * SQRT2) / 8, abs=1e-12)

    def test_matches_closed_form_and_swap_symmetric(self, rng):
        thetas = np.linspace(0, math.pi, 50)
        for _ in range(50):
            phi = float(rng.uniform(0, 2 * math.pi))
            p = random_params(rng)
            for theta in thetas:
                q = PureQubit(float(theta), phi)
                f1 = clone_fidelity_sim(q, p, 1)
                f2 = clone_fidelity_sim(q, p, 2)
                assert abs(f1 - f2) <= 1e-12
                assert f1 == pytest.approx(
                    single_copy_fidelity(float(theta), p), abs=1e-12)

    def test_phase_independent(self, rng):
        p = random_params(rng)
        theta = 1.1
        base = clone_fidelity_sim(PureQubit(theta, 0.0), p, 1)
        for phi in np.linspace(0, 2 * math.pi, 17):
            f = clone_fidelity_sim(PureQubit(theta, float(phi)), p, 1)
            assert abs(f - base) <= 1e-12

    def test_clone_index_validated(self):
        with pytest.raises(DomainError):
            clone_fidelity_sim(PureQubit(0.3), uc_params(), 3)


class TestFrames:
    def test_identity_frame(self):
        q = PureQubit(0.7, 1.9)
        out = rotate_frame(q, AxisFrame(0.0, 0.0))
        assert out.theta == pytest.approx(q.theta, abs=1e-14)
        assert out.phi == pytest.approx(q.phi, abs=1e-14)

    def test_frame_matrix_unitary(self, rng):
        for _ in range(20):
            f = AxisFrame(float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, 2 * math.pi)))
            u = f.matrix()
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-14

    def test_axis_state_maps_to_north_pole(self, rng):
        for _ in range(10):
            vt = float(rng.uniform(0, math.pi))
            vp = float(rng.uniform(0, 2 * math.pi))
            q = rotate_frame(PureQubit(vt, vp), AxisFrame(vt, vp))
            assert q.theta == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self, rng):
        for _ in range(30):
            q = PureQubit(float(rng.uniform(0.05, math.pi - 0.05)),
                          float(rng.uniform(0, 2 * math.pi)))
            f = AxisFrame(float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, 2 * math.pi)))
            back = rotate_frame(rotate_frame(q, f), f, inverse=True)
            assert np.linalg.norm(np.asarray(back.amplitudes())
                                  - np.asarray(q.amplitudes())) <= 1e-12

    def test_frame_covariance_of_cloning(self, rng):
        # cloning the frame-relative qubit and rotating the three outputs to
        # the global basis equals conjugating the isometry by the frame
        for _ in range(20):
            p = random_params(rng)
            f = AxisFrame(float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, 2 * math.pi)))
            g = PureQubit(float(rng.uniform(0.05, math.pi - 0.05)),
                          float(rng.uniform(0, 2 * math.pi)))
            u = f.matrix()
            u3 = np.kron(np.kron(u, u), u)
            v = np.asarray(clone_isometry(p), dtype=complex)

            out_a = u3 @ (v @ rotate_frame(g, f).amplitudes())
            out_b = (u3 @ v @ u.conj().T) @ g.amplitudes()
            # the frame-relative qubit is canonical, i.e. defined up to a
            # global phase; align it before comparing amplitudes
            phase = np.vdot(out_a, out_b)
            phase /= abs(phase)
            assert np.linalg.norm(out_a - out_b / phase) <= 1e-12
