import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axiclone.circuit import Gate, build_circuit, circuit_unitary
from axiclone.dist import MomentPair
from axiclone.errors import DomainError
from axiclone.optimal import (optimal_angles, pcc_params, single_copy_fidelity,
                              uc_params)
from axiclone.qsim import clone_isometry
from conftest import angle_params, random_params
from oracles import kron_circuit_unitary, kron_gate_matrix, partial_trace

SQRT2 = math.sqrt(2.0)


def input_columns(u):
    """Action of the circuit on |b> (x) |00>, b in {0, 1}."""
    return u[:, [0b000, 0b100]]


# every kind on every target, and on every control where it takes one
PLACEMENTS = [(kind, t, c) for kind in ("Ry", "CRy", "CNOT", "CH", "X")
              for t in (1, 2, 3)
              for c in ([None] if kind in ("Ry", "X")
                        else sorted({1, 2, 3} - {t}))]


@st.composite
def gates(draw):
    kind, target, control = draw(st.sampled_from(PLACEMENTS))
    param = (draw(st.floats(-4 * math.pi, 4 * math.pi))
             if kind in ("Ry", "CRy") else None)
    return Gate(kind, target, control=control, param=param)


class TestGateMatrices:
    def test_identity_rotation(self):
        u = circuit_unitary((Gate("Ry", 3, param=0.0),))
        assert np.linalg.norm(u - np.eye(8)) == 0

    def test_all_gates_unitary(self, rng):
        gates = [
            Gate("Ry", 2, param=float(rng.uniform(0, 2 * math.pi))),
            Gate("CRy", 3, control=1, param=float(rng.uniform(0, 2 * math.pi))),
            Gate("CNOT", 1, control=2),
            Gate("CH", 2, control=3),
            Gate("X", 3),
        ]
        for g in gates:
            u = circuit_unitary((g,))
            assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-14

    def test_ch_direct_equals_decomposition(self):
        # the real involution A with A X A = H, on qubit 2, turns CNOT into CH
        a = np.array([[1.0, 1.0 + SQRT2], [1.0 + SQRT2, -1.0]]) / math.sqrt(4 + 2 * SQRT2)
        a_on_2 = np.kron(np.kron(np.eye(2), a), np.eye(2))
        cnot = circuit_unitary((Gate("CNOT", 2, control=3),))
        decomposed = a_on_2 @ cnot @ a_on_2
        direct = circuit_unitary((Gate("CH", 2, control=3),))
        assert np.linalg.norm(direct - decomposed) <= 1e-13

    def test_ch_identity_on_control_off_subspace(self):
        u = circuit_unitary((Gate("CH", 2, control=3),))
        # q3 = 0 indices are the even ones
        idx = [0, 2, 4, 6]
        assert np.linalg.norm(u[np.ix_(idx, idx)] - np.eye(4)) == 0

    @pytest.mark.parametrize("kind, target, control", PLACEMENTS)
    def test_each_placement_matches_kronecker_embedding(self, rng, kind,
                                                        target, control):
        for angle in rng.uniform(-4 * math.pi, 4 * math.pi, 5):
            param = float(angle) if kind in ("Ry", "CRy") else None
            g = Gate(kind, target, control=control, param=param)
            assert np.abs(circuit_unitary((g,))
                          - kron_gate_matrix(g)).max() <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(st.lists(gates(), min_size=1, max_size=10))
    def test_products_match_kronecker_embedding(self, circ):
        circ = tuple(circ)
        for g in circ:
            assert np.abs(circuit_unitary((g,))
                          - kron_gate_matrix(g)).max() <= 1e-15
        assert np.abs(circuit_unitary(circ)
                      - kron_circuit_unitary(circ)).max() <= 1e-15

    def test_gate_validation(self):
        with pytest.raises(DomainError):
            Gate("CNOT", 1, control=1)
        with pytest.raises(DomainError):
            Gate("Ry", 4, param=0.1)
        with pytest.raises(DomainError):
            Gate("CNOT", 1)
        with pytest.raises(DomainError):
            Gate("Hadamard", 1)


class TestBuildCircuit:
    def test_gate_sequence_and_angles(self):
        p = angle_params(0.3, 1.1)
        circ = build_circuit(p)
        kinds = [g.kind for g in circ]
        assert kinds == ["CRy", "Ry", "CH", "CNOT", "CNOT", "CNOT", "X"]
        assert circ[0].param == pytest.approx(2 * (1.1 - 0.3))
        assert circ[0].control == 1 and circ[0].target == 3
        assert circ[1].param == pytest.approx(2 * 0.3)
        assert (circ[2].control, circ[2].target) == (3, 2)
        assert (circ[3].control, circ[3].target) == (1, 3)
        assert (circ[4].control, circ[4].target) == (2, 1)
        assert (circ[5].control, circ[5].target) == (3, 2)

    def test_mirror_case_has_zero_controlled_angle(self):
        p = angle_params(0.7, 0.7)
        assert build_circuit(p)[0].param == 0.0

    def test_json_export_shape(self):
        circ = build_circuit(uc_params())
        dicts = [g.as_dict() for g in circ]
        assert all(set(d) == {"kind", "params", "control", "target"} for d in dicts)
        assert dicts[0]["params"] == [0.0]
        assert dicts[-1] == {"kind": "X", "params": [], "control": None, "target": 3}


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        assert np.array_equal(circuit_unitary(()), np.eye(8))

    def test_unitary(self, rng):
        u = circuit_unitary(build_circuit(random_params(rng)))
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-12

    def test_zero_angles_copy_branch(self):
        u = circuit_unitary(build_circuit(angle_params(0.0, 0.0)))
        state = u[:, 0b000]
        expected = np.zeros(8)
        expected[0b001] = 1.0
        assert np.linalg.norm(state - expected) <= 1e-14

    def test_matches_isometry_on_input_subspace(self, rng):
        for _ in range(100):
            p = random_params(rng)
            u = circuit_unitary(build_circuit(p))
            v = clone_isometry(p)
            assert np.linalg.norm(input_columns(u) - v) <= 1e-12

    def test_uc_circuit_output(self):
        u = circuit_unitary(build_circuit(uc_params()))
        expected = np.zeros(8)
        expected[0b001] = math.sqrt(2 / 3)
        expected[0b010] = expected[0b100] = math.sqrt(1 / 6)
        assert np.linalg.norm(u[:, 0] - expected) <= 1e-12

    def test_boundary_circuit_output(self):
        u = circuit_unitary(build_circuit(pcc_params(True)))
        expected = np.zeros(8)
        expected[0b011] = expected[0b101] = 1 / SQRT2
        assert np.linalg.norm(u[:, 0b100] - expected) <= 1e-12

    def test_cloner_matches_kronecker_embedding(self, rng):
        for _ in range(200):
            circ = build_circuit(random_params(rng))
            assert np.abs(circuit_unitary(circ)
                          - kron_circuit_unitary(circ)).max() <= 1e-15

    def test_mirror_reduction_drops_controlled_rotation(self, rng):
        for _ in range(10):
            alpha = float(rng.uniform(0, math.pi / 2))
            p = angle_params(alpha, alpha)
            full = build_circuit(p)
            trimmed = full[1:]
            du = input_columns(circuit_unitary(full))
            dt = input_columns(circuit_unitary(trimmed))
            assert np.linalg.norm(du - dt) <= 1e-12


class TestFidelityThroughCircuit:
    def test_reproduces_closed_form_on_grid(self, rng):
        from axiclone.qsim import PureQubit

        for _ in range(5):
            p = random_params(rng)
            u = circuit_unitary(build_circuit(p))
            for theta in np.linspace(0, math.pi, 9):
                q = PureQubit(float(theta), 0.35)
                amps = np.asarray(q.amplitudes())
                state = u @ np.kron(amps, np.array([1, 0, 0, 0], dtype=complex))
                rho = np.outer(state, state.conj())
                rho1 = partial_trace(rho, {1})
                f = float(np.real(amps.conj() @ rho1 @ amps))
                assert f == pytest.approx(single_copy_fidelity(float(theta), p),
                                          abs=1e-12)

    def test_optimal_circuit_for_equator(self):
        m = MomentPair(0.0, -0.5)
        u = circuit_unitary(build_circuit(optimal_angles(m)))
        v = clone_isometry(optimal_angles(m))
        assert np.linalg.norm(input_columns(u) - v) <= 1e-12
