"""Quantum circuit realising the optimal cloner on three qubits.

The input state enters on qubit 1 with qubits 2 and 3 prepared in |0>.  The
gate sequence is a controlled y-rotation by 2(a- - a+) from qubit 1 onto the
ancilla, an unconditional y-rotation of the ancilla by 2 a+, a controlled
Hadamard, a CNOT cascade (1->3, 2->1, 3->2), and a final NOT on the ancilla.
The NOT only flips the ancilla's reference basis - the clones' reduced
states are untouched - but it is required for the circuit columns to equal
the cloning isometry exactly rather than up to that relabelling.

When a+ = a- the controlled rotation is the identity and the remaining
gates form the fixed mirror-symmetric cloning circuit.

The circuit's 8x8 unitary is built gate by gate on a (2, 2, 2, 8) view of
the running product: each gate mixes the two slices at its target bit 0
and 1, taken where its control bit is set, with no Kronecker product.
"""

from __future__ import annotations

import math

from ._value import Value
from .errors import DomainError
from .optimal import ClonerParams

__all__ = ["Gate", "build_circuit", "circuit_unitary"]

_H = 1 / math.sqrt(2.0)
_NOT = ((0.0, 1.0), (1.0, 0.0))
_HADAMARD = ((_H, _H), (_H, -_H))


def _ry(theta: float):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (c, -s), (s, c)


# kind -> (takes a control qubit, takes an angle, its 2x2 on the target as
# a function of the angle)
_KINDS = {
    "Ry": (False, True, _ry),
    "CRy": (True, True, _ry),
    "CNOT": (True, False, lambda _: _NOT),
    "CH": (True, False, lambda _: _HADAMARD),
    "X": (False, False, lambda _: _NOT),
}


class Gate(Value):
    """One gate on the 3-qubit register; qubit indices are 1-based."""

    __slots__ = keys = ("kind", "target", "control", "param")

    def __init__(self, kind: str, target: int, control: int | None = None,
                 param: float | None = None):
        if kind not in _KINDS:
            raise DomainError(f"unknown gate kind {kind!r}")
        needs_control, needs_param, _ = _KINDS[kind]
        for q in (target, control):
            if q is not None and q not in (1, 2, 3):
                raise DomainError(f"qubit index {q} outside 1..3")
        if control == target:
            raise DomainError("control and target must differ")
        if needs_control and control is None:
            raise DomainError(f"{kind} requires a control qubit")
        if not needs_control and control is not None:
            raise DomainError(f"{kind} takes no control qubit")
        if needs_param and param is None:
            raise DomainError(f"{kind} requires an angle")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "param", param)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": [] if self.param is None else [self.param],
            "control": self.control,
            "target": self.target,
        }


def build_circuit(p: ClonerParams) -> tuple[Gate, ...]:
    """Gate realisation of the cloner; the first gate is applied first."""
    phi = 2 * (p.alpha_minus - p.alpha_plus)
    omega = 2 * p.alpha_plus
    return (
        Gate("CRy", 3, control=1, param=phi),
        Gate("Ry", 3, param=omega),
        Gate("CH", 2, control=3),
        Gate("CNOT", 3, control=1),
        Gate("CNOT", 1, control=2),
        Gate("CNOT", 2, control=3),
        Gate("X", 3),
    )


# The 8x8 matrix view below is the only numpy user in this module; it imports
# numpy on first call, so building and printing a circuit never loads it.

def circuit_unitary(gates: tuple[Gate, ...]):
    """Complex 8x8 numpy product of the gate unitaries, first gate rightmost.

    The running product is viewed as a (2, 2, 2, 8) tensor whose first three
    axes are the row bits of qubits 1, 2, 3 (qubit q is bit 1 << (3 - q)).
    A gate mixes the two slices of that tensor at target bit 0 and 1, taken
    where its control bit is set; both are views, so no row is copied.
    """
    import numpy as np

    u = np.eye(8, dtype=complex)
    v = u.reshape(2, 2, 2, 8)
    for g in gates:
        (m00, m01), (m10, m11) = _KINDS[g.kind][2](g.param)
        axes = [slice(None)] * 3
        if g.control is not None:
            axes[g.control - 1] = 1
        axes[g.target - 1] = 0
        lo = tuple(axes)
        axes[g.target - 1] = 1
        hi = tuple(axes)
        u0, u1 = v[lo], v[hi]
        v[lo], v[hi] = m00 * u0 + m01 * u1, m10 * u0 + m11 * u1
    return u
