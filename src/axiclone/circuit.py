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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .optimal import ClonerParams

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Gate", "build_circuit", "gate_matrix", "circuit_unitary",
]

KINDS = ("Ry", "CRy", "CNOT", "CH", "X")


@dataclass(frozen=True)
class Gate:
    """One gate on the 3-qubit register; qubit indices are 1-based."""

    kind: str
    target: int
    control: int | None = None
    param: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown gate kind {self.kind!r}")
        for q in (self.target, self.control):
            if q is not None and q not in (1, 2, 3):
                raise DomainError(f"qubit index {q} outside 1..3")
        if self.control == self.target:
            raise DomainError("control and target must differ")
        needs_control = self.kind in ("CRy", "CNOT", "CH")
        if needs_control and self.control is None:
            raise DomainError(f"{self.kind} requires a control qubit")
        if not needs_control and self.control is not None:
            raise DomainError(f"{self.kind} takes no control qubit")
        needs_param = self.kind in ("Ry", "CRy")
        if needs_param and self.param is None:
            raise DomainError(f"{self.kind} requires an angle")

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


# The matrix view below is the only numpy user in this module; it imports
# numpy on first call, so building and printing a circuit never loads it.

def gate_matrix(g: Gate) -> np.ndarray:
    """8x8 unitary of the gate embedded on its qubits."""
    import numpy as np

    eye = np.eye(2, dtype=complex)
    if g.kind in ("Ry", "CRy"):
        c, s = math.cos(g.param / 2), math.sin(g.param / 2)
        u = np.array([[c, -s], [s, c]], dtype=complex)
    elif g.kind == "CH":
        u = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    else:  # CNOT and X
        u = np.array([[0, 1], [1, 0]], dtype=complex)

    def kron3(ops):
        return np.kron(np.kron(ops[0], ops[1]), ops[2])

    act = [eye, eye, eye]
    act[g.target - 1] = u
    if g.control is None:
        return kron3(act)
    # |0><0| on the control leaves the target idle, |1><1| applies u
    idle = [eye, eye, eye]
    idle[g.control - 1] = np.diag([1.0, 0.0]).astype(complex)
    act[g.control - 1] = np.diag([0.0, 1.0]).astype(complex)
    return kron3(idle) + kron3(act)


def circuit_unitary(gates: tuple[Gate, ...]) -> np.ndarray:
    """Ordered product of the gate matrices (first gate rightmost)."""
    import numpy as np

    u = np.eye(8, dtype=complex)
    for g in gates:
        u = gate_matrix(g) @ u
    return u
