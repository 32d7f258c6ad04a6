"""Exact simulation of the cloning transformation on three qubits.

Qubit order is (clone1, clone2, ancilla); the logical basis is the axis
frame, so |0> is the symmetry-axis state.  The cloner acts as the isometry

    |0> -> cos(a+) |001> + sin(a+) (|010> + |100>) / sqrt(2),
    |1> -> cos(a-) |110> + sin(a-) (|011> + |101>) / sqrt(2),

whose two columns have disjoint support and are therefore orthonormal for
any angles.  One input state is eight complex amplitudes and a clone's
reduced state is 2x2, so everything here is scalar ``math`` and ``cmath``;
no array library is loaded.  Clone fidelities computed here from first
principles must agree with the closed form in :mod:`axiclone.optimal` to
near machine precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .optimal import ClonerParams

__all__ = ["PureQubit", "clone_isometry", "apply_clone", "clone_fidelity_sim"]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PureQubit:
    """Bloch angles (theta, phi) measured from the symmetry axis."""

    theta: float
    phi: float = 0.0

    def amplitudes(self) -> tuple[complex, complex]:
        return (complex(math.cos(self.theta / 2)),
                cmath.exp(1j * self.phi) * math.sin(self.theta / 2))


def clone_isometry(p: ClonerParams) -> list[list[float]]:
    """8x2 entries whose columns are the images of |0> and |1> (ancillae |00>)."""
    cp, sp = math.cos(p.alpha_plus), math.sin(p.alpha_plus)
    cm, sm = math.cos(p.alpha_minus), math.sin(p.alpha_minus)
    v = [[0.0, 0.0] for _ in range(8)]
    v[0b001][0] = cp
    v[0b010][0] = v[0b100][0] = sp / _SQRT2
    v[0b110][1] = cm
    v[0b011][1] = v[0b101][1] = sm / _SQRT2
    return v


def apply_clone(q: PureQubit, p: ClonerParams) -> list[complex]:
    """Three-qubit output state for input q, as 8 complex amplitudes."""
    a0, a1 = q.amplitudes()
    # + 0j turns a -0.0 part into +0.0, as a matrix-vector product does
    return [v0 * a0 + v1 * a1 + 0j for v0, v1 in clone_isometry(p)]


def clone_fidelity_sim(q: PureQubit, p: ClonerParams, i: int = 1) -> float:
    """Overlap of clone ``i`` with the input state, from the full 3-qubit state."""
    if i not in (1, 2):
        raise DomainError(f"clone index must be 1 or 2, got {i}")
    out = apply_clone(q, p)
    bit = 1 << (3 - i)  # clone i's bit in the basis index
    rest = [r for r in range(8) if not r & bit]
    rho = [[sum(out[r | j * bit] * out[r | k * bit].conjugate() for r in rest)
            for k in (0, 1)] for j in (0, 1)]
    a = q.amplitudes()
    # <a| rho |a>, with <a| rho contracted first
    bra = [a[0].conjugate() * rho[0][k] + a[1].conjugate() * rho[1][k]
           for k in (0, 1)]
    return (bra[0] * a[0] + bra[1] * a[1]).real
