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

from ._value import Value
from .errors import DomainError
from .optimal import ClonerParams

__all__ = ["PureQubit", "clone_isometry", "apply_clone", "clone_fidelity_sim"]

_SQRT2 = math.sqrt(2.0)

# clone i -> the four rows with its bit clear, in ascending order, then the
# same rows with its bit set; clone i is bit 1 << (3 - i) of the row index
_CLONE_ROWS = {1: (0, 1, 2, 3, 4, 5, 6, 7), 2: (0, 1, 4, 5, 2, 3, 6, 7)}


class PureQubit(Value):
    """Bloch angles (theta, phi) measured from the symmetry axis."""

    __slots__ = keys = ("theta", "phi")

    def __init__(self, theta: float, phi: float = 0.0):
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise DomainError(
                f"Bloch angles must be finite, got theta={theta}, phi={phi}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

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


def _output(a0: complex, a1: complex, p: ClonerParams) -> list[complex]:
    # + 0j turns a -0.0 part into +0.0, as a matrix-vector product does
    return [v0 * a0 + v1 * a1 + 0j for v0, v1 in clone_isometry(p)]


def apply_clone(q: PureQubit, p: ClonerParams) -> list[complex]:
    """Three-qubit output state for input q, as 8 complex amplitudes."""
    return _output(*q.amplitudes(), p)


def clone_fidelity_sim(q: PureQubit, p: ClonerParams, i: int = 1) -> float:
    """Overlap of clone ``i`` with the input state, from the full 3-qubit state."""
    if i not in (1, 2):
        raise DomainError(f"clone index must be 1 or 2, got {i}")
    a0, a1 = q.amplitudes()
    out = _output(a0, a1, p)
    l0, l1, l2, l3, h0, h1, h2, h3 = [out[r] for r in _CLONE_ROWS[i]]
    m0, m1, m2, m3, n0, n1, n2, n3 = [out[r].conjugate()
                                      for r in _CLONE_ROWS[i]]
    # rho_jk = sum over the other two qubits' rows r of
    # out[r with clone bit j] * conj(out[r with clone bit k]), added from 0
    # in ascending r as sum() would, so the result rounds exactly as the
    # generic trace does, sign included
    r00 = 0 + l0 * m0 + l1 * m1 + l2 * m2 + l3 * m3
    r01 = 0 + l0 * n0 + l1 * n1 + l2 * n2 + l3 * n3
    r10 = 0 + h0 * m0 + h1 * m1 + h2 * m2 + h3 * m3
    r11 = 0 + h0 * n0 + h1 * n1 + h2 * n2 + h3 * n3
    # <a| rho |a>, with <a| rho contracted first
    b0, b1 = a0.conjugate(), a1.conjugate()
    return ((b0 * r00 + b1 * r10) * a0 + (b0 * r01 + b1 * r11) * a1).real
