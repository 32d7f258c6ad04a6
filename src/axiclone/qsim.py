"""Exact simulation of the cloning transformation on three qubits.

Qubit order is (clone1, clone2, ancilla); the logical basis is the axis
frame, so |0> is the symmetry-axis state.  The cloner acts as the isometry

    |0> -> cos(a+) |001> + sin(a+) (|010> + |100>) / sqrt(2),
    |1> -> cos(a-) |110> + sin(a-) (|011> + |101>) / sqrt(2),

whose two columns have disjoint support and are therefore orthonormal for
any angles.  Clone fidelities computed here from first principles must agree
with the closed form in :mod:`axiclone.optimal` to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .optimal import ClonerParams

__all__ = [
    "PureQubit", "clone_isometry", "apply_clone", "partial_trace",
    "clone_fidelity_sim",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PureQubit:
    """Bloch angles (theta, phi) measured from the symmetry axis."""

    theta: float
    phi: float = 0.0

    def amplitudes(self) -> np.ndarray:
        return np.array([math.cos(self.theta / 2),
                         np.exp(1j * self.phi) * math.sin(self.theta / 2)],
                        dtype=complex)


def clone_isometry(p: ClonerParams) -> np.ndarray:
    """8x2 matrix whose columns are the images of |0> and |1> (ancillae |00>)."""
    cp, sp = math.cos(p.alpha_plus), math.sin(p.alpha_plus)
    cm, sm = math.cos(p.alpha_minus), math.sin(p.alpha_minus)
    v = np.zeros((8, 2), dtype=complex)
    v[0b001, 0] = cp
    v[0b010, 0] = sp / _SQRT2
    v[0b100, 0] = sp / _SQRT2
    v[0b110, 1] = cm
    v[0b011, 1] = sm / _SQRT2
    v[0b101, 1] = sm / _SQRT2
    return v


def apply_clone(q: PureQubit, p: ClonerParams) -> np.ndarray:
    """Three-qubit output state for input q, as 8 complex amplitudes."""
    return clone_isometry(p) @ q.amplitudes()


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out all qubits not in ``keep`` (1-based indices).

    Works for any square density matrix on 1..3 qubits.
    """
    rho = np.asarray(rho)
    dim = rho.shape[0]
    n = int(round(math.log2(dim)))
    if rho.shape != (dim, dim) or 2 ** n != dim:
        raise DomainError(f"expected a 2^n x 2^n matrix, got {rho.shape}")
    kept = sorted(set(int(k) for k in keep))
    if not kept or any(k < 1 or k > n for k in kept):
        raise DomainError(f"keep={keep!r} is not a non-empty subset of 1..{n}")
    if len(kept) == n:
        return rho.copy()
    t = rho.reshape([2] * (2 * n))
    row = list(range(n))
    col = [n + i if (i + 1) in kept else i for i in range(n)]
    out = [i for i in range(n) if (i + 1) in kept] + \
          [n + i for i in range(n) if (i + 1) in kept]
    d = 2 ** len(kept)
    return np.einsum(t, row + col, out).reshape(d, d)


def clone_fidelity_sim(q: PureQubit, p: ClonerParams, i: int = 1) -> float:
    """Overlap of clone ``i`` with the input state, from the full 3-qubit state."""
    if i not in (1, 2):
        raise DomainError(f"clone index must be 1 or 2, got {i}")
    out = apply_clone(q, p)
    rho = np.outer(out, out.conj())
    rho_i = partial_trace(rho, {i})
    amps = q.amplitudes()
    return float(np.real(amps.conj() @ rho_i @ amps))
