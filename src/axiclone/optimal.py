"""Optimal cloning angles and average fidelities from Legendre moments.

A symmetric 1->2 cloner is parametrised by two angles (alpha_plus,
alpha_minus) in [0, pi/2].  For an ensemble with moments (a1, a2), write

    x_pm  = 1 + 2 a2 +- 3 a1,
    Gamma = 6 sqrt(2) a1 (a2 - 1) / (x+ x-),
    Omega = 2 sqrt(2) (1 + 2 a2) (1 - a2) / sqrt(3 x+ x- rad),
    rad   = 3 + 4 a2^2 - 3 a1^2 - 4 a2.

While |Gamma| < 1 the optimum sits in the interior,

    2 alpha_pm = arcsin(Omega) +- arcsin(Gamma),

with Omega the normalised interior stationary value; once |Gamma| >= 1 the
optimum is a boundary cloner (alpha+, alpha-) = (0, pi/2) or (pi/2, 0).
Near a pole x+ x- and rad are small differences of O(1) terms, and asin's
slope near |Gamma| = 1 amplifies their rounding.  Where |a1|, a2 >= 1/2 they
are therefore formed from the deviations d1 = 1 - |a1| and d2 = 1 - a2 from
the pole on a1's side, which are exact there:

    x_near = 3 d1 - 2 d2,   x_far = 6 - 3 d1 - 2 d2,   x+ x- = x_near x_far,
    Gamma  = -6 sqrt(2) a1 d2 / (x_near x_far),
    rad    = 3 d1 (1 + |a1|) - 4 a2 d2,
    Omega  = 2 sqrt(2) (1 + 2 a2) d2 / sqrt(3 x_near x_far rad).

No search picks the branch: with b = arcsin(Omega), d = arcsin(Gamma) and
m2 = (2 a2 + 1)/3 >= a1^2, the fidelity F(alpha+, alpha-) obeys

    F((b + d)/2, (b - d)/2) - F((pi - b + d)/2, (pi - b - d)/2)
        = m2 cos(b) cos(d) / 2 >= 0,
    F(0, pi/2) - F(pi/2, 0) = a1 / 2,

so the principal arcsin branch always wins, and the upper cloner (0, pi/2)
wins iff a1 >= 0.  The removable x+ x- -> 0 singularity at
(a1, a2) -> (0, -1/2) is routed through its analytic limit.
"""

from __future__ import annotations

import math
from enum import Enum

from ._value import Value
from .dist import FEASIBILITY_TOL, MomentPair, validate_moments
from .errors import InfeasibleMomentsError

__all__ = [
    "Regime", "ClonerParams", "optimal_angles",
    "single_copy_fidelity", "average_fidelity", "numeric_optimum",
    "uc_params", "pcc_params", "UC_ALPHA",
]

SQRT2 = math.sqrt(2.0)

# Universal-cloner angle: both clones at fidelity 5/6, cos^2(alpha) = 2/3.
UC_ALPHA = 0.5 * math.asin(2.0 * SQRT2 / 3.0)

DEGENERACY_EPS = 1e-12
# Fidelity difference below which two candidate cloners count as tied.
_TIE_TOL = 1e-14
# alpha_plus rows per block of numeric_optimum's mesh; a 33-row refinement
# mesh is one block.
_MESH_BLOCK = 50


class Regime(str, Enum):
    INTERIOR = "Interior"
    PCC_UPPER = "PccUpper"
    PCC_LOWER = "PccLower"


class ClonerParams(Value):
    """Cloning angles plus the diagnostics that selected them."""

    __slots__ = keys = ("alpha_plus", "alpha_minus", "gamma", "omega_value",
                        "regime")

    def __init__(self, alpha_plus: float, alpha_minus: float, gamma: float,
                 omega_value: float, regime: Regime):
        object.__setattr__(self, "alpha_plus", alpha_plus)
        object.__setattr__(self, "alpha_minus", alpha_minus)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "omega_value", omega_value)
        object.__setattr__(self, "regime", regime)


def _x_terms(a1: float, a2: float) -> tuple[float, float]:
    """x+ x- and the radicand rad of Omega, in the module docstring's forms.

    The deviation form where |a1|, a2 >= 1/2, so that d1 and d2 are exact
    (Sterbenz's lemma).  Elsewhere the moment form: for a small |a1|,
    d1 = 1 - |a1| rounds away a1's low bits, and near the lines x+- = 0 the
    small x_near = 3 d1 - 2 d2 would put Gamma off by up to 2.5e-9
    relative, against 1.5e-13 for the moment form.
    """
    if abs(a1) >= 0.5 and a2 >= 0.5:
        d1, d2 = 1 - abs(a1), 1 - a2
        return ((3 * d1 - 2 * d2) * (6 - 3 * d1 - 2 * d2),
                3 * d1 * (1 + abs(a1)) - 4 * a2 * d2)
    return ((1 + 2 * a2 + 3 * a1) * (1 + 2 * a2 - 3 * a1),
            3 + 4 * a2 * a2 - 3 * a1 * a1 - 4 * a2)


def _omega(a2: float, prod: float, rad: float) -> float:
    """Interior stationary value Omega; NaN where 3 x+ x- rad <= 0.

    Only the sign of the whole product matters: where x+ x- and the radicand
    are both negative Omega still has a value, which the boundary regimes
    report as a diagnostic.
    """
    denom_sq = 3 * prod * rad
    if denom_sq <= 0:
        return math.nan
    return 2 * SQRT2 * (1 + 2 * a2) * (1 - a2) / math.sqrt(denom_sq)


def _coefficients(alpha_plus, alpha_minus, cos=math.cos, sin=math.sin):
    """The cloner's factors (c+, c-, c_S) of the average fidelity.

    ``math`` functions give one angle pair's; numpy's give a mesh of them.
    """
    return (2 * (3 + cos(2 * alpha_plus)), 2 * (3 + cos(2 * alpha_minus)),
            sin(alpha_plus) ** 2 + sin(alpha_minus) ** 2
            + 2 * SQRT2 * sin(alpha_plus + alpha_minus))


def _weights(m) -> tuple[float, float, float]:
    """The ensemble's factors (M+, M-, S) of the average fidelity.

    The single-copy fidelity is quadratic in cos(theta), so the ensemble
    average reduces exactly to the moments: with m2 = (2 a2 + 1)/3,
    M+- = (1 +- 2 a1 + m2)/4 and S = 1 - m2.
    """
    a1, a2 = m
    m2 = (2 * a2 + 1) / 3
    return (1 + 2 * a1 + m2) / 4, (1 - 2 * a1 + m2) / 4, 1 - m2


def _fidelity(c, w):
    """Average fidelity (c+ M+ + c- M- + c_S S)/8 of factors ``c`` and ``w``."""
    return 0.125 * (c[0] * w[0] + c[1] * w[1] + c[2] * w[2])


def average_fidelity(m, p: ClonerParams) -> float:
    """Ensemble-average single-copy fidelity of the cloner ``p``."""
    return float(_fidelity(_coefficients(p.alpha_plus, p.alpha_minus),
                           _weights(m)))


def single_copy_fidelity(theta: float, p: ClonerParams) -> float:
    """Clone fidelity for an input at polar angle theta from the axis."""
    x = math.cos(theta)  # a ring at theta has the moments (x, P2(x))
    return average_fidelity((x, (3 * x * x - 1) / 2), p)


def uc_params() -> ClonerParams:
    """The state-independent cloner (optimal for the uniform ensemble)."""
    return ClonerParams(UC_ALPHA, UC_ALPHA, 0.0, 2 * SQRT2 / 3, Regime.INTERIOR)


def pcc_params(upper: bool = True) -> ClonerParams:
    """One of the two boundary cloners, as a standalone parameter set."""
    return _boundary(upper, math.inf if upper else -math.inf, math.nan)


def _boundary(upper: bool, gamma: float, omega: float) -> ClonerParams:
    """Boundary cloner (0, pi/2) if ``upper`` else (pi/2, 0), with diagnostics."""
    if upper:
        return ClonerParams(0.0, math.pi / 2, gamma, omega, Regime.PCC_UPPER)
    return ClonerParams(math.pi / 2, 0.0, gamma, omega, Regime.PCC_LOWER)


def _pole(a1: float) -> ClonerParams:
    """The cloner copying the pole on a1's side; Gamma is its limit sqrt(2)/a1."""
    return _boundary(a1 > 0, math.copysign(SQRT2, a1), math.nan)


def optimal_angles(m) -> ClonerParams:
    """Angles maximising the ensemble-average single-copy fidelity."""
    if not isinstance(m, MomentPair):
        m = MomentPair(*m)
    if not validate_moments(m):
        raise InfeasibleMomentsError(f"moments {tuple(m)} are not feasible")
    a1, a2 = m
    prod, rad = _x_terms(a1, a2)

    if abs(prod) < DEGENERACY_EPS:
        if abs(a1) > 0.5:
            return _pole(a1)  # point mass at a pole
        # equatorial limit a1 -> 0, a2 -> -1/2: cancel (1 + 2 a2) against
        # sqrt(x+ x-); feasibility forces 1 + 2 a2 >= 0 so the sign is +
        rad = 3 + 4 * a2 * a2 - 4 * a2
        omega = 2 * SQRT2 * (1 - a2) / math.sqrt(3 * rad)
        alpha = 0.5 * math.asin(min(omega, 1.0))
        equator = ClonerParams(alpha, alpha, 0.0, omega, Regime.INTERIOR)
        # x+ or x- alone can vanish too (E[x^2] = |E[x]|, a pole mixed with
        # the equator, or a ring just off the equator): there |Gamma| -> inf
        # and a boundary cloner wins.  On the equator itself all three tie,
        # so a boundary cloner must win by more than rounding.
        boundary = pcc_params(a1 >= 0)
        if average_fidelity(m, boundary) > average_fidelity(m, equator) + _TIE_TOL:
            return boundary
        return equator

    g = 6 * SQRT2 * a1 * (a2 - 1) / prod
    omega = _omega(a2, prod, rad)
    if abs(g) >= 1.0:
        return _boundary(a1 >= 0, g, omega)
    if prod <= 0:
        # |Gamma| < 1 with x+ x- <= 0 happens only within about 3.6e-9 of a
        # pole, inside FEASIBILITY_TOL: the pair is that pole
        return _pole(a1)

    # written as "not <=" so that a NaN Omega takes this path too
    if not omega <= 1.0 + 1e-9:
        p = _boundary(a1 >= 0, g, omega)
    else:
        omega = min(omega, 1.0)
        b, d = math.asin(omega), math.asin(g)
        # b <= pi/2 and |d| < pi/2, so both angles stay below pi/2
        ap, am = 0.5 * (b + d), 0.5 * (b - d)
        p = ClonerParams(max(ap, 0.0), max(am, 0.0), g, omega, Regime.INTERIOR)
        if ap >= -1e-12 and am >= -1e-12:
            return p
    # the interior formulas failed; within FEASIBILITY_TOL of a pole, where
    # x+ x- ~ 12 (a2 - 1) can exceed DEGENERACY_EPS while Gamma tends to
    # +-sqrt(2)/2, not the pole's +-sqrt(2), the pair is that pole
    if abs(abs(a1) - 1) <= FEASIBILITY_TOL and abs(a2 - 1) <= FEASIBILITY_TOL:
        return _pole(a1)
    return p


def numeric_optimum(m):
    """Brute-force maximiser of the average fidelity, as (alpha_plus, alpha_minus, F).

    The oracle for the closed form in the tests and in the benchmark's
    ``certify`` check; numpy loads on first call, off the scalar commands'
    path.  A 400 x 400 mesh over [0, pi/2]^2, then 33 x 33 meshes over +-8
    steps around the best point, clipped to the square, halving the step
    until it is below 1e-12.  Each mesh is evaluated in blocks of
    ``_MESH_BLOCK`` alpha_plus rows, so a call peaks under 1 MB; the best
    point is the first maximum in row-major order (``np.argmax`` within a
    block, a strict ``>`` across blocks), the point one whole-mesh
    ``np.argmax`` picks.  Where an interior optimum nearly ties with a
    boundary cloner, it returns the cloner: 2.3e-8 short at
    (0.931500981790047, 0.9394839264014601), where Gamma = -0.998, and
    6.4e-7 short at (8.65762827069415e-09, -0.49596959857460227).
    """
    import numpy as np

    m = MomentPair(*m)
    if not validate_moments(m):
        raise InfeasibleMomentsError(f"moments {tuple(m)} are not feasible")

    w = _weights(m)
    ap = am = np.linspace(0.0, math.pi / 2, 400)
    h = math.pi / 2 / 399
    while True:
        best = (0.0, 0.0, -math.inf)
        for lo in range(0, ap.size, _MESH_BLOCK):
            f = _fidelity(_coefficients(ap[lo:lo + _MESH_BLOCK, None],
                                        am[None, :], np.cos, np.sin), w)
            i, j = np.unravel_index(np.argmax(f), f.shape)
            if f[i, j] > best[2]:
                best = float(ap[lo + i]), float(am[j]), float(f[i, j])
        if h < 1e-12:
            return best
        ap, am = (np.linspace(max(0.0, c - 8 * h), min(math.pi / 2, c + 8 * h), 33)
                  for c in best[:2])
        h /= 2
