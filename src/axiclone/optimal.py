"""Optimal cloning angles and average fidelities from Legendre moments.

A symmetric 1->2 cloner is parametrised by two angles (alpha_plus,
alpha_minus) in [0, pi/2].  For an ensemble with moments (a1, a2), write

    x_pm  = 1 + 2 a2 +- 3 a1,
    Gamma = 6 sqrt(2) a1 (a2 - 1) / (x+ x-).

While |Gamma| < 1 the optimum sits in the interior,

    2 alpha_pm = arcsin(Omega) +- arcsin(Gamma),

with Omega the normalised interior stationary value; once |Gamma| >= 1 the
optimum is a boundary cloner (alpha+, alpha-) = (0, pi/2) or (pi/2, 0).
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
from .dist import MomentPair, validate_moments
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


def _omega(a1: float, a2: float, prod: float) -> float:
    """Interior stationary value Omega; NaN where 3 x+ x- rad <= 0.

    Only the sign of the whole product matters: where x+ x- and the radicand
    are both negative Omega still has a value, which the boundary regimes
    report as a diagnostic.
    """
    rad = 3 + 4 * a2 * a2 - 3 * a1 * a1 - 4 * a2
    denom_sq = 3 * prod * rad
    if denom_sq <= 0:
        return math.nan
    return 2 * SQRT2 * (1 + 2 * a2) * (1 - a2) / math.sqrt(denom_sq)


def _fidelity(m, alpha_plus, alpha_minus, cos, sin):
    """The average-fidelity formula, with ``cos`` and ``sin`` supplied.

    The single-copy fidelity is quadratic in cos(theta), so the ensemble
    average reduces exactly to the moments: with m2 = (2 a2 + 1)/3,
    M+- = (1 +- 2 a1 + m2)/4 and S = 1 - m2.  ``math`` functions evaluate
    one angle pair; numpy's evaluate a mesh of them.
    """
    a1, a2 = m
    m2 = (2 * a2 + 1) / 3
    mp = (1 + 2 * a1 + m2) / 4
    mm = (1 - 2 * a1 + m2) / 4
    s = 1 - m2
    return 0.125 * (
        2 * (3 + cos(2 * alpha_plus)) * mp
        + 2 * (3 + cos(2 * alpha_minus)) * mm
        + (sin(alpha_plus) ** 2 + sin(alpha_minus) ** 2
           + 2 * SQRT2 * sin(alpha_plus + alpha_minus)) * s)


def average_fidelity(m, p: ClonerParams) -> float:
    """Ensemble-average single-copy fidelity of the cloner ``p``."""
    return float(_fidelity(m, p.alpha_plus, p.alpha_minus, math.cos, math.sin))


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


def optimal_angles(m) -> ClonerParams:
    """Angles maximising the ensemble-average single-copy fidelity."""
    m = MomentPair(*m)
    if not validate_moments(m):
        raise InfeasibleMomentsError(f"moments {tuple(m)} are not feasible")
    a1, a2 = m
    prod = (1 + 2 * a2 + 3 * a1) * (1 + 2 * a2 - 3 * a1)

    if abs(prod) < DEGENERACY_EPS:
        if abs(a1) > 0.5:
            # point mass at a pole: clone that pole exactly;
            # gamma set to its directional limit sqrt(2)/a1 along deltas
            return _boundary(a1 > 0, math.copysign(SQRT2, a1), math.nan)
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
    omega = _omega(a1, a2, prod)
    if abs(g) >= 1.0:
        return _boundary(a1 >= 0, g, omega)

    # written as "not <=" so that a NaN Omega is rejected too
    if prod <= 0 or not omega <= 1.0 + 1e-9:
        raise InfeasibleMomentsError(
            f"interior stationary value {omega} (x+ x- = {prod:.3e}) at {tuple(m)}")
    omega = min(omega, 1.0)

    b, d = math.asin(omega), math.asin(g)
    ap, am = 0.5 * (b + d), 0.5 * (b - d)
    if not (-1e-12 <= ap <= math.pi / 2 + 1e-12
            and -1e-12 <= am <= math.pi / 2 + 1e-12):
        raise InfeasibleMomentsError(
            f"interior angles ({ap}, {am}) outside [0, pi/2] at {tuple(m)}")
    ap = min(max(ap, 0.0), math.pi / 2)
    am = min(max(am, 0.0), math.pi / 2)
    return ClonerParams(ap, am, g, omega, Regime.INTERIOR)


def numeric_optimum(m):
    """Brute-force maximiser of the average fidelity; oracle for the closed form.

    The benchmark's ``certify`` workload and the tests check ``F_opt``
    against it, so it stays in the package; it imports numpy on first call,
    which keeps numpy off the scalar path of ``params``, ``sweep`` and
    ``circuit``.  Scans a 400 x 400 mesh over [0, pi/2]^2 in one vectorised
    evaluation, then refines coordinatewise by shrinking bracketed sweeps
    until the step falls below 1e-12.
    Returns (alpha_plus, alpha_minus, fidelity).
    """
    import numpy as np

    m = MomentPair(*m)
    if not validate_moments(m):
        raise InfeasibleMomentsError(f"moments {tuple(m)} are not feasible")

    def fidelity(ap, am):
        return _fidelity(m, ap, am, np.cos, np.sin)

    axis = np.linspace(0.0, math.pi / 2, 400)
    ap_mesh, am_mesh = np.meshgrid(axis, axis, indexing="ij")
    f_mesh = fidelity(ap_mesh, am_mesh)
    i, j = np.unravel_index(np.argmax(f_mesh), f_mesh.shape)
    ap, am = float(axis[i]), float(axis[j])
    f_best = float(f_mesh[i, j])

    h = float(axis[1] - axis[0])
    while h > 1e-12:
        # sweep both coordinates to stationarity at this scale, then shrink;
        # re-sweeping lets the point walk along diagonal valleys
        for _ in range(64):
            moved = False
            sweep = np.linspace(max(0.0, ap - h), min(math.pi / 2, ap + h), 33)
            vals = fidelity(sweep, am)
            k = int(np.argmax(vals))
            if vals[k] > f_best + 1e-16:
                ap, f_best, moved = float(sweep[k]), float(vals[k]), True
            sweep = np.linspace(max(0.0, am - h), min(math.pi / 2, am + h), 33)
            vals = fidelity(ap, sweep)
            k = int(np.argmax(vals))
            if vals[k] > f_best + 1e-16:
                am, f_best, moved = float(sweep[k]), float(vals[k]), True
            if not moved:
                break
        h *= 0.25
    return ap, am, f_best
