"""Optimal cloning angles and average fidelities from Legendre moments.

A symmetric 1->2 cloner is parametrised by two angles (alpha_plus,
alpha_minus) in [0, pi/2].  For an ensemble with moments (a1, a2), write

    x_pm  = 1 + 2 a2 +- 3 a1,
    Gamma = 6 sqrt(2) a1 (a2 - 1) / (x+ x-).

While |Gamma| < 1 the optimum sits in the interior,

    2 alpha_pm = arcsin(Omega) +- arcsin(Gamma),

with Omega the normalised interior stationary value; once |Gamma| >= 1 the
optimum is one of the two boundary cloners (alpha+, alpha-) = (0, pi/2) or
(pi/2, 0), whichever averages better.  The arcsin branch is resolved by
evaluating both candidates, and the removable x+ x- -> 0 singularity at
(a1, a2) -> (0, -1/2) is routed through its analytic limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import MomentPair, validate_moments
from .errors import DegenerateDenominatorError, InfeasibleMomentsError

__all__ = [
    "Regime", "ClonerParams", "gamma", "optimal_angles",
    "single_copy_fidelity", "average_fidelity", "fidelity_from_angles",
    "numeric_optimum", "uc_params", "pcc_params", "UC_ALPHA",
]

SQRT2 = math.sqrt(2.0)

# Universal-cloner angle: both clones at fidelity 5/6, cos^2(alpha) = 2/3.
UC_ALPHA = 0.5 * math.asin(2.0 * SQRT2 / 3.0)

DEGENERACY_EPS = 1e-12
RADICAND_FLOOR = -1e-9
# Fidelity difference below which two candidate cloners count as tied.
_TIE_TOL = 1e-14


class Regime(str, Enum):
    INTERIOR = "Interior"
    PCC_UPPER = "PccUpper"
    PCC_LOWER = "PccLower"


@dataclass(frozen=True)
class ClonerParams:
    """Cloning angles plus the diagnostics that selected them."""

    alpha_plus: float
    alpha_minus: float
    gamma: float
    omega_value: float
    regime: Regime

    @property
    def alpha_sum(self) -> float:
        return self.alpha_plus + self.alpha_minus

    @classmethod
    def from_angles(cls, alpha_plus: float, alpha_minus: float) -> "ClonerParams":
        """Wrap an arbitrary angle pair (for simulation and sampling tests)."""
        return cls(alpha_plus, alpha_minus, 0.0,
                   math.sin(alpha_plus + alpha_minus), Regime.INTERIOR)


def _xpair(a1: float, a2: float) -> tuple[float, float]:
    return 1 + 2 * a2 + 3 * a1, 1 + 2 * a2 - 3 * a1


def gamma(m) -> float:
    """Branch discriminant Gamma; sign preserved.

    Raises DegenerateDenominatorError when x+ x- underflows; callers must go
    through optimal_angles, which takes the appropriate limit.
    """
    a1, a2 = m
    xp, xm = _xpair(a1, a2)
    prod = xp * xm
    if abs(prod) < DEGENERACY_EPS:
        raise DegenerateDenominatorError(
            f"x+ x- = {prod:.3e} is numerically zero at (a1, a2) = ({a1}, {a2})")
    return 6 * SQRT2 * a1 * (a2 - 1) / prod


def _omega_or_nan(a1: float, a2: float) -> float:
    """Interior stationary value where defined, NaN otherwise (diagnostic)."""
    xp, xm = _xpair(a1, a2)
    prod = xp * xm
    rad = 3 + 4 * a2 * a2 - 3 * a1 * a1 - 4 * a2
    denom_sq = 3 * prod * rad
    if denom_sq <= 0:
        return math.nan
    return 2 * SQRT2 * (1 + 2 * a2) * (1 - a2) / math.sqrt(denom_sq)


def fidelity_from_angles(m, alpha_plus, alpha_minus) -> float:
    """Ensemble-average single-copy fidelity for an explicit angle pair.

    The single-copy fidelity is quadratic in cos(theta), so the ensemble
    average reduces exactly to the moments: with m2 = (2 a2 + 1)/3,
    M+- = (1 +- 2 a1 + m2)/4 and S = 1 - m2.
    """
    a1, a2 = m
    m2 = (2 * a2 + 1) / 3
    mp = (1 + 2 * a1 + m2) / 4
    mm = (1 - 2 * a1 + m2) / 4
    s = 1 - m2
    return 0.125 * (
        2 * (3 + np.cos(2 * alpha_plus)) * mp
        + 2 * (3 + np.cos(2 * alpha_minus)) * mm
        + (np.sin(alpha_plus) ** 2 + np.sin(alpha_minus) ** 2
           + 2 * SQRT2 * np.sin(alpha_plus + alpha_minus)) * s)


def average_fidelity(m, p: ClonerParams) -> float:
    """Ensemble-average single-copy fidelity of the cloner ``p``."""
    return float(fidelity_from_angles(m, p.alpha_plus, p.alpha_minus))


def single_copy_fidelity(theta: float, p: ClonerParams) -> float:
    """Clone fidelity for an input at polar angle theta from the axis."""
    c2 = math.cos(theta / 2) ** 2
    s2 = math.sin(theta / 2) ** 2
    sin_sq = math.sin(theta) ** 2
    ap, am = p.alpha_plus, p.alpha_minus
    return 0.125 * (
        2 * (3 + math.cos(2 * ap)) * c2 * c2
        + 2 * (3 + math.cos(2 * am)) * s2 * s2
        + (math.sin(ap) ** 2 + math.sin(am) ** 2
           + 2 * SQRT2 * math.sin(ap + am)) * sin_sq)


def uc_params() -> ClonerParams:
    """The state-independent cloner (optimal for the uniform ensemble)."""
    return ClonerParams(UC_ALPHA, UC_ALPHA, 0.0, 2 * SQRT2 / 3, Regime.INTERIOR)


def pcc_params(upper: bool = True) -> ClonerParams:
    """One of the two boundary cloners, as a standalone parameter set."""
    if upper:
        return ClonerParams(0.0, math.pi / 2, math.inf, math.nan, Regime.PCC_UPPER)
    return ClonerParams(math.pi / 2, 0.0, -math.inf, math.nan, Regime.PCC_LOWER)


def optimal_angles(m) -> ClonerParams:
    """Angles maximising the ensemble-average single-copy fidelity."""
    m = MomentPair(*m)
    if not validate_moments(m):
        raise InfeasibleMomentsError(f"moments {tuple(m)} are not feasible")
    a1, a2 = m
    xp, xm = _xpair(a1, a2)
    prod = xp * xm

    if abs(prod) < DEGENERACY_EPS:
        if abs(a1) > 0.5:
            # point mass at a pole: clone that pole exactly;
            # gamma set to its directional limit sqrt(2)/a1 along deltas
            g = math.copysign(SQRT2, a1)
            if a1 > 0:
                return ClonerParams(0.0, math.pi / 2, g, math.nan, Regime.PCC_UPPER)
            return ClonerParams(math.pi / 2, 0.0, g, math.nan, Regime.PCC_LOWER)
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
        boundary = max((pcc_params(True), pcc_params(False)),
                       key=lambda p: average_fidelity(m, p))
        if average_fidelity(m, boundary) > average_fidelity(m, equator) + _TIE_TOL:
            return boundary
        return equator

    g = 6 * SQRT2 * a1 * (a2 - 1) / prod
    if abs(g) >= 1.0:
        omega = _omega_or_nan(a1, a2)
        upper = ClonerParams(0.0, math.pi / 2, g, omega, Regime.PCC_UPPER)
        lower = ClonerParams(math.pi / 2, 0.0, g, omega, Regime.PCC_LOWER)
        if average_fidelity(m, upper) >= average_fidelity(m, lower):
            return upper
        return lower

    rad = 3 + 4 * a2 * a2 - 3 * a1 * a1 - 4 * a2
    if rad < RADICAND_FLOOR or prod <= 0:
        raise InfeasibleMomentsError(
            f"interior radicand {rad:.3e} (x+ x- = {prod:.3e}) at {tuple(m)}")
    omega = 2 * SQRT2 * (1 + 2 * a2) * (1 - a2) / math.sqrt(3 * prod * max(rad, 0.0))
    if omega > 1.0 + 1e-9:
        raise InfeasibleMomentsError(f"interior stationary value {omega} > 1")
    omega = min(omega, 1.0)

    asin_o = math.asin(omega)
    asin_g = math.asin(g)
    best: ClonerParams | None = None
    best_f = -math.inf
    for base in (asin_o, math.pi - asin_o):
        ap = 0.5 * (base + asin_g)
        am = 0.5 * (base - asin_g)
        if not (-1e-12 <= ap <= math.pi / 2 + 1e-12
                and -1e-12 <= am <= math.pi / 2 + 1e-12):
            continue
        ap = min(max(ap, 0.0), math.pi / 2)
        am = min(max(am, 0.0), math.pi / 2)
        cand = ClonerParams(ap, am, g, omega, Regime.INTERIOR)
        f = average_fidelity(m, cand)
        if f > best_f:
            best, best_f = cand, f
    assert best is not None
    return best


def numeric_optimum(m, grid: int = 400, tol: float = 1e-10):
    """Brute-force maximiser of the average fidelity; oracle for the closed form.

    Scans a grid x grid mesh over [0, pi/2]^2, then refines coordinatewise by
    shrinking bracketed sweeps until the fidelity stops improving at ``tol``.
    Returns (alpha_plus, alpha_minus, fidelity).
    """
    m = MomentPair(*m)
    if not validate_moments(m):
        raise InfeasibleMomentsError(f"moments {tuple(m)} are not feasible")
    axis = np.linspace(0.0, math.pi / 2, grid)
    ap_mesh, am_mesh = np.meshgrid(axis, axis, indexing="ij")
    f_mesh = fidelity_from_angles(m, ap_mesh, am_mesh)
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
            vals = fidelity_from_angles(m, sweep, am)
            k = int(np.argmax(vals))
            if vals[k] > f_best + 1e-16:
                ap, f_best, moved = float(sweep[k]), float(vals[k]), True
            sweep = np.linspace(max(0.0, am - h), min(math.pi / 2, am + h), 33)
            vals = fidelity_from_angles(m, ap, sweep)
            k = int(np.argmax(vals))
            if vals[k] > f_best + 1e-16:
                am, f_best, moved = float(sweep[k]), float(vals[k]), True
            if not moved:
                break
        h *= 0.25
    return ap, am, f_best
