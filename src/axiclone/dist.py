"""Axisymmetric qubit ensembles on the Bloch sphere and their Legendre moments.

Each density-backed kind is defined by its one-dimensional marginal g(x) in
x = cos(theta), normalised so that the integral over [-1, 1] is 1; each
class docstring gives its g.  The ring kinds (single and mirror-pair delta
rings) are defined by their weighted latitudes instead.  The two leading
Legendre moments

    a1 = E[P1(x)] = E[x],        a2 = E[P2(x)] = E[(3 x^2 - 1) / 2]

fully determine the optimal symmetric 1->2 cloner for the ensemble, and they
are all this module computes.  Every parametric kind has them in closed form
(a short power series stands in where the closed form cancels), and a table
sums them exactly over its linear segments, so nothing here integrates
numerically.  The densities and the adaptive quadrature that cross-check
these moments are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple

from ._value import Value
from .errors import (DomainError, InfeasibleMomentsError, ParseError,
                     UnsupportedKindError)

__all__ = [
    "MomentPair", "AxisDistribution", "Uniform", "VonMisesFisher", "Brosseau",
    "HenyeyGreenstein", "Delta", "DeltaPair", "Belt", "Tabulated", "KINDS",
    "moments", "validate_moments", "load_tabulated", "spec_string",
]

# Slack absorbing the round-off of the closed-form and tabulated moments
# when checking feasibility.
FEASIBILITY_TOL = 1e-9


MomentPair = namedtuple("MomentPair", "a1 a2")


def _p2(x: float) -> float:
    """Legendre polynomial P2(x) = (3 x^2 - 1) / 2."""
    return (3 * x * x - 1) / 2


def validate_moments(m) -> bool:
    """True iff (a1, a2) can come from a distribution on [-1, 1].

    Requires |a1| <= 1, a2 <= 1 and the variance bound (2 a2 + 1)/3 >= a1^2,
    with ``FEASIBILITY_TOL`` slack so that round-off does not reject boundary
    cases such as point masses at the poles.
    """
    a1, a2 = m
    if not (math.isfinite(a1) and math.isfinite(a2)):
        return False
    return (abs(a1) <= 1 + FEASIBILITY_TOL and a2 <= 1 + FEASIBILITY_TOL
            and (2 * a2 + 1) / 3 >= a1 * a1 - FEASIBILITY_TOL)


class AxisDistribution(Value):
    """An axisymmetric ensemble of pure qubit states.

    ``kind`` is the name a spec string gives the kind, and ``keys`` names
    its parameters in ``__init__`` order; a parametric kind's spec keys are
    its ``keys``.  A kind lists its ``keys`` as its ``__slots__`` and sets
    them in its ``__init__`` with ``object.__setattr__``.
    """

    __slots__ = ()
    kind = ""

    def moment_pair(self) -> MomentPair:
        raise NotImplementedError


class Uniform(AxisDistribution):
    """Isotropic ensemble; marginal 1/2 on [-1, 1]."""

    __slots__ = ()
    kind = "uniform"

    def moment_pair(self) -> MomentPair:
        return MomentPair(0.0, 0.0)


class VonMisesFisher(AxisDistribution):
    """Spherical analogue of a Gaussian with concentration ``kappa``.

    Marginal kappa * exp(kappa x) / (2 sinh kappa); kappa < 0 concentrates
    around the antipode and kappa -> 0 recovers the uniform ensemble.
    """

    __slots__ = keys = ("kappa",)
    kind = "vmf"

    def __init__(self, kappa: float = 0.0):
        object.__setattr__(self, "kappa", kappa)

    def moment_pair(self) -> MomentPair:
        k = self.kappa
        if abs(k) < 1e-6:
            # series around 0; coth k - 1/k cancels catastrophically there
            return MomentPair(k / 3 - k ** 3 / 45, k * k / 15)
        a1 = 1.0 / math.tanh(k) - 1.0 / k
        # second moment from the half-integer Bessel recurrence
        a2 = 1.0 - 3.0 * a1 / k
        return MomentPair(a1, a2)


# Below this P the closed form of the axis moments cancels and the series
# takes over; near 0.8 both branches are within 1e-15 of exact.
_SERIES_BELOW = 0.8
# Series coefficient pairs (1/(4k^2 - 1), 1/(4(k+1)^2 - 1)), k = 72 .. 1;
# below _SERIES_BELOW the dropped tail is under 1e-16 of either sum.
_SERIES_PAIRS = tuple((1.0 / (4 * k * k - 1), 1.0 / (4 * (k + 1) ** 2 - 1))
                      for k in range(72, 0, -1))


def _axis_moments_series(P: float) -> tuple[float, float]:
    """b1 = 2 sum_{k>=1} P^(2k-1)/(4k^2-1), b2 = 6 sum_{k>=2} P^(2k-2)/(4k^2-1).

    Horner in P^2, smallest terms first; every term is positive.
    """
    p2 = P * P
    s1 = s2 = 0.0
    for c1, c2 in _SERIES_PAIRS:
        s1 = s1 * p2 + c1
        s2 = s2 * p2 + c2
    return 2 * P * s1, 6 * p2 * s2


def _axis_moments_closed(P: float) -> tuple[float, float]:
    """(b1, b2) = (1/P - (1-P^2) atanh(P)/P^2, 3 b1/P - 2); cancels as P -> 0."""
    r = (1 - P) * (1 + P) * math.atanh(P) / P
    return (1 - r) / P, (3 * (1 - r) - 2 * P * P) / (P * P)


class Brosseau(AxisDistribution):
    """Single-Stokes-parameter statistics of a Gaussian stochastic field.

    ``P`` is the degree of polarization, ``mu`` the mean normalised Stokes
    parameter; P^2 - mu^2 >= 0.  Marginal

        (1 - P^2) (1 - mu x) / (2 (1 + mu^2 - P^2 - 2 mu x + P^2 x^2)^(3/2)).
  P -> 1 concentrates onto delta(x - mu), so
    P = 1 itself is rejected here and must be expressed as Delta.
    """

    __slots__ = keys = ("P", "mu")
    kind = "brosseau"

    def __init__(self, P: float = 0.0, mu: float = 0.0):
        if not 0.0 <= P < 1.0:
            raise DomainError(
                f"P must lie in [0, 1) for a density (P=1 is a Delta), got {P}")
        if mu ** 2 > P ** 2:
            raise DomainError(f"require mu^2 <= P^2, got P={P}, mu={mu}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "mu", mu)

    def moment_pair(self) -> MomentPair:
        # The marginal is the axis marginal of the sphere density
        # (1-P^2) / (4 pi (1 - P n.u)^2) with n_z = mu/P: its azimuthal
        # integral is the marginal above.  By the addition theorem
        # a_l = P_l(mu/P) b_l, where b_l = E[P_l(t)] for t = n.u, whose
        # density is (1-P^2) / (2 (1 - P t)^2) on [-1, 1].
        P, mu = self.P, self.mu
        if P == 0.0:
            return MomentPair(0.0, 0.0)
        axis_moments = (_axis_moments_series if P < _SERIES_BELOW
                        else _axis_moments_closed)
        b1, b2 = axis_moments(P)
        c = mu / P
        return MomentPair(c * b1, 0.5 * (3 * c * c - 1) * b2)


class HenyeyGreenstein(AxisDistribution):
    """One-parameter scattering phase function with moments a_n = h^n.

    Marginal (1 - h^2) / (2 (1 + h^2 - 2 h x)^(3/2)).
    """

    __slots__ = keys = ("h",)
    kind = "hg"

    def __init__(self, h: float = 0.0):
        if not -1.0 < h < 1.0:
            raise DomainError(f"anisotropy must satisfy |h| < 1, got {h}")
        object.__setattr__(self, "h", h)

    def moment_pair(self) -> MomentPair:
        return MomentPair(self.h, self.h * self.h)


def _check_polar(value: float, name: str) -> None:
    if not 0.0 <= value <= math.pi:
        raise DomainError(f"{name} must lie in [0, pi], got {value}")


class Delta(AxisDistribution):
    """All states on the latitude ring theta = vartheta (unknown azimuth)."""

    __slots__ = keys = ("theta",)
    kind = "delta"

    def __init__(self, theta: float = 0.0):
        _check_polar(theta, "theta")
        object.__setattr__(self, "theta", theta)

    def moment_pair(self) -> MomentPair:
        c = math.cos(self.theta)
        return MomentPair(c, _p2(c))


class DeltaPair(AxisDistribution):
    """Equal-weight mirror latitudes theta and pi - theta."""

    __slots__ = keys = ("theta",)
    kind = "deltapair"

    def __init__(self, theta: float = 0.0):
        _check_polar(theta, "theta")
        object.__setattr__(self, "theta", theta)

    def moment_pair(self) -> MomentPair:
        # P1 cancels between the mirror rings, P2 is even
        return MomentPair(0.0, _p2(math.cos(self.theta)))


class Belt(AxisDistribution):
    """States uniform on the band between latitudes theta1 < theta2.

    Marginal 1 / (cos theta1 - cos theta2) for cos theta2 <= x <= cos theta1,
    0 elsewhere.
    """

    __slots__ = keys = ("theta1", "theta2")
    kind = "belt"

    def __init__(self, theta1: float = 0.0, theta2: float = math.pi):
        _check_polar(theta1, "theta1")
        _check_polar(theta2, "theta2")
        if not theta1 < theta2:
            raise DomainError("require theta1 < theta2")
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "theta2", theta2)

    def moment_pair(self) -> MomentPair:
        hi = math.cos(self.theta1)
        lo = math.cos(self.theta2)
        a1 = 0.5 * (hi + lo)
        # antiderivative of P2 is (x^3 - x)/2
        a2 = 0.5 * (hi * hi + hi * lo + lo * lo - 1.0)
        return MomentPair(a1, a2)


class Tabulated(AxisDistribution):
    """Piecewise-linear marginal through samples (x_i, g_i), renormalised.

    g is linear between neighbouring samples and 0 outside [x_0, x_n].
    """

    __slots__ = keys = ("xs", "gs", "source")
    kind = "table"

    def __init__(self, xs: tuple[float, ...] = (), gs: tuple[float, ...] = (),
                 source: str | None = None):
        xs = tuple(float(v) for v in xs)
        gs = tuple(float(v) for v in gs)
        if len(xs) < 2 or len(xs) != len(gs):
            raise DomainError("tabulated density needs >= 2 matched samples")
        if not all(map(math.isfinite, xs + gs)):
            raise DomainError("tabulated samples must be finite")
        if any(abs(x) > 1.0 for x in xs):
            raise DomainError("tabulated abscissae must lie in [-1, 1]")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("tabulated abscissae must be strictly increasing")
        if any(g < 0 for g in gs):
            raise DomainError("tabulated density values must be non-negative")
        # trapezoid integral of g / max(g): it cannot overflow, so the
        # renormalised table keeps the shape of any finite input
        top = max(gs)
        if not top > 0:
            raise DomainError("tabulated density integrates to zero")
        gs = tuple(g / top for g in gs)
        area = sum((b - a) * (ga + gb) / 2
                   for a, b, ga, gb in zip(xs, xs[1:], gs, gs[1:]))
        # g / area would overflow, or keep only a few significant bits
        if area < sys.float_info.min:
            raise DomainError(
                f"tabulated support is too narrow: g / max(g) integrates to "
                f"{area:.3g}, below the smallest normal float")
        if abs(top * area - 1.0) > 1e-3:
            # level 2 is the code that built the table
            where = "" if source is None else f" {source!r}"
            warnings.warn(
                f"tabulated density{where} integrates to {top * area:.6g}; "
                "renormalising", stacklevel=2)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "gs", tuple(g / area for g in gs))
        object.__setattr__(self, "source", source)

    def moment_pair(self) -> MomentPair:
        # g is linear on each segment, so g x and g P2 are at most cubic
        # there and Simpson's rule integrates them exactly
        a1 = a2 = 0.0
        for a, b, ga, gb in zip(self.xs, self.xs[1:], self.gs, self.gs[1:]):
            mid, gm = (a + b) / 2, (ga + gb) / 2
            w = (b - a) / 6
            a1 += w * (ga * a + 4 * gm * mid + gb * b)
            a2 += w * (ga * _p2(a) + 4 * gm * _p2(mid) + gb * _p2(b))
        return MomentPair(a1, a2)


def moments(dist: AxisDistribution) -> MomentPair:
    """Leading Legendre moments (a1, a2), checked for feasibility."""
    m = MomentPair(*dist.moment_pair())
    if not validate_moments(m):
        raise InfeasibleMomentsError(
            f"moments {m} violate the second-moment bound (corrupt input?)")
    return m


# spec name -> class of every parametric kind; Tabulated is written
# "table:<path>" instead and is parsed by load_tabulated
KINDS: dict[str, type[AxisDistribution]] = {
    cls.kind: cls for cls in (Uniform, VonMisesFisher, Brosseau,
                              HenyeyGreenstein, Delta, DeltaPair, Belt)}


def load_tabulated(path: str) -> Tabulated:
    """Read a two-column CSV (cos(theta), g); an optional header is skipped.

    A path that cannot be read as UTF-8 text is a ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read table {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"table {path!r} is not UTF-8 text") from None
    xs: list[float] = []
    gs: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise DomainError(f"{path}:{lineno}: expected two columns")
        try:
            x, g = float(parts[0]), float(parts[1])
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise DomainError(f"{path}:{lineno}: non-numeric row") from None
        xs.append(x)
        gs.append(g)
    return Tabulated(xs=tuple(xs), gs=tuple(gs), source=path)


def spec_string(dist: AxisDistribution) -> str:
    """Canonical textual form accepted back by the CLI parser."""
    if isinstance(dist, Tabulated):
        if dist.source is None:
            raise UnsupportedKindError("tabulated density has no source path")
        return f"{dist.kind}:{dist.source}"
    if type(dist) is not KINDS.get(dist.kind):
        raise UnsupportedKindError(f"unknown distribution {type(dist).__name__}")
    params = ",".join(f"{key}={float(getattr(dist, key))!r}"
                      for key in dist.keys)
    return f"{dist.kind}:{params}" if params else dist.kind
