"""Axisymmetric qubit ensembles on the Bloch sphere and their Legendre moments.

Every density-backed kind is stored through its one-dimensional marginal
g(x) in x = cos(theta), normalised so that the integral over [-1, 1] is 1.
The two leading Legendre moments

    a1 = E[P1(x)] = E[x],        a2 = E[P2(x)] = E[(3 x^2 - 1) / 2]

fully determine the optimal symmetric 1->2 cloner for the ensemble.  Every
built-in kind computes them in closed form (a short power series stands in
where the closed form cancels), so ``moments`` never integrates; adaptive
Gauss-Legendre quadrature serves only the cross-checks ``integrate_marginal``,
``quadrature_moments`` and ``normalization_integral``.  Point-mass kinds
(single and mirror-pair delta rings) carry no density and expose their
moments through weighted support points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (DomainError, InfeasibleMomentsError, ParseError,
                     QuadratureError, UnsupportedKindError)
from .quadrature import integrate

__all__ = [
    "MomentPair", "AxisDistribution", "Uniform", "VonMisesFisher", "Brosseau",
    "HenyeyGreenstein", "Delta", "DeltaPair", "Belt", "Tabulated", "KINDS",
    "legendre_poly", "marginal_density", "moments", "quadrature_moments",
    "normalization_integral", "validate_moments",
    "load_tabulated", "spec_string",
]

LEGENDRE_MAX_DEGREE = 64

# Slack absorbing quadrature round-off when checking moment feasibility.
FEASIBILITY_TOL = 1e-9


class MomentPair(NamedTuple):
    a1: float
    a2: float


def legendre_poly(n: int, x):
    """Legendre polynomial P_n(x) via (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}.

    Accepts scalars or arrays; degree is capped at LEGENDRE_MAX_DEGREE and
    |x| must not exceed 1.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"degree must be a non-negative integer, got {n!r}")
    if n > LEGENDRE_MAX_DEGREE:
        raise DomainError(f"degree {n} exceeds cap {LEGENDRE_MAX_DEGREE}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0):
        raise DomainError("Legendre argument outside [-1, 1]")
    p_prev = np.ones_like(xa)
    if n == 0:
        return p_prev if xa.ndim else float(p_prev)
    p = xa.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * xa * p - k * p_prev) / (k + 1), p
    return p if xa.ndim else float(p)


def validate_moments(m, tol: float = FEASIBILITY_TOL) -> bool:
    """True iff (a1, a2) can come from a distribution on [-1, 1].

    Requires |a1| <= 1, a2 <= 1 and the variance bound (2 a2 + 1)/3 >= a1^2,
    with ``tol`` slack so that quadrature round-off does not reject boundary
    cases such as point masses at the poles.
    """
    a1, a2 = m
    if not (math.isfinite(a1) and math.isfinite(a2)):
        return False
    return (abs(a1) <= 1 + tol and a2 <= 1 + tol
            and (2 * a2 + 1) / 3 >= a1 * a1 - tol)


@dataclass(frozen=True)
class AxisDistribution:
    """An axisymmetric ensemble of pure qubit states.

    ``kind`` is the name a spec string gives the kind; a parametric kind's
    spec keys are its dataclass fields.
    """

    kind: ClassVar[str] = ""
    has_density = True

    def density(self, x):
        raise UnsupportedKindError(
            f"{type(self).__name__} carries no density; use its moments")

    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where the marginal is non-smooth (for quadrature)."""
        return ()

    def point_masses(self) -> list[tuple[float, float]]:
        raise UnsupportedKindError(
            f"{type(self).__name__} is density-backed; it has no point masses")

    def moment_pair(self) -> MomentPair:
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(AxisDistribution):
    """Isotropic ensemble; marginal 1/2 on [-1, 1]."""

    kind = "uniform"

    def density(self, x):
        return np.full_like(np.asarray(x, dtype=float), 0.5)

    def moment_pair(self) -> MomentPair:
        return MomentPair(0.0, 0.0)


# Beyond this the scale 1/|kappa| nears the float spacing of cos(theta) at
# the pole, and integrals of the vMF marginal drift past 1e-10 unnoticed.
_VMF_MAX_QUADRATURE_KAPPA = 1e9


@dataclass(frozen=True)
class VonMisesFisher(AxisDistribution):
    """Spherical analogue of a Gaussian with concentration ``kappa``.

    Marginal kappa * exp(kappa x) / (2 sinh kappa); kappa < 0 concentrates
    around the antipode and kappa -> 0 recovers the uniform ensemble.
    """

    kind = "vmf"
    kappa: float = 0.0

    def density(self, x):
        x = np.asarray(x, dtype=float)
        k = self.kappa
        if abs(k) < 1e-12:
            return np.full_like(x, 0.5)
        if k < 0:
            k, x = -k, -x
        # exp(k(x-1)) form stays finite for large concentrations
        return k * np.exp(k * (x - 1.0)) / (1.0 - math.exp(-2.0 * k))

    def breakpoints(self) -> tuple[float, ...]:
        # the mass sits within ~1/|kappa| of the pole: scale points
        # 1 - 8^j/|kappa| let quadrature see it at every concentration
        k = abs(self.kappa)
        if k > _VMF_MAX_QUADRATURE_KAPPA:
            raise QuadratureError(
                f"vMF with |kappa| = {k:g} is too peaked to integrate in cos(theta)")
        points = []
        step = 1.0
        while step < k:
            points.append(math.copysign(1.0 - step / k, self.kappa))
            step *= 8.0
        return tuple(points)

    def moment_pair(self) -> MomentPair:
        k = self.kappa
        if abs(k) < 1e-6:
            # series around 0; coth k - 1/k cancels catastrophically there
            return MomentPair(k / 3 - k ** 3 / 45, k * k / 15)
        a1 = 1.0 / math.tanh(k) - 1.0 / k
        # second moment from the half-integer Bessel recurrence
        a2 = 1.0 - 3.0 * a1 / k
        return MomentPair(a1, a2)


def _stokes_quadratic(x, P: float, mu: float):
    """1 + mu^2 - P^2 - 2 x mu + x^2 P^2, evaluated without cancellation.

    With c = mu/P (|c| <= 1) it is (P x - c)^2 + (1 - P^2)(1 - c^2): both
    terms are non-negative and bounded, so the value stays accurate to
    round-off at the P -> 1 peak, where the naive expansion loses eleven
    digits, and stays finite when P^2 underflows.  P = 0 forces mu = 0 and
    the value 1.
    """
    x = np.asarray(x, dtype=float)
    c = mu / P if P else 0.0
    return (P * x - c) ** 2 + (1 - P) * (1 + P) * (1 - c) * (1 + c)


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


@dataclass(frozen=True)
class Brosseau(AxisDistribution):
    """Single-Stokes-parameter statistics of a Gaussian stochastic field.

    ``P`` is the degree of polarization, ``mu`` the mean normalised Stokes
    parameter; P^2 - mu^2 >= 0.  P -> 1 concentrates onto delta(x - mu), so
    P = 1 itself is rejected here and must be expressed as Delta.
    """

    kind = "brosseau"
    P: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.P < 1.0:
            raise DomainError(
                f"P must lie in [0, 1) for a density (P=1 is a Delta), got {self.P}")
        if self.mu ** 2 > self.P ** 2:
            raise DomainError(f"require mu^2 <= P^2, got P={self.P}, mu={self.mu}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        P, mu = self.P, self.mu
        quad = _stokes_quadratic(x, P, mu)
        return (1 - P) * (1 + P) * (1 - mu * x) / (2 * quad ** 1.5)

    def moment_pair(self) -> MomentPair:
        # The marginal is the axis marginal of the sphere density
        # (1-P^2) / (4 pi (1 - P n.u)^2) with n_z = mu/P: its azimuthal
        # integral gives density() exactly.  By the addition theorem
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


# Beyond this the marginal's width (1 - |h|)^2 nears the float spacing of
# cos(theta) at the pole: integrals of the HG marginal stay within 5e-11 up
# to it, drift past 1e-10 unnoticed from about |h| = 0.99974, and stall
# from about 0.9998.
_HG_MAX_QUADRATURE_H = 0.9995


@dataclass(frozen=True)
class HenyeyGreenstein(AxisDistribution):
    """One-parameter scattering phase function with moments a_n = h^n."""

    kind = "hg"
    h: float = 0.0

    def __post_init__(self):
        if not -1.0 < self.h < 1.0:
            raise DomainError(f"anisotropy must satisfy |h| < 1, got {self.h}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        h = self.h
        if h < 0:
            h, x = -h, -x
        # 1 + h^2 - 2 h x written without its cancellation at the pole,
        # where it is as small as (1 - h)^2
        return 0.5 * (1 - h) * (1 + h) / ((1 - h) ** 2 + 2 * h * (1 - x)) ** 1.5

    def breakpoints(self) -> tuple[float, ...]:
        if abs(self.h) > _HG_MAX_QUADRATURE_H:
            raise QuadratureError(
                f"HG with |h| = {abs(self.h):g} is too peaked to integrate in cos(theta)")
        return ()

    def moment_pair(self) -> MomentPair:
        return MomentPair(self.h, self.h * self.h)


def _check_polar(value: float, name: str) -> None:
    if not 0.0 <= value <= math.pi:
        raise DomainError(f"{name} must lie in [0, pi], got {value}")


@dataclass(frozen=True)
class Delta(AxisDistribution):
    """All states on the latitude ring theta = vartheta (unknown azimuth)."""

    kind = "delta"
    theta: float = 0.0

    has_density = False

    def __post_init__(self):
        _check_polar(self.theta, "theta")

    def point_masses(self) -> list[tuple[float, float]]:
        return [(math.cos(self.theta), 1.0)]

    def moment_pair(self) -> MomentPair:
        c = math.cos(self.theta)
        return MomentPair(c, legendre_poly(2, c))


@dataclass(frozen=True)
class DeltaPair(AxisDistribution):
    """Equal-weight mirror latitudes theta and pi - theta."""

    kind = "deltapair"
    theta: float = 0.0

    has_density = False

    def __post_init__(self):
        _check_polar(self.theta, "theta")

    def point_masses(self) -> list[tuple[float, float]]:
        c = math.cos(self.theta)
        return [(c, 0.5), (-c, 0.5)]

    def moment_pair(self) -> MomentPair:
        # P1 cancels between the mirror rings, P2 is even
        return MomentPair(0.0, legendre_poly(2, math.cos(self.theta)))


@dataclass(frozen=True)
class Belt(AxisDistribution):
    """States uniform on the band between latitudes theta1 < theta2."""

    kind = "belt"
    theta1: float = 0.0
    theta2: float = math.pi

    def __post_init__(self):
        _check_polar(self.theta1, "theta1")
        _check_polar(self.theta2, "theta2")
        if not self.theta1 < self.theta2:
            raise DomainError("require theta1 < theta2")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        hi = math.cos(self.theta1)
        lo = math.cos(self.theta2)
        inside = (x >= lo) & (x <= hi)
        return np.where(inside, 1.0 / (hi - lo), 0.0)

    def breakpoints(self) -> tuple[float, ...]:
        return (math.cos(self.theta2), math.cos(self.theta1))

    def moment_pair(self) -> MomentPair:
        hi = math.cos(self.theta1)
        lo = math.cos(self.theta2)
        a1 = 0.5 * (hi + lo)
        # antiderivative of P2 is (x^3 - x)/2
        a2 = 0.5 * (hi * hi + hi * lo + lo * lo - 1.0)
        return MomentPair(a1, a2)


@dataclass(frozen=True)
class Tabulated(AxisDistribution):
    """Piecewise-linear density through samples (x_i, g_i), renormalised."""

    kind = "table"
    xs: tuple[float, ...] = ()
    gs: tuple[float, ...] = ()
    source: str | None = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        gs = np.asarray(self.gs, dtype=float)
        if xs.size < 2 or xs.size != gs.size:
            raise DomainError("tabulated density needs >= 2 matched samples")
        if np.any(np.abs(xs) > 1.0):
            raise DomainError("tabulated abscissae must lie in [-1, 1]")
        if np.any(np.diff(xs) <= 0):
            raise DomainError("tabulated abscissae must be strictly increasing")
        if np.any(gs < 0):
            raise DomainError("tabulated density values must be non-negative")
        raw = float(np.trapezoid(gs, xs))
        if raw <= 0:
            raise DomainError("tabulated density integrates to zero")
        if abs(raw - 1.0) > 1e-3:
            warnings.warn(
                f"tabulated density integrates to {raw:.6g}; renormalising",
                stacklevel=2)
        object.__setattr__(self, "xs", tuple(float(v) for v in xs))
        object.__setattr__(self, "gs", tuple(float(v) for v in gs / raw))

    def density(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.gs,
                         left=0.0, right=0.0)

    def breakpoints(self) -> tuple[float, ...]:
        return self.xs

    def moment_pair(self) -> MomentPair:
        # linear density times P2 is cubic, so per-segment Gauss is exact
        nodes, wts = leggauss(8)
        xs = np.asarray(self.xs)
        a1 = a2 = 0.0
        for i in range(xs.size - 1):
            lo, hi = xs[i], xs[i + 1]
            half = 0.5 * (hi - lo)
            pts = 0.5 * (hi + lo) + half * nodes
            g = self.density(pts)
            a1 += half * float(np.dot(wts, g * pts))
            a2 += half * float(np.dot(wts, g * legendre_poly(2, pts)))
        return MomentPair(a1, a2)


def marginal_density(dist: AxisDistribution, x):
    """Marginal g(x) in x = cos(theta), normalised to unit integral.

    Point-mass kinds raise UnsupportedKindError; consumers must use the
    moment interface for those.
    """
    if not dist.has_density:
        raise UnsupportedKindError(
            f"{type(dist).__name__} carries no density; use moments()")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0):
        raise DomainError("cos(theta) argument outside [-1, 1]")
    out = dist.density(xa)
    return out if xa.ndim else float(out)


def moments(dist: AxisDistribution) -> MomentPair:
    """Leading Legendre moments (a1, a2), checked for feasibility."""
    m = MomentPair(*dist.moment_pair())
    if not validate_moments(m):
        raise InfeasibleMomentsError(
            f"moments {m} violate the second-moment bound (corrupt input?)")
    return m


def integration_segments(dist: AxisDistribution) -> list[tuple[float, float]]:
    """[-1, 1] split at the marginal's non-smooth points."""
    cuts = sorted(x for x in dist.breakpoints() if -1.0 < x < 1.0)
    edges = [-1.0] + cuts + [1.0]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)
            if edges[i + 1] > edges[i]]


def integrate_marginal(dist: AxisDistribution, f, tol: float = 1e-10):
    """Integrate a (possibly array-valued) function over the marginal support."""
    parts = [integrate(f, a, b, tol=tol) for a, b in integration_segments(dist)]
    return sum(parts[1:], start=parts[0])


def quadrature_moments(dist: AxisDistribution, tol: float = 1e-10) -> MomentPair:
    """(a1, a2) by direct integration of the marginal; cross-check path.

    Peaked densities are resolved through their ``breakpoints()``, which
    covers vMF up to |kappa| = 1e9 and Henyey-Greenstein up to |h| = 0.9995;
    beyond those limits they raise QuadratureError.
    """
    if not dist.has_density:
        masses = dist.point_masses()
        a1 = sum(w * x for x, w in masses)
        a2 = sum(w * legendre_poly(2, x) for x, w in masses)
        return MomentPair(a1, a2)

    def f(x):
        g = dist.density(x)
        return np.stack([g * x, g * legendre_poly(2, x)], axis=-1)

    a1, a2 = integrate_marginal(dist, f, tol=tol)
    return MomentPair(float(a1), float(a2))


def normalization_integral(dist: AxisDistribution, tol: float = 1e-10) -> float:
    """Total mass of the marginal (or of the point masses); should be 1.

    Same reach as :func:`quadrature_moments`: vMF with |kappa| > 1e9 and
    Henyey-Greenstein with |h| > 0.9995 raise QuadratureError.
    """
    if not dist.has_density:
        return float(sum(w for _, w in dist.point_masses()))
    return float(integrate_marginal(dist, lambda x: dist.density(x), tol=tol))


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
    params = ",".join(f"{f.name}={float(getattr(dist, f.name))!r}"
                      for f in fields(dist))
    return f"{dist.kind}:{params}" if params else dist.kind
