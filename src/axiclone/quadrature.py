"""Adaptive Gauss-Legendre quadrature on finite intervals.

The base rule is 64-node Gauss-Legendre.  Each interval's value is the sum
of its two half-interval estimates and its error is the difference from the
parent estimate; the interval with the largest error is bisected until the
global error estimate meets the absolute tolerance.  Intervals are never
split more than ``max_depth`` times, and an interval whose residual sits at
double-precision noise is accepted as converged.  Integrands may be scalar
or array valued (the error is then the entrywise max-abs).

Every moment the package reports is in closed form; this module serves only
the cross-checks ``dist.integrate_marginal``, ``dist.quadrature_moments`` and
``dist.normalization_integral``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

DEFAULT_TOL = 1e-10
MAX_DEPTH = 20
MAX_SPLITS = 20_000

# Residuals below this relative level are round-off, not truncation.
NOISE_FLOOR = 5e-14

_NODES, _WEIGHTS = leggauss(64)


def fixed_rule(f: Callable, a: float, b: float):
    """One 64-node Gauss-Legendre pass over [a, b].

    ``f`` receives an array of abscissae and must return an array whose
    leading axis matches; trailing axes are integrated elementwise.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _NODES))
    return half * np.tensordot(_WEIGHTS, vals, axes=(0, 0))


def _evaluate(f, a, b):
    """Refined estimate over [a, b] plus its error against the coarse pass."""
    whole = fixed_rule(f, a, b)
    mid = 0.5 * (a + b)
    value = fixed_rule(f, a, mid) + fixed_rule(f, mid, b)
    err = float(np.max(np.abs(value - whole)))
    if err <= NOISE_FLOOR * max(float(np.max(np.abs(value))), 1.0):
        err = 0.0
    return value, err


def integrate(f: Callable, a: float, b: float,
              tol: float = DEFAULT_TOL, max_depth: int = MAX_DEPTH):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Raises QuadratureError when the error estimate cannot be brought under
    ``tol`` within the depth cap.
    """
    if b <= a:
        raise QuadratureError(f"empty or reversed interval [{a}, {b}]")
    counter = itertools.count()  # heap tie-break; values may be arrays
    value, err = _evaluate(f, a, b)
    heap = [(-err, next(counter), 0, a, b)]
    values = {heap[0][1]: value}
    total_err = err

    for _ in range(MAX_SPLITS):
        if total_err <= tol:
            break
        neg_err, key, depth, lo, hi = heapq.heappop(heap)
        if -neg_err <= 0.0 or depth >= max_depth:
            raise QuadratureError(
                f"quadrature stalled on [{lo:.6g}, {hi:.6g}]: "
                f"residual {-neg_err:.3e} at depth {depth}, total {total_err:.3e} > {tol:.3e}")
        del values[key]
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            sub_val, sub_err = _evaluate(f, sub_lo, sub_hi)
            sub_key = next(counter)
            values[sub_key] = sub_val
            heapq.heappush(heap, (-sub_err, sub_key, depth + 1, sub_lo, sub_hi))
            total_err += sub_err
    else:
        raise QuadratureError(
            f"quadrature exceeded {MAX_SPLITS} refinements on [{a}, {b}]")

    out = None
    for val in values.values():
        out = val if out is None else out + val
    return out
