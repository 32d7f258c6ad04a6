"""Independent references for the tests; numpy only.

The package computes every Legendre moment in closed form.  The densities
below, one per kind written out from the formula in its docstring, and the
adaptive Gauss-Legendre quadrature that integrates them are the independent
path those moments, the normalisation, the merit operator and the average
fidelity are checked against.  The primal solver maximises Tr(chi R) over
every CPTP map with a log-det barrier (Audenaert & De Moor, PRA 65, 030302
(2002), for channel optimisation as an SDP), reading nothing of the closed
form, so its optimum checks the analytic cloner from the primal side, as the
dual certificate checks it from the other.  The Haar loop is the
one-sample-at-a-time sweep the batched
:func:`axiclone.choi.max_sampled_fidelity` must reproduce exactly: row k of
one ``default_rng(seed)`` stream, one Gram-Schmidt step, diag(R) > 0, per
environment, written out on 1-D arrays; its sample 0 is
:func:`haar_isometry`, whose channel :func:`random_cptp` gives the tests a
Haar-random CPTP map per seed.  The LAPACK QR and complex-contraction path
it replaced is kept as an independent reference, equal to rounding.  The
merit kernel, the merit integrand built from explicit pure states and summed
over a 16-point azimuth grid, is the independent reference for the
closed-form :func:`axiclone.choi.build_merit`: equal at each latitude and,
integrated against a density, equal to quadrature accuracy.  The vMF regime
threshold is found by bisection on Gamma.  The branch search picks the
closed form's arcsin branch and boundary side by evaluating each candidate
cloner, where the package uses two identities instead.  The symmetry blocks
split an 8x8 operator along the axis-rotation and clone-swap symmetry, the
structure the dual certificate rests on.  The array simulation (isometry
matrix, ``np.outer`` state and einsum partial trace) is the reference the
scalar :mod:`axiclone.qsim` must reproduce.  The general partial trace and
the Choi matrix of any isometry are the path the certificate's fixed-shape
clone trace and the cloner's Choi matrix must equal bit for bit.  The
Kronecker embedding of each gate, with its 2x2 written out per kind, is the
reference for the slice updates of :func:`axiclone.circuit.circuit_unitary`,
and the merit operator summed from Kronecker products formed per call is the
reference for the precomputed terms of :func:`axiclone.choi.build_merit`.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from axiclone.choi import _hermitian_8x8
from axiclone.dist import MomentPair, VonMisesFisher, moments, validate_moments
from axiclone.errors import (DomainError, InfeasibleMomentsError,
                             UnsupportedKindError)
from axiclone.optimal import (DEGENERACY_EPS, SQRT2, _TIE_TOL, ClonerParams,
                              Regime, _boundary, _omega, average_fidelity,
                              optimal_angles, pcc_params)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance."""


# Adaptive Gauss-Legendre quadrature on finite intervals.  The base rule is
# 64-node Gauss-Legendre.  Each interval's value is the sum of its two
# half-interval estimates and its error is the difference from the parent
# estimate; the interval with the largest error is bisected until the global
# error estimate meets the absolute tolerance.  Intervals are never split
# more than ``max_depth`` times, and an interval whose residual sits at
# double-precision noise is accepted as converged.  Integrands may be scalar
# or array valued (the error is then the entrywise max-abs).
MAX_DEPTH = 20
MAX_SPLITS = 20_000

# Residuals below this relative level are round-off, not truncation.
NOISE_FLOOR = 5e-14

_NODES, _WEIGHTS = leggauss(64)


def fixed_rule(f, a: float, b: float):
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


def integrate(f, a: float, b: float, tol: float = 1e-10,
              max_depth: int = MAX_DEPTH):
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


def _stokes_quadratic(x, P: float, mu: float):
    """1 + mu^2 - P^2 - 2 x mu + x^2 P^2, evaluated without cancellation.

    With c = mu/P (|c| <= 1) it is (P x - c)^2 + (1 - P^2)(1 - c^2): both
    terms are non-negative and bounded, so the value stays accurate to
    round-off at the P -> 1 peak, where the naive expansion loses eleven
    digits, and stays finite when P^2 underflows.  P = 0 forces mu = 0 and
    the value 1.
    """
    c = mu / P if P else 0.0
    return (P * x - c) ** 2 + (1 - P) * (1 + P) * (1 - c) * (1 + c)


def density(dist, x) -> np.ndarray:
    """Marginal g(x) in x = cos(theta) of a density-backed kind, on arrays.

    Each branch is the formula of the kind's docstring, written so that it
    stays finite and accurate at the concentrated end of its domain.  The
    ring kinds carry no density and raise UnsupportedKindError.
    """
    x = np.asarray(x, dtype=float)
    kind = dist.kind
    if kind == "uniform":
        return np.full_like(x, 0.5)
    if kind == "vmf":
        k = dist.kappa
        if abs(k) < 1e-12:
            return np.full_like(x, 0.5)
        if k < 0:
            k, x = -k, -x
        # exp(k(x-1)) form stays finite for large concentrations
        return k * np.exp(k * (x - 1.0)) / (1.0 - math.exp(-2.0 * k))
    if kind == "brosseau":
        P, mu = dist.P, dist.mu
        quad = _stokes_quadratic(x, P, mu)
        return (1 - P) * (1 + P) * (1 - mu * x) / (2 * quad ** 1.5)
    if kind == "hg":
        h = dist.h
        if h < 0:
            h, x = -h, -x
        # 1 + h^2 - 2 h x written without its cancellation at the pole,
        # where it is as small as (1 - h)^2
        return 0.5 * (1 - h) * (1 + h) / ((1 - h) ** 2 + 2 * h * (1 - x)) ** 1.5
    if kind == "belt":
        hi = math.cos(dist.theta1)
        lo = math.cos(dist.theta2)
        return np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)
    if kind == "table":
        return np.interp(x, dist.xs, dist.gs, left=0.0, right=0.0)
    raise UnsupportedKindError(f"{type(dist).__name__} carries no density; use its moments")


# Beyond this the scale 1/|kappa| nears the float spacing of cos(theta) at
# the pole, and integrals of the vMF marginal drift past 1e-10 unnoticed.
_VMF_MAX_QUADRATURE_KAPPA = 1e9
# Beyond this the marginal's width (1 - |h|)^2 nears the float spacing of
# cos(theta) at the pole: integrals of the HG marginal stay within 5e-11 up
# to it, drift past 1e-10 unnoticed from about |h| = 0.99974, and stall
# from about 0.9998.
_HG_MAX_QUADRATURE_H = 0.9995


def cuts(dist) -> tuple[float, ...]:
    """Interior points where quadrature of the marginal must split [-1, 1].

    The non-smooth points of a belt or a table, and for vMF the scale
    points 1 - 8^j/|kappa| within which its mass sits.  vMF and HG too
    peaked to resolve in cos(theta) raise QuadratureError.
    """
    kind = dist.kind
    if kind == "vmf":
        k = abs(dist.kappa)
        if k > _VMF_MAX_QUADRATURE_KAPPA:
            raise QuadratureError(
                f"vMF with |kappa| = {k:g} is too peaked to integrate in cos(theta)")
        points = []
        step = 1.0
        while step < k:
            points.append(math.copysign(1.0 - step / k, dist.kappa))
            step *= 8.0
        return tuple(points)
    if kind == "hg" and abs(dist.h) > _HG_MAX_QUADRATURE_H:
        raise QuadratureError(
            f"HG with |h| = {abs(dist.h):g} is too peaked to integrate in cos(theta)")
    if kind == "belt":
        return (math.cos(dist.theta2), math.cos(dist.theta1))
    if kind == "table":
        return dist.xs
    return ()


def point_masses(dist) -> list[tuple[float, float]] | None:
    """(x, weight) of a ring kind's latitudes; None for a density-backed kind."""
    if dist.kind == "delta":
        return [(math.cos(dist.theta), 1.0)]
    if dist.kind == "deltapair":
        c = math.cos(dist.theta)
        return [(c, 0.5), (-c, 0.5)]
    return None


def marginal_density(dist, x):
    """:func:`density` with |x| <= 1 checked; a scalar for a scalar x."""
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0):
        raise DomainError("cos(theta) argument outside [-1, 1]")
    out = density(dist, xa)
    return out if xa.ndim else float(out)


def integration_segments(dist) -> list[tuple[float, float]]:
    """[-1, 1] split at the marginal's cuts."""
    inner = sorted(x for x in cuts(dist) if -1.0 < x < 1.0)
    edges = [-1.0] + inner + [1.0]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)
            if edges[i + 1] > edges[i]]


def integrate_marginal(dist, f, tol: float = 1e-10):
    """Integrate a (possibly array-valued) function over the marginal support."""
    parts = [integrate(f, a, b, tol=tol) for a, b in integration_segments(dist)]
    return sum(parts[1:], start=parts[0])


def quadrature_moments(dist, tol: float = 1e-10) -> MomentPair:
    """(a1, a2) by direct integration of the marginal, or over the rings.

    Peaked densities are resolved through their :func:`cuts`, which covers
    vMF up to |kappa| = 1e9 and Henyey-Greenstein up to |h| = 0.9995;
    beyond those limits they raise QuadratureError.
    """
    masses = point_masses(dist)
    if masses is not None:
        return MomentPair(sum(w * x for x, w in masses),
                          sum(w * (3 * x * x - 1) / 2 for x, w in masses))

    def f(x):
        g = density(dist, x)
        return np.stack([g * x, g * (3 * x * x - 1) / 2], axis=-1)

    a1, a2 = integrate_marginal(dist, f, tol=tol)
    return MomentPair(float(a1), float(a2))


def normalization_integral(dist, tol: float = 1e-10) -> float:
    """Total mass of the marginal (or of the rings); should be 1.

    Same reach as :func:`quadrature_moments`.
    """
    masses = point_masses(dist)
    if masses is not None:
        return float(sum(w for _, w in masses))
    return float(integrate_marginal(dist, lambda x: density(dist, x), tol=tol))


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


def choi_from_isometry(w: np.ndarray) -> np.ndarray:
    """Choi matrix of X -> Tr_env(W X W^dag) for an isometry W: C^2 -> C^4 (x) env."""
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[1] != 2 or w.shape[0] % 4:
        raise DomainError(f"expected a (4*env, 2) isometry, got {w.shape}")
    env = w.shape[0] // 4
    # column e is |v_e> = sum_i |i> (x) K_e |i>, laid out as index 4*i + out
    v = w.reshape(4, env, 2).transpose(2, 0, 1).reshape(8, env)
    return v @ v.conj().T


def kron_gate_matrix(g) -> np.ndarray:
    """8x8 unitary of the gate embedded on its qubits by Kronecker products."""
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


def kron_circuit_unitary(gates) -> np.ndarray:
    """Ordered product of :func:`kron_gate_matrix` (first gate rightmost)."""
    u = np.eye(8, dtype=complex)
    for g in gates:
        u = kron_gate_matrix(g) @ u
    return u


def kron_merit(a1: float, a2: float) -> np.ndarray:
    """Merit operator R(a1, a2) with every Kronecker product formed per call.

    The formula :func:`axiclone.choi._merit` had before its six terms were
    precomputed; the two must agree bit for bit, signed zeros included.
    """
    i2 = np.eye(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    yt = np.array([[0.0, -1.0], [1.0, 0.0]])
    m2 = (2 * a2 + 1) / 3
    s2 = (1 - m2) / 2
    terms = ((1.0, i2, i2), (a1, z, i2), (a1, i2, z), (m2, z, z),
             (s2, x, x), (s2, yt, yt))
    # each (input, clone) factor acts on clone 1, then on clone 2
    return sum(c * (np.kron(np.kron(a, b), i2) + np.kron(np.kron(a, i2), b))
               for c, a, b in terms) / 8


def merit_kernel_reference(x: np.ndarray) -> np.ndarray:
    """Azimuth-averaged merit integrand at cos(theta) = x, all nodes at once."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_phi = 16
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    i2 = np.eye(2)
    c = np.sqrt((1 + x) / 2)
    s = np.sqrt((1 - x) / 2)
    amp = np.empty(x.shape + (n_phi, 2), dtype=complex)
    amp[..., 0] = c[..., None]
    amp[..., 1] = s[..., None] * np.exp(1j * phis)
    rho = amp[..., :, None] * amp.conj()[..., None, :]
    half = (np.einsum("...ij,kl->...ikjl", rho, i2)
            + np.einsum("ij,...kl->...ikjl", i2, rho)).reshape(x.shape + (n_phi, 4, 4))
    kern = 0.5 * np.einsum("...pij,...pkl->...ikjl",
                           np.swapaxes(rho, -1, -2), half).reshape(x.shape + (8, 8))
    return kern / n_phi


def _real_form(r: np.ndarray) -> np.ndarray:
    """[[Re R, -Im R], [Im R, Re R]]: v^dag R v = s^T (this) s, s = [Re v; Im v]."""
    r = np.asarray(r)
    return np.block([[r.real, -r.imag], [r.imag, r.real]])


def _gram_schmidt(row: np.ndarray, env: int):
    """(Re q0, Re q1, Im q0, Im q1): the Haar columns of one row, 1-D each.

    The row's first 16 env entries are Re A, the next 16 env Im A, for an
    (8 env, 2) Gaussian matrix A in row-major order.  Gram-Schmidt with
    diag(R) > 0: normalise column 0, take its projection out of column 1,
    normalise.
    """
    size = 16 * env
    re = row[:size].reshape(8 * env, 2)
    im = row[size:2 * size].reshape(8 * env, 2)
    x0, y0, x1, y1 = re[:, 0], im[:, 0], re[:, 1], im[:, 1]
    n0 = np.sqrt((x0 * x0 + y0 * y0).sum())
    qx, qy = x0 / n0, y0 / n0
    rr = (qx * x1 + qy * y1).sum()
    ri = (qx * y1 - qy * x1).sum()
    ux = x1 - qx * rr + qy * ri
    uy = y1 - qy * rr - qx * ri
    n1 = np.sqrt((ux * ux + uy * uy).sum())
    return qx, ux / n1, qy, uy / n1


def haar_isometry(seed: int, env_dim: int) -> np.ndarray:
    """Haar isometry C^2 -> C^(8 env_dim) of row 0 of ``default_rng(seed)``."""
    row = np.random.default_rng(seed).standard_normal(32 * env_dim)
    x0, x1, y0, y1 = _gram_schmidt(row, env_dim)
    return np.stack([x0 + 1j * y0, x1 + 1j * y1], axis=1)


def random_cptp(seed: int, env_dim: int = 1) -> np.ndarray:
    """Choi of a Haar-random channel: isometry C^2 -> C^4 (x) C^(2 env_dim).

    env_dim=1 reproduces the cloner's own shape (three-qubit isometry, the
    ancilla qubit traced out, Kraus rank 2); env_dim=4 reaches full rank 8.
    Deterministic per seed, and the channel of sample 0 of
    :func:`axiclone.choi.max_sampled_fidelity` with the same seed.
    """
    return choi_from_isometry(haar_isometry(seed, env_dim))


def row_fidelity(r: np.ndarray, row: np.ndarray, env: int) -> float:
    """Tr(chi R) of the Haar channel of one row, through the real 16x16 form.

    The Kraus vectors v[e, 4 i + out] = W[(out, e), i], stacked as
    [Re v; Im v], are the columns (Re W[:, 0], Re W[:, 1], Im W[:, 0],
    Im W[:, 1]) read as a (16, 2 env) matrix.
    """
    s = np.concatenate(_gram_schmidt(row, env)).reshape(16, 2 * env)
    return float(((_real_form(r) @ s) * s).sum())


def sampled_fidelity_loop(r: np.ndarray, n_samples: int, seed: int = 0,
                          env_dims=(1, 2, 4)) -> float:
    """Largest Tr(chi R) over Haar channels, one sample at a time.

    Sample k is the k-th row of 32 * max(env_dims) standard normals drawn
    from one ``default_rng(seed)``; environment size env reads its first
    16 env entries as the real part and the next 16 env as the imaginary
    part.  Each isometry is one Gram-Schmidt step, diag(R) > 0, so sample 0
    is exactly ``haar_isometry(seed, env)``.
    """
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(n_samples):
        row = rng.standard_normal(32 * max(env_dims))
        for env in env_dims:
            best = max(best, row_fidelity(r, row, env))
    return best


def lapack_haar_isometry(z: np.ndarray, env: int) -> np.ndarray:
    """Haar isometries of the rows of ``z`` by LAPACK QR, phase-fixed.

    The QR factor of each (8 env, 2) complex Gaussian matrix, its columns
    rotated so diag(R) > 0; shape (n, 8 env, 2).
    """
    n = z.shape[0]
    size = 16 * env
    a = (z[:, :size] + 1j * z[:, size:2 * size]).reshape(n, 8 * env, 2)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d)).conj()[..., None, :]


def lapack_fidelities(r: np.ndarray, z: np.ndarray, env: int) -> np.ndarray:
    """Tr(chi R) per row of ``z``: LAPACK isometries, complex contraction."""
    n = z.shape[0]
    w = lapack_haar_isometry(z, env)
    # Kraus vectors v[e, 4*i + out] = W[(out, e), i]
    v = (w.reshape(n, 4, 2 * env, 2).transpose(0, 2, 3, 1)
         .reshape(n, 2 * env, 8))
    return np.real(np.einsum("nei,ij,nej->n", v.conj(), r, v))


# A_i = e_i (x) 1_4: Tr(A_i chi) are the three entries of Tr_clones chi.
_CLONE_TRACE = np.stack([np.kron(e, np.eye(4)) for e in (
    np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.0, 1.0]))])


def primal_sdp_max(r: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximise Tr(chi R) over every real CPTP Choi matrix chi; (F, chi).

    Follows the central path of t Tr(chi R) + log det chi subject to
    Tr_clones chi = 1 (Boyd & Vandenberghe, Convex Optimization, 10.2 and
    11.3) for t = 8, 64, ... until the duality gap 8/t is below 1e-11.
    chi is held as a factor, chi = L L^T, so that its vanishing
    eigenvalues keep their relative precision.  The Newton step in those
    coordinates is S, the part of t L^T R L + 1 orthogonal to the
    L^T A_i L; it is projected twice more because t R and the multipliers
    cancel at large t.  The damped step 1 + S / (1 + |S|_F) is positive
    definite, and the congruence (Tr_clones chi)^(-1/2) (x) 1_4 restores
    the constraint exactly.  R must be real symmetric.
    """
    r = np.asarray(r, dtype=float)
    eye = np.eye(8)
    l = eye / 2
    t = 8.0
    while True:
        for _ in range(50):
            b = l.T @ _CLONE_TRACE @ l
            gram = np.einsum("iab,jab->ij", b, b)
            s = t * (l.T @ r @ l) + eye
            for _ in range(3):
                mu = np.linalg.solve(gram, np.einsum("iab,ab->i", b, s))
                s -= np.einsum("i,iab->ab", mu, b)
            dec = float(np.sum(s * s))
            if dec < 1e-10:
                break
            l = l @ np.linalg.cholesky(eye + s / (1 + math.sqrt(dec)))
            w, v = np.linalg.eigh(partial_trace(l @ l.T, {1}))
            l = np.kron((v / np.sqrt(w)) @ v.T, np.eye(4)) @ l
        else:
            raise ArithmeticError(f"Newton centring stalled at t = {t:.3g}")
        if 8 / t < 1e-11:
            chi = l @ l.T
            return float(np.sum(chi * r)), chi
        t *= 8


def vmf_kappa_threshold() -> float:
    """Concentration at which Gamma = -1 for vMF, by bisection on [0.05, 1].

    Returns the interior end of the final bracket, within 1e-12 of the root.
    """
    lo, hi = 0.05, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if optimal_angles(moments(VonMisesFisher(kappa=mid))).gamma + 1.0 > 0:
            lo = mid
        else:
            hi = mid
    return lo


def branch_search_angles(m) -> ClonerParams:
    """The closed-form cloner, its branch found by search.

    Chooses the arcsin branch and the boundary side by evaluating every
    candidate cloner and keeping the best.
    :func:`axiclone.optimal.optimal_angles` picks them from two identities of
    the fidelity formula instead, and must agree with this bit for bit.
    """
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
        boundary = max((pcc_params(True), pcc_params(False)),
                       key=lambda p: average_fidelity(m, p))
        if average_fidelity(m, boundary) > average_fidelity(m, equator) + _TIE_TOL:
            return boundary
        return equator

    g = 6 * SQRT2 * a1 * (a2 - 1) / prod
    if abs(g) >= 1.0:
        omega = _omega(a1, a2, prod)
        upper = _boundary(True, g, omega)
        lower = _boundary(False, g, omega)
        if average_fidelity(m, upper) >= average_fidelity(m, lower):
            return upper
        return lower

    omega = _omega(a1, a2, prod)
    # written as "not <=" so that a NaN Omega is rejected too
    if prod <= 0 or not omega <= 1.0 + 1e-9:
        raise InfeasibleMomentsError(
            f"interior stationary value {omega} (x+ x- = {prod:.3e}) at {tuple(m)}")
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


_SQRT2 = math.sqrt(2.0)
_BLOCK_PAIRS = ((0, 1), (2, 3))


def block_basis() -> np.ndarray:
    """Orthonormal basis adapted to the rotation/swap symmetry.

    Columns: |000>, |1>|S+>, |111>, |0>|S+>, |1>|S->, |0>|S->, |011>, |100>,
    where |S+-> = (|01> +- |10>)/sqrt(2) lives on the clone pair.  Symmetric
    operators are block diagonal here: two 2x2 blocks on the first four
    vectors and four scalars on the rest.
    """
    e = np.eye(8)
    b = np.zeros((8, 8))
    b[:, 0] = e[:, 0b000]
    b[:, 1] = (e[:, 0b101] + e[:, 0b110]) / _SQRT2
    b[:, 2] = e[:, 0b111]
    b[:, 3] = (e[:, 0b001] + e[:, 0b010]) / _SQRT2
    b[:, 4] = (e[:, 0b101] - e[:, 0b110]) / _SQRT2
    b[:, 5] = (e[:, 0b001] - e[:, 0b010]) / _SQRT2
    b[:, 6] = e[:, 0b011]
    b[:, 7] = e[:, 0b100]
    return b


@dataclass(frozen=True)
class SymmetryBlocks:
    """Block content of an operator in the symmetry-adapted basis."""

    block1: np.ndarray          # on {|000>, |1>|S+>}
    block2: np.ndarray          # on {|111>, |0>|S+>}
    scalars: np.ndarray         # diag on (|1>|S->, |0>|S->, |011>, |100>)
    off_block_residual: float   # max |entry| outside the block pattern


def symmetry_blocks(m: np.ndarray) -> SymmetryBlocks:
    """Decompose an 8x8 Hermitian operator into its symmetry blocks."""
    m = _hermitian_8x8(m, "operator")
    b = block_basis()
    mb = b.T @ m @ b
    mask = np.ones((8, 8), dtype=bool)
    for i, j in _BLOCK_PAIRS:
        mask[i:j + 1, i:j + 1] = False
    for k in range(4, 8):
        mask[k, k] = False
    residual = float(np.max(np.abs(mb[mask]))) if mask.any() else 0.0
    return SymmetryBlocks(
        block1=mb[0:2, 0:2].copy(),
        block2=mb[2:4, 2:4].copy(),
        scalars=np.real(np.diagonal(mb)[4:8]).copy(),
        off_block_residual=residual,
    )


def simulate_reference(theta: float, phi: float,
                       p: ClonerParams) -> tuple[np.ndarray, np.ndarray, list]:
    """Input amplitudes, output state and (F_clone1, F_clone2), on arrays.

    The output is the 8x2 isometry matrix times the input amplitudes; clone
    i's state is the partial trace of the output projector, and its fidelity
    is <a| rho_i |a>.
    """
    amps = np.array([math.cos(theta / 2),
                     np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex)
    cp, sp = math.cos(p.alpha_plus), math.sin(p.alpha_plus)
    cm, sm = math.cos(p.alpha_minus), math.sin(p.alpha_minus)
    v = np.zeros((8, 2), dtype=complex)
    v[0b001, 0] = cp
    v[0b010, 0] = v[0b100, 0] = sp / _SQRT2
    v[0b110, 1] = cm
    v[0b011, 1] = v[0b101, 1] = sm / _SQRT2
    out = v @ amps
    rho = np.outer(out, out.conj())
    fids = [float(np.real(amps.conj() @ partial_trace(rho, {i}) @ amps))
            for i in (1, 2)]
    return amps, out, fids
