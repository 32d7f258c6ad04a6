"""Independent references for the tests; numpy and mpmath only.

The package computes every Legendre moment in closed form.  The densities
below, one per kind written out at 30 digits from the formula in its
docstring, and mpmath's double-exponential quadrature that integrates them
are the independent path those moments, the normalisation and the average
fidelity are checked against, to 1e-14.  The mass of Delta, DeltaPair and
of a belt too thin for float edges sits on rings, where the integral is a
weighted sum.  The fidelity integrated is the paper's single-copy fidelity,
a polynomial in cos(theta) written out at 30 digits, which the package's
float single-copy fidelity must also equal pointwise.  The 8x8 merit
operator is integrated against the densities by a float Gauss-Legendre
rule instead, whose 64- and 128-node passes must agree.  Fiurasek's
extremal iteration maximises Tr(chi R) over every CPTP map through CPTP
iterates only, reading nothing of the closed form, so its fixed point
checks the analytic cloner from the primal side, as the dual certificate
checks it from the other.  The Haar loop is the one-sample-at-a-time,
one-thread sweep the batched, two-thread
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
scalar :mod:`axiclone.qsim` must reproduce to rounding, and the generic
scalar clone trace, a ``sum`` over the other qubits' rows, is the reference
its written-out trace must equal bit for bit.  The general partial trace and
the Choi matrix of any isometry are the path the certificate's fixed-shape
clone trace and the cloner's Choi matrix must equal bit for bit.  The
Kronecker embedding of each gate, with its 2x2 written out per kind, is the
reference for the row-pair products of
:func:`axiclone.circuit.circuit_unitary`, and the merit operator summed
from Kronecker products formed per call is the reference for the
precomputed terms of :func:`axiclone.choi.build_merit`.  The closed-form
optimum at 50 digits in mpmath is the reference the float closed form must
reach to rounding, near a pole too, where x+ x- is a small difference of
O(1) terms.  The average fidelity written as one expression in the moments
and the angles is the reference the package's factor form, the cloner's
factors paired with the ensemble's, must equal bit for bit.
"""

import bisect
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss

from axiclone.choi import _hermitian_8x8
from axiclone.dist import MomentPair, VonMisesFisher, moments, validate_moments
from axiclone.errors import (DomainError, InfeasibleMomentsError,
                             UnsupportedKindError)
from axiclone.optimal import (DEGENERACY_EPS, SQRT2, _TIE_TOL, ClonerParams,
                              Regime, _boundary, _omega, _x_terms,
                              average_fidelity, optimal_angles, pcc_params)
from axiclone.qsim import apply_clone


# Working precision of the reference integrals, and the largest error
# estimate mpmath.quad may report for one of them.
_DPS = 30
_QUAD_TOL = 1e-15


def fixed_rule(f, a: float, b: float, n: int):
    """One n-node Gauss-Legendre pass over [a, b] of an array-valued ``f``.

    ``f`` maps the array of nodes to values along its leading axis.
    """
    nodes, weights = leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * nodes))
    return half * np.tensordot(weights, vals, axes=(0, 0))


def rings(dist) -> tuple[tuple[float, float], ...]:
    """(weight, cos theta) of each latitude ring that carries ``dist``'s mass.

    Delta and DeltaPair are rings, and so is a belt whose edges have one
    float cosine, such as theta1 = 1e-9, theta2 = 2e-9: it leaves no float
    interval to integrate over.  Empty for every other kind.
    """
    if dist.kind == "delta":
        return ((1.0, math.cos(dist.theta)),)
    if dist.kind == "deltapair":
        c = math.cos(dist.theta)
        return ((0.5, c), (0.5, -c))
    if dist.kind == "belt" and math.cos(dist.theta1) == math.cos(dist.theta2):
        return ((1.0, math.cos(dist.theta1)),)
    return ()


def density(dist):
    """Marginal g(x) of a density-backed kind, as a function of an mpmath x.

    Each branch is the formula of the kind's class docstring at 30 digits,
    where nothing in it cancels to below double precision, even at the
    concentrated end of each domain.  A belt's edges and a table's samples
    are the package's floats.  What :func:`rings` carries raises
    UnsupportedKindError.
    """
    kind = dist.kind
    if rings(dist):
        raise UnsupportedKindError(f"{dist!r} sits on rings and carries no density")
    with mpmath.workdps(_DPS):
        if kind == "uniform" or (kind == "vmf" and dist.kappa == 0):
            return lambda x: mpmath.mpf(0.5)
        if kind == "vmf":
            k = mpmath.mpf(dist.kappa)
            scale = k / (2 * mpmath.sinh(k))
            return lambda x: scale * mpmath.exp(k * x)
        if kind == "brosseau":
            # (1 - P^2) (1 - mu x) / (2 q^(3/2)), q = 1 + mu^2 - P^2 - 2 mu x + P^2 x^2
            P, mu = mpmath.mpf(dist.P), mpmath.mpf(dist.mu)
            top, q0, p2, m2 = (1 - P * P) / 2, 1 + mu * mu - P * P, P * P, 2 * mu

            def g(x):
                q = q0 - m2 * x + p2 * x * x
                return top * (1 - mu * x) / (q * mpmath.sqrt(q))
            return g
        if kind == "hg":
            # (1 - h^2) / (2 q^(3/2)), q = 1 + h^2 - 2 h x
            h = mpmath.mpf(dist.h)
            top, q0, h2 = (1 - h * h) / 2, 1 + h * h, 2 * h

            def g(x):
                q = q0 - h2 * x
                return top / (q * mpmath.sqrt(q))
            return g
        if kind == "belt":
            hi = math.cos(dist.theta1)
            lo = math.cos(dist.theta2)
            height = 1 / (mpmath.mpf(hi) - lo)
            return lambda x: height if lo <= x <= hi else 0
        if kind == "table":
            xs, gs = dist.xs, dist.gs

            def g(x):
                if not xs[0] <= x <= xs[-1]:
                    return 0
                i = max(bisect.bisect_left(xs, x), 1)
                t = (x - xs[i - 1]) / (mpmath.mpf(xs[i]) - xs[i - 1])
                return gs[i - 1] + t * (mpmath.mpf(gs[i]) - gs[i - 1])
            return g
    raise UnsupportedKindError(f"{type(dist).__name__} has no density reference")


def marginal_density(dist, x):
    """:func:`density` at float x, |x| <= 1 checked; a scalar for a scalar x."""
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0):
        raise DomainError("cos(theta) argument outside [-1, 1]")
    g = density(dist)
    with mpmath.workdps(_DPS):
        out = np.vectorize(lambda t: float(g(t)), otypes=[float])(xa)
    return out if xa.ndim else float(out)


def integration_edges(dist) -> list[float]:
    """-1, the points inside (-1, 1) where integrals of the marginal split, 1.

    The non-smooth points of a belt or a table, and the peak of a Brosseau
    marginal at x = mu/P, of width about 1 - P, which double-exponential
    quadrature resolves only at an end of an interval.  vMF and HG peak at
    a pole, an end already.
    """
    cuts = ()
    if dist.kind == "brosseau" and dist.P:
        cuts = (dist.mu / dist.P,)
    elif dist.kind == "belt":
        cuts = (math.cos(dist.theta2), math.cos(dist.theta1))
    elif dist.kind == "table":
        cuts = dist.xs
    return [-1.0, *sorted({x for x in cuts if -1.0 < x < 1.0}), 1.0]


def marginal_integral(dist, f):
    """The integral of f(x) g(x) over [-1, 1], g the marginal of ``dist``.

    One ``mpmath.quad`` (tanh-sinh; Takahasi & Mori, Publ. RIMS 9, 721
    (1974)) at 30 digits, split at the :func:`integration_edges`; ``f``
    receives an mpmath number, and the value is mpmath's, real or complex.
    Raises ArithmeticError where mpmath's error estimate exceeds 1e-15.
    That estimate is no proof (for HG at h = 0.9999 it reads 1e-54 while
    the normalisation and both moments are 2.5e-24 off): a check at 1e-14
    rests on the 30-digit margin, which the exact HG moments (h, h^2)
    measure.  Over :func:`rings` the integral is the weighted sum of f.
    """
    ring = rings(dist)
    if ring:
        with mpmath.workdps(_DPS):
            return mpmath.fsum(w * f(mpmath.mpf(c)) for w, c in ring)
    g = density(dist)
    edges = integration_edges(dist)
    with mpmath.workdps(_DPS):
        value, err = mpmath.quad(lambda x: f(x) * g(x), edges, error=True)
    if err > _QUAD_TOL:
        raise ArithmeticError(
            f"mpmath.quad error estimate {float(err):.3e} over {edges} for {dist!r}")
    return value


def quadrature_moments(dist) -> MomentPair:
    """(a1, a2) by direct integration of the marginal."""
    # a1 + i a2 as one integral, so that each node evaluates g once
    z = marginal_integral(dist, lambda x: mpmath.mpc(x, (3 * x * x - 1) / 2))
    return MomentPair(float(z.real), float(z.imag))


def normalization_integral(dist) -> float:
    """Total mass of the marginal, or of the rings; should be 1."""
    return float(marginal_integral(dist, lambda x: 1))


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


def extremal_iteration(r: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximise Tr(chi R) over every real CPTP Choi matrix chi; (F, chi).

    Fiurasek's iteration (PRA 64, 062310 (2001)) from chi = 1/4:
    chi <- K R chi R K with K = (Tr_clones R chi R)^(-1/2) (x) 1_4, so every
    iterate is CPTP and a fixed point satisfies the extremal equation.  R is
    shifted by 1e-8 so that Tr_clones R chi R stays invertible where R has
    rank 3, at the poles; Tr chi = 2 for every CPTP chi, so the shift adds
    the same constant to every Tr(chi R) and keeps the maximiser.  Stops
    when no entry moves by more than 1e-15.  R must be real symmetric.
    """
    r = np.asarray(r, dtype=float)
    shifted = r + 1e-8 * np.eye(8)
    chi = np.eye(8) / 4
    for _ in range(10_000):
        x = shifted @ chi @ shifted
        w, v = np.linalg.eigh(partial_trace(x, {1}))
        k = np.kron((v / np.sqrt(w)) @ v.T, np.eye(4))
        prev, chi = chi, k @ x @ k
        chi = (chi + chi.T) / 2
        if np.abs(chi - prev).max() <= 1e-15:
            return float(np.sum(chi * r)), chi
    raise ArithmeticError("no fixed point after 10000 steps")


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
    prod, rad = _x_terms(a1, a2)

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
        omega = _omega(a2, prod, rad)
        upper = _boundary(True, g, omega)
        lower = _boundary(False, g, omega)
        if average_fidelity(m, upper) >= average_fidelity(m, lower):
            return upper
        return lower

    omega = _omega(a2, prod, rad)
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


def mp_optimum(m) -> float:
    """The closed-form optimal average fidelity, at 50 digits in mpmath.

    From the exact binary values of (a1, a2): the boundary cloners, and the
    interior stationary point (arcsin Omega +- arcsin Gamma)/2 where
    x+ x- > 0, |Gamma| < 1, Omega <= 1 and both angles lie in [0, pi/2];
    the best of them, rounded to a float.  x+-, Gamma and Omega are formed
    as the paper writes them, from the moments and not from their
    deviations from a pole, since at this precision nothing cancels.  Only
    for pairs of the exact feasible region: just above a2 = 1, where
    ``validate_moments`` still accepts a pair, the copier (0, 0) can beat
    every candidate here, by 2.8e-9 at (0.9999999899284618,
    1.0000000007958467).
    """
    with mpmath.workdps(50):
        a1, a2 = mpmath.mpf(m[0]), mpmath.mpf(m[1])
        sqrt2 = mpmath.sqrt(2)
        m2 = (2 * a2 + 1) / 3
        m_plus, m_minus = (1 + 2 * a1 + m2) / 4, (1 - 2 * a1 + m2) / 4

        def fidelity(ap, am):
            return (2 * (3 + mpmath.cos(2 * ap)) * m_plus
                    + 2 * (3 + mpmath.cos(2 * am)) * m_minus
                    + (mpmath.sin(ap) ** 2 + mpmath.sin(am) ** 2
                       + 2 * sqrt2 * mpmath.sin(ap + am)) * (1 - m2)) / 8

        half_pi = mpmath.pi / 2
        best = max(fidelity(0, half_pi), fidelity(half_pi, 0))
        prod = (1 + 2 * a2 + 3 * a1) * (1 + 2 * a2 - 3 * a1)
        rad = 3 + 4 * a2 * a2 - 3 * a1 * a1 - 4 * a2
        if prod > 0 and rad > 0:
            g = 6 * sqrt2 * a1 * (a2 - 1) / prod
            omega = 2 * sqrt2 * (1 + 2 * a2) * (1 - a2) / mpmath.sqrt(3 * prod * rad)
            if abs(g) < 1 and omega <= 1:
                b, d = mpmath.asin(omega), mpmath.asin(g)
                ap, am = (b + d) / 2, (b - d) / 2
                if 0 <= ap <= half_pi and 0 <= am <= half_pi:
                    best = max(best, fidelity(ap, am))
        return float(best)


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


def clone_fidelity_reference(q, p: ClonerParams, i: int) -> float:
    """Clone ``i``'s overlap with the input, by the generic scalar trace.

    rho_jk sums out[r | j bit] conj(out[r | k bit]) with ``sum`` over the
    rows r with clone i's bit clear, in ascending order; then <a| rho is
    contracted first.
    """
    out = apply_clone(q, p)
    bit = 1 << (3 - i)  # clone i's bit in the basis index
    rest = [r for r in range(8) if not r & bit]
    rho = [[sum(out[r | j * bit] * out[r | k * bit].conjugate() for r in rest)
            for k in (0, 1)] for j in (0, 1)]
    a = q.amplitudes()
    bra = [a[0].conjugate() * rho[0][k] + a[1].conjugate() * rho[1][k]
           for k in (0, 1)]
    return (bra[0] * a[0] + bra[1] * a[1]).real


def ring_fidelity(alpha_plus: float, alpha_minus: float):
    """Clone fidelity of the cloner (a+, a-) for a pure input at
    cos(theta) = x, as a function of x, at 30 digits.

    A ring at x has the moments (x, P2(x)), so m2 = x^2, and the paper's
    single-copy fidelity is the polynomial
    F(x) = ((1 + cos^2 a+) (1 + x)^2 + (1 + cos^2 a-) (1 - x)^2
            + (sin^2 a+ + sin^2 a- + 2 sqrt(2) sin(a+ + a-)) (1 - x^2)) / 8.
    """
    with mpmath.workdps(_DPS):
        ap, am = mpmath.mpf(alpha_plus), mpmath.mpf(alpha_minus)
        cp, cm = 1 + mpmath.cos(ap) ** 2, 1 + mpmath.cos(am) ** 2
        cs = (mpmath.sin(ap) ** 2 + mpmath.sin(am) ** 2
              + 2 * mpmath.sqrt(2) * mpmath.sin(ap + am))

    def f(x):
        with mpmath.workdps(_DPS):
            x = mpmath.mpf(x)
            return (cp * (1 + x) ** 2 + cm * (1 - x) ** 2 + cs * (1 - x * x)) / 8
    return f


def fidelity_reference(m, alpha_plus, alpha_minus, cos=math.cos, sin=math.sin):
    """The average fidelity as one expression, in the package's operation order.

    With m2 = (2 a2 + 1)/3, M+- = (1 +- 2 a1 + m2)/4 and S = 1 - m2,
    F = (2 (3 + cos 2a+) M+ + 2 (3 + cos 2a-) M-
         + (sin^2 a+ + sin^2 a- + 2 sqrt(2) sin(a+ + a-)) S) / 8.
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
