"""Choi-matrix machinery: figure of merit, CPTP sampling, optimality checks.

A 1->2 qubit channel E is represented by its 8x8 Choi matrix on
(input x clone1 x clone2),

    chi = sum_ij |i><j| (x) E(|i><j|),      rho_out = Tr_in[chi (rho^T (x) 1)],

so chi is positive semidefinite with Tr_clones(chi) = 1 and Tr(chi) = 2.
The ensemble-average single-copy fidelity of the channel is the pairing
F = Tr(chi R) with the merit operator R, the ensemble average of
1/2 rho^T (x) (rho (x) 1 + 1 (x) rho).  Averaged over the azimuth,
rho^T (x) rho is quadratic in x = cos(theta), so R depends on the ensemble
only through its Legendre moments (a1, a2).  With m2 = E[x^2] = (2 a2 + 1)/3
and k running over the two clones (identity on the other one),

    R = 1/8 sum_k [1 + a1 (Z_in + Z_k) + m2 Z_in Z_k
                   + (1 - m2)/2 (X_in X_k + Yt_in Yt_k)],

where Yt = [[0, -1], [1, 0]] from sigma_y^T (x) sigma_y = Yt (x) Yt, so R is
real symmetric with Tr R = 2.  Its six operator terms do not depend on the
ensemble; they are built once, at import, and each R is their weighted sum.
Optimality of the analytic cloner is certified two ways.  The exact one is
an SDP dual point: maximising Tr(chi R) over chi >= 0 with
Tr_clones(chi) = 1 has the dual
min Tr(Y) over Y (x) 1 >= R, so any Y with Y (x) 1 - R >= 0 bounds the
fidelity of every CPTP map, whatever its ancilla.  Complementary slackness
gives the dual point in closed form, Y = Tr_clones[R chi_opt].  The
assumption-free one is a sweep over Haar-random CPTP maps.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import AxisDistribution, moments
from .errors import DomainError, NonHermitianError
from .optimal import ClonerParams, average_fidelity, optimal_angles
from .qsim import clone_isometry

__all__ = [
    "build_merit", "choi_from_params", "choi_fidelity",
    "dual_certificate", "max_sampled_fidelity", "optimality_report",
]

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
# sigma_y^T (x) sigma_y = _YT (x) _YT, so the merit operator is real
_YT = np.array([[0.0, -1.0], [1.0, 0.0]])
# the (input, clone) factors of the six terms of R, in the order of _merit's
# coefficients; each acts on clone 1, then on clone 2
_MERIT_TERMS = tuple(
    np.kron(np.kron(a, b), _I2) + np.kron(np.kron(a, _I2), b)
    for a, b in ((_I2, _I2), (_Z, _I2), (_I2, _Z), (_Z, _Z), (_X, _X),
                 (_YT, _YT)))


def build_merit(dist: AxisDistribution) -> np.ndarray:
    """Merit operator R of the ensemble; real symmetric with 0 <= R <= 1."""
    return _merit(*moments(dist))


def _merit(a1: float, a2: float) -> np.ndarray:
    """Merit operator R from the Legendre moments (a1, a2)."""
    m2 = (2 * a2 + 1) / 3
    s2 = (1 - m2) / 2
    return sum(c * t for c, t in zip((1.0, a1, a1, m2, s2, s2),
                                     _MERIT_TERMS)) / 8


def choi_from_params(p: ClonerParams) -> np.ndarray:
    """Choi matrix of the analytic cloner (ancilla traced out).

    Row 2 j + e of the isometry W is clone pair j with ancilla e, so column e
    of v is the Kraus vector sum_i |i> (x) K_e |i>, at index 4 i + j.
    """
    w = np.array(clone_isometry(p), dtype=complex)
    v = w.reshape(4, 2, 2).transpose(2, 0, 1).reshape(8, 2)
    return v @ v.conj().T


# Largest entry of |M - M^dag| that still counts as Hermitian.
_HERMITIAN_TOL = 1e-10


def _hermitian_8x8(m, name: str) -> np.ndarray:
    """``m`` as an array, checked to be a finite Hermitian 8x8 operator."""
    m = np.asarray(m)
    if m.shape != (8, 8):
        raise DomainError(f"{name} must be 8x8, got shape {m.shape}")
    # NaN compares false with the tolerance, so catch a non-finite entry first
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} has a non-finite entry")
    dev = np.max(np.abs(m - m.conj().T))
    if dev > _HERMITIAN_TOL:
        raise NonHermitianError(f"{name} deviates from Hermitian by {dev:.3e}")
    return m


def choi_fidelity(chi: np.ndarray, r: np.ndarray) -> float:
    """F = Tr(chi R); inputs must be Hermitian and the trace must be real."""
    chi = _hermitian_8x8(chi, "chi")
    r = _hermitian_8x8(r, "merit operator")
    val = complex(np.trace(chi @ r))
    if abs(val.imag) > 1e-12:
        raise NonHermitianError(f"fidelity trace has imaginary part {val.imag:.3e}")
    return float(val.real)


def _haar_columns(z: np.ndarray, env: int) -> np.ndarray:
    """Haar isometries C^2 -> C^(8 env), one per row of standard normals.

    Row k holds an (8 env, 2) complex Gaussian matrix A: its first 16 env
    entries are Re A in row-major order, the next 16 env are Im A.  The Q
    factor of A with diag(R) > 0 is Haar distributed (Mezzadri, Notices
    AMS 54, 592 (2007)); with two columns it is one Gram-Schmidt step,
    done here in real arithmetic: normalise column 0, take its projection
    out of column 1, normalise.  Returns shape (n, 2, 2, 8 env), indexed
    (sample, re/im, column, row).
    """
    n = z.shape[0]
    size = 16 * env
    a = z[:, :2 * size].reshape(n, 2, 8 * env, 2).transpose(0, 1, 3, 2)
    x0, y0, x1, y1 = a[:, 0, 0], a[:, 1, 0], a[:, 0, 1], a[:, 1, 1]
    n0 = np.sqrt((x0 * x0 + y0 * y0).sum(axis=-1))[:, None]
    qx, qy = x0 / n0, y0 / n0
    # <q0, a1> = rr + i ri
    rr = (qx * x1 + qy * y1).sum(axis=-1)[:, None]
    ri = (qx * y1 - qy * x1).sum(axis=-1)[:, None]
    ux = x1 - qx * rr + qy * ri
    uy = y1 - qy * rr - qx * ri
    n1 = np.sqrt((ux * ux + uy * uy).sum(axis=-1))[:, None]
    q = np.empty((n, 2, 2, 8 * env))
    q[:, 0, 0], q[:, 1, 0] = qx, qy
    q[:, 0, 1], q[:, 1, 1] = ux / n1, uy / n1
    return q


# Samples per chunk in max_sampled_fidelity; keeps working arrays ~1 MB.
_HAAR_CHUNK = 1024


def max_sampled_fidelity(r: np.ndarray, n_samples: int, seed: int = 0,
                         env_dims=(1, 2, 4)) -> float:
    """Largest Tr(chi R) over ``n_samples`` Haar channels per environment size.

    Every sample comes from one ``default_rng(seed)`` stream: sample k is row
    k of its standard normals, 32 * max(env_dims) to a row, and every
    environment size reads the same rows.  An (8 env, 2) isometry is the
    Gram-Schmidt Q factor, diag(R) > 0, of the complex Gaussian matrix whose
    real part is the row's first 16 env entries and whose imaginary part is
    the next 16 env (:func:`_haar_columns`).  R must be a Hermitian 8x8
    operator; it enters through its real 16x16 form, so Im R counts.
    Samples are processed in chunks of ``_HAAR_CHUNK`` rows with one
    contraction per environment size; the rows are drawn in order and the
    maximum is a pure reduction, so the result does not depend on
    ``_HAAR_CHUNK``.
    """
    r = _hermitian_8x8(r, "merit operator")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    if not env_dims or any(e not in (1, 2, 3, 4) for e in env_dims):
        raise DomainError(f"environment sizes must be in 1..4, got {env_dims}")
    # v^dag R v = [Re v; Im v]^T [[Re R, -Im R], [Im R, Re R]] [Re v; Im v]
    r16 = np.block([[r.real, -r.imag], [r.imag, r.real]])
    rng = np.random.default_rng(seed)
    # real block then imaginary block of the largest (8 env, 2) draw
    width = 32 * max(env_dims)
    best = -math.inf
    for start in range(0, n_samples, _HAAR_CHUNK):
        n = min(_HAAR_CHUNK, n_samples - start)
        z = rng.standard_normal((n, width))
        for env in env_dims:
            # Kraus vectors v[e, 4 i + out] = W[(out, e), i]; split as
            # (re/im, i, out, e), the columns already have the (16, 2 env)
            # layout of [Re v; Im v]
            s = _haar_columns(z, env).reshape(n, 16, 2 * env)
            f = ((r16 @ s) * s).sum(axis=(1, 2))
            best = max(best, float(f.max()))
    return best


def dual_certificate(r: np.ndarray, params: ClonerParams) -> tuple[float, float]:
    """SDP dual point of the cloner ``params`` against the merit operator R.

    Returns (Tr Y, lambda_min) with Y = Tr_clones[R chi], Hermitised, for
    chi the cloner's Choi matrix, and lambda_min the least eigenvalue of
    Y (x) 1_4 - R.  Since Y - min(lambda_min, 0) 1 is dual feasible, every
    CPTP Choi matrix obeys Tr(chi R) <= Tr Y - 2 min(lambda_min, 0), for any
    ancilla size.  At the optimum Tr Y = Tr(chi R) and lambda_min = 0.
    """
    r = _hermitian_8x8(r, "merit operator")
    rc = (r @ choi_from_params(params)).reshape([2] * 6)
    # trace out the clones: row (i, j, k) meets column (l, j, k)
    y = np.einsum("ijkljk->il", rc)
    y = 0.5 * (y + y.conj().T)
    lam = float(np.linalg.eigvalsh(np.kron(y, np.eye(4)) - r)[0])
    return float(np.trace(y).real), lam


def optimality_report(dist: AxisDistribution, n_samples: int,
                      seed: int = 0) -> dict:
    """Numbers for the optimality certificate of one distribution.

    Runs the Haar sweep (n_samples per environment size in {1, 2, 4}) and
    the dual certificate, against the analytic optimum.  ``F_upper`` bounds
    the fidelity of every CPTP map; it equals ``F_opt`` when the analytic
    cloner is optimal for the merit operator built from ``dist``.
    """
    m = moments(dist)
    params = optimal_angles(m)
    f_opt = average_fidelity(m, params)
    r = build_merit(dist)
    env_dims = (1, 2, 4)
    sampled = max_sampled_fidelity(r, n_samples, seed=seed, env_dims=env_dims)
    tr_y, lam = dual_certificate(r, params)
    return {
        "F_opt": f_opt,
        "max_sampled_F": sampled,
        "n_samples": n_samples * len(env_dims),
        "dual_gap": tr_y - f_opt,
        "dual_lambda_min": lam,
        "F_upper": tr_y - 2 * min(lam, 0.0),
    }
