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
import threading

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


def _gram_columns(z: np.ndarray, env: int) -> np.ndarray:
    """The isometries of :func:`_haar_columns`, from each row's Gram matrix.

    The same Gram-Schmidt step written through the 4x4 real Gram matrix G of
    (Re a0, Re a1, Im a0, Im a1), a CholeskyQR step: with a0^dag a1 =
    |a0|^2 (cr + i ci) read off G, Q = T A for the 4x4 real T of
    q0 = a0 / |a0|, q1 = (a1 - (cr + i ci) a0) / n1, so a chunk costs two
    batched products in place of the strided passes of _haar_columns.
    n1^2 = |a1|^2 - |a0^dag a1|^2 / |a0|^2 comes from a difference, so its
    rounding grows as u / sin^2 of the angle between a1 and a0 (Yamamoto
    et al., ETNA 44, 306 (2015)); a row with n1^2 < _GRAM_GUARD |a1|^2
    comes out NaN.  Returns shape (n, 4, 8 env), indexed (sample,
    re/im and column, row), the layout of _haar_columns.
    """
    n, size = len(z), 8 * env
    a = z[:, :4 * size].reshape(n, 2, size, 2).transpose(0, 1, 3, 2).reshape(n, 4, size)
    g = a @ a.transpose(0, 2, 1)
    n00, n11 = g[:, 0, 0] + g[:, 2, 2], g[:, 1, 1] + g[:, 3, 3]
    cr = (g[:, 0, 1] + g[:, 2, 3]) / n00
    ci = (g[:, 0, 3] - g[:, 2, 1]) / n00
    u2 = n11 - (cr * cr + ci * ci) * n00
    d1 = 1 / np.sqrt(np.where(u2 < _GRAM_GUARD * n11, np.nan, u2))
    t = np.zeros((n, 4, 4))
    t[:, 0, 0] = t[:, 2, 2] = 1 / np.sqrt(n00)
    t[:, 1, 1] = t[:, 3, 3] = d1
    t[:, 1, 0] = t[:, 3, 2] = -cr * d1
    t[:, 1, 2] = ci * d1
    t[:, 3, 0] = -ci * d1
    return t @ a


def _fidelities(r16: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Tr(chi R) of each isometry of ``q``, laid out as _haar_columns returns
    them, against the real 16x16 form ``r16`` of R."""
    # Kraus vectors v[e, 4 i + out] = W[(out, e), i]; split as (re/im, i,
    # out, e), the columns already have the (16, 2 env) layout of [Re v; Im v]
    s = q.reshape(len(q), 16, -1)
    return ((r16 @ s) * s).sum(axis=(1, 2))


# Smallest n1^2 / |a1|^2, the sin^2 of the angle between a1 and the line of
# a0, at which _gram_columns keeps a row.  At the guard the rounding of n1^2
# is at most about 64 u / 1e-4 = 1.4e-10 relative, so a kept row's Gram
# fidelity is within about 1.4e-10 |R| of its Gram-Schmidt one.  A complex
# Gaussian column in C^(8 env) falls below it with probability
# 1e-4^(8 env - 1), at most 1e-28, so only a contrived row screens as NaN.
_GRAM_GUARD = 1e-4
# Largest gap max_sampled_fidelity allows between the Gram and the
# Gram-Schmidt fidelity of a kept row, in units of the row-sum norm of R
# (which bounds |R|): 7 times the bound at the guard, and 10^6 times the
# largest gap measured, 5.6e-16 over 10^5 rows per environment size.
_SCREEN_TOL = 1e-9
# Samples per chunk in max_sampled_fidelity; the result does not depend on
# it, the speed and the memory do.  With the draws one chunk ahead on the
# helper thread and the caller screening every row, the first
# 10,000-sample sweep of a process peaks under tracemalloc at 1.4 MiB with
# 128 rows, 1.8 with 256, 2.4 with 384 and 2.9 with 512, 0.7 MiB of it the
# import of numpy.random (2.1 with 256 rows before the screen).  On 2 cores
# (Xeon, one BLAS thread) 128 rows ran 17% slower than 256, and 384 or 512
# no faster.
_HAAR_CHUNK = 256
# Environment sizes of verify's Haar sweep.
_ENV_DIMS = (1, 2, 4)


class _OneAhead:
    """Iterate ``make(item)`` over ``items``, each call made on a helper
    thread while the caller works on the result before it.

    The helper makes the calls in order and at most one ahead of the
    caller.  An exception from ``make`` ends the helper and is raised,
    unchanged, where its result would have been returned.  Leaving the
    ``with`` block stops and joins the helper, however it is left.
    """

    def __init__(self, make, items):
        self._make, self._items = make, items
        # Two plain locks, both held, pass the turn: the caller releases _go
        # for each call it wants made, the helper releases _ready once _slot
        # holds that call's (result, exception).  Only the caller releases
        # _go, and a Lock hands over with less GIL traffic than a Semaphore.
        self._go, self._ready = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._ready.acquire()
        self._stop = False
        self._helper = threading.Thread(target=self._run, name="haar-draws")

    def _run(self):
        for item in self._items:
            self._go.acquire()
            if self._stop:
                return
            try:
                self._slot = self._make(item), None
            except BaseException as exc:
                self._slot = None, exc
                return
            finally:
                self._ready.release()

    def __enter__(self):
        self._helper.start()
        self._go.release()
        return self

    def __exit__(self, *exc_info):
        self._stop = True
        # held means the helper took every turn it was given: it is making
        # a call or waiting for the next turn, so one more turn stops it
        if self._go.locked():
            self._go.release()
        self._helper.join()

    def __iter__(self):
        for _ in self._items:
            self._ready.acquire()
            result, exc = self._slot
            if exc is not None:
                raise exc
            self._go.release()
            yield result


def max_sampled_fidelity(r: np.ndarray, n_samples: int, seed: int = 0,
                         env_dims=_ENV_DIMS) -> float:
    """Largest Tr(chi R) over ``n_samples`` Haar channels per environment size.

    Every sample comes from one ``default_rng(seed)`` stream: sample k is row
    k of its standard normals, 32 * max(env_dims) to a row, and every
    environment size reads the same rows.  An (8 env, 2) isometry is the
    Gram-Schmidt Q factor, diag(R) > 0, of the complex Gaussian matrix whose
    real part is the row's first 16 env entries and whose imaginary part is
    the next 16 env (:func:`_haar_columns`).  R must be a Hermitian 8x8
    operator; it enters through its real 16x16 form, so Im R counts.
    Samples are processed in chunks of ``_HAAR_CHUNK`` rows.  One helper
    thread, joined before the call returns, draws each chunk into one of two
    reused buffers while the caller works on the chunk before; only the
    helper touches the generator, and it draws the chunks in order.  For
    each environment size the caller screens every row of a chunk by its
    Gram fidelity (:func:`_gram_columns`), which is NaN or within
    tol = ``_SCREEN_TOL`` |R| of the Gram-Schmidt one.  The Gram-Schmidt
    step and its contraction then run only on the rows that could hold the
    maximum: those whose Gram fidelity is not finite or reaches
    max(best, top - tol) - tol, with best the running maximum and top the
    chunk's largest finite Gram fidelity.  Only these Gram-Schmidt values
    enter the maximum, so the result is the largest Gram-Schmidt fidelity
    of all rows, bit for bit, whatever ``_HAAR_CHUNK`` and however the two
    threads interleave.
    """
    r = _hermitian_8x8(r, "merit operator")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    if not env_dims or any(e not in (1, 2, 3, 4) for e in env_dims):
        raise DomainError(f"environment sizes must be in 1..4, got {env_dims}")
    # v^dag R v = [Re v; Im v]^T [[Re R, -Im R], [Im R, Re R]] [Re v; Im v]
    r16 = np.block([[r.real, -r.imag], [r.imag, r.real]])
    rng = np.random.default_rng(seed)
    rows = min(_HAAR_CHUNK, n_samples)
    # the helper draws into one buffer while the caller reads the other; a
    # row is the real block then the imaginary block of the largest
    # (8 env, 2) draw
    zs = np.empty((2, rows, 32 * max(env_dims)))

    def draw(start):
        return rng.standard_normal(out=zs[start // rows % 2, :min(rows, n_samples - start)])

    # a finite f_fast is within tol of its row's exact value, so a row below
    # bar can reach neither best nor the exact value of the row at top
    tol = _SCREEN_TOL * float(np.linalg.norm(r, np.inf))
    best = -math.inf
    with _OneAhead(draw, range(0, n_samples, rows)) as chunks:
        for z in chunks:
            for env in env_dims:
                f_fast = _fidelities(r16, _gram_columns(z, env))
                kept = np.isfinite(f_fast)
                top = f_fast.max(where=kept, initial=-math.inf)
                bar = max(best, top - tol) - tol
                exact = np.flatnonzero(~kept | (f_fast >= bar))
                if exact.size:
                    f = _fidelities(r16, _haar_columns(z[exact], env))
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

    Runs the Haar sweep (n_samples per environment size in ``_ENV_DIMS``) and
    the dual certificate, against the analytic optimum.  ``F_upper`` bounds
    the fidelity of every CPTP map; it equals ``F_opt`` when the analytic
    cloner is optimal for the merit operator built from ``dist``.
    """
    m = moments(dist)
    params = optimal_angles(m)
    f_opt = average_fidelity(m, params)
    r = _merit(*m)
    sampled = max_sampled_fidelity(r, n_samples, seed=seed)
    tr_y, lam = dual_certificate(r, params)
    return {
        "F_opt": f_opt,
        "max_sampled_F": sampled,
        "n_samples": n_samples * len(_ENV_DIMS),
        "dual_gap": tr_y - f_opt,
        "dual_lambda_min": lam,
        "F_upper": tr_y - 2 * min(lam, 0.0),
    }
