"""Independent references for the tests; numpy only.

The primal solver maximises Tr(chi R) over every CPTP map with a log-det
barrier (Audenaert & De Moor, PRA 65, 030302 (2002), for channel
optimisation as an SDP), reading nothing of the closed form, so its optimum
checks the analytic cloner from the primal side, as the dual certificate
checks it from the other.  The Haar loop is the one-sample-at-a-time sweep
the batched :func:`axiclone.max_sampled_fidelity` must reproduce exactly:
row k of one ``default_rng(seed)`` stream, one Gram-Schmidt step,
diag(R) > 0, per environment, written out on 1-D arrays, so sample 0 is
exactly ``random_cptp``.  The LAPACK QR and complex-contraction path it
replaced is kept as an independent reference, equal to rounding.  The merit
kernel, the merit integrand built from explicit pure states and summed over
a 16-point azimuth grid, is the independent reference for the closed-form
:func:`axiclone.build_merit`: equal at each latitude and, integrated against
a density, equal to quadrature accuracy.  The vMF regime threshold is found
by bisection on Gamma.
"""

import math

import numpy as np

from axiclone import VonMisesFisher, gamma, moments
from axiclone.choi import trace_out_clones


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
    """The isometry behind ``random_cptp(seed, env_dim)``, drawn on its own."""
    row = np.random.default_rng(seed).standard_normal(32 * env_dim)
    x0, x1, y0, y1 = _gram_schmidt(row, env_dim)
    return np.stack([x0 + 1j * y0, x1 + 1j * y1], axis=1)


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
    is exactly ``random_cptp(seed, env)``.
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
            w, v = np.linalg.eigh(trace_out_clones(l @ l.T))
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
        if gamma(moments(VonMisesFisher(kappa=mid))) + 1.0 > 0:
            lo = mid
        else:
            hi = mid
    return lo
