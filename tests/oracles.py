"""Reference implementations that the package no longer ships.

The structured maximiser searches the symmetry-restricted CPTP family with
Nelder-Mead (scipy), independently of the closed form and of the dual
certificate.  The Haar loop is the one-sample-at-a-time sweep the batched
:func:`axiclone.max_sampled_fidelity` must reproduce exactly: row k of one
``default_rng(seed)`` stream, one Gram-Schmidt step, diag(R) > 0, per
environment, written out on 1-D arrays, so sample 0 is exactly
``random_cptp``.  The LAPACK QR and complex-contraction path it replaced is
kept as an independent reference, equal to rounding.  The
merit kernel, the merit integrand built from explicit pure states and
summed over a 16-point azimuth grid, is the independent reference for the closed-form
:func:`axiclone.build_merit`: equal at each latitude and, integrated against
a density, equal to quadrature accuracy.
"""

import math

import numpy as np
from scipy.optimize import minimize

from axiclone.choi import _hermitian_8x8, symmetry_blocks


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


def _chi_symmetric(p: np.ndarray) -> np.ndarray:
    """Choi matrix of the symmetry-restricted family.

    Parameters (eta1, eta2, eta3, xi1, xi2, xi3, zeta1, zeta2); the two
    remaining diagonal entries are eliminated by trace preservation,
    eta4 = 1 - 2 eta2 - eta1 and xi4 = 1 - 2 xi2 - xi1.
    """
    e1, e2, e3, x1, x2, x3, z1, z2 = p
    chi = np.zeros((8, 8))
    chi[0, 0] = e1
    chi[1, 1] = chi[2, 2] = e2
    chi[1, 2] = chi[2, 1] = e3
    chi[3, 3] = 1 - 2 * e2 - e1
    chi[4, 4] = 1 - 2 * x2 - x1
    chi[5, 5] = chi[6, 6] = x2
    chi[5, 6] = chi[6, 5] = x3
    chi[7, 7] = x1
    chi[0, 5] = chi[0, 6] = chi[5, 0] = chi[6, 0] = z1
    chi[1, 7] = chi[2, 7] = chi[7, 1] = chi[7, 2] = z2
    return chi


def constrained_maximize(r: np.ndarray, seed: int = 2024,
                         n_starts: int = 32) -> tuple[float, np.ndarray]:
    """Maximise Tr(chi R) over the symmetry-restricted CPTP family.

    Stage one is a multi-start Nelder-Mead over the raw eight parameters
    with a 1e6-weighted penalty on negative Choi eigenvalues.  Stage two
    polishes in reduced coordinates where the off-diagonal couplings are
    eliminated analytically (their PSD-optimal value is the rank-one
    boundary), so the reported maximiser is feasible exactly and the
    objective there concave.  Returns (best fidelity, best Choi matrix).
    """
    r = _hermitian_8x8(r, "merit operator")
    rr = np.real(r)
    rng = np.random.default_rng(seed)

    def penalised(p):
        chi = _chi_symmetric(p)
        eig = np.linalg.eigvalsh(chi)
        penalty = 1e6 * float(np.sum(np.minimum(eig, 0.0) ** 2))
        return -float(np.sum(chi * rr)) + penalty

    lo = np.array([0, 0, -0.5, 0, 0, -0.5, -0.6, -0.6])
    hi = np.array([1, 0.5, 0.5, 1, 0.5, 0.5, 0.6, 0.6])
    best = None
    for _ in range(n_starts):
        p0 = rng.uniform(lo, hi)
        res = minimize(penalised, p0, method="Nelder-Mead",
                       options=dict(fatol=1e-11, xatol=1e-9,
                                    maxiter=2500, maxfev=4000))
        if best is None or res.fun < best.fun:
            best = res

    blocks = symmetry_blocks(rr)
    r1, r2, rs = blocks.block1, blocks.block2, blocks.scalars

    def clamp(d):
        d = np.maximum(d, 0.0)
        for sl in (slice(0, 3), slice(3, 6)):
            total = d[sl].sum()
            if total > 1.0:
                d[sl] /= total
        return d

    def reduced_value(d):
        # d = (eta1, p_eta, q_eta, xi1, p_xi, q_xi); p/q are the sums and
        # differences of the paired diagonal entries, all constrained >= 0
        # with eta1 + p_eta + q_eta <= 1 (same for xi); couplings sit on the
        # rank-one boundary |sqrt(2) zeta| = sqrt(diag product).
        e1, pe, qe, x1, px, qx = d
        val = (r1[0, 0] * e1 + r1[1, 1] * px
               + 2 * abs(r1[0, 1]) * math.sqrt(max(e1 * px, 0.0)))
        val += (r2[0, 0] * x1 + r2[1, 1] * pe
                + 2 * abs(r2[0, 1]) * math.sqrt(max(x1 * pe, 0.0)))
        val += (rs[0] * qx + rs[1] * qe
                + rs[2] * (1 - e1 - pe - qe) + rs[3] * (1 - x1 - px - qx))
        return val

    def neg_reduced(d):
        return -reduced_value(clamp(d.copy()))

    p = best.x
    d0 = clamp(np.array([p[0], p[1] + p[2], p[1] - p[2],
                         p[3], p[4] + p[5], p[4] - p[5]]))
    starts = [d0] + [rng.uniform(0.0, 0.8, 6) for _ in range(8)]
    polished = None
    for s in starts:
        res = minimize(neg_reduced, s, method="Nelder-Mead",
                       options=dict(fatol=1e-14, xatol=1e-12,
                                    maxiter=8000, maxfev=12000))
        if polished is None or res.fun < polished.fun:
            polished = res

    e1, pe, qe, x1, px, qx = clamp(polished.x.copy())
    z1 = math.copysign(math.sqrt(max(e1 * px, 0.0) / 2), r1[0, 1])
    z2 = math.copysign(math.sqrt(max(x1 * pe, 0.0) / 2), r2[0, 1])
    chi = _chi_symmetric(np.array([
        e1, (pe + qe) / 2, (pe - qe) / 2,
        x1, (px + qx) / 2, (px - qx) / 2, z1, z2]))
    return float(np.sum(chi * rr)), chi.astype(complex)
