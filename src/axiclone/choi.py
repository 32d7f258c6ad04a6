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
real symmetric with Tr R = 2.  Optimality of the analytic cloner is
certified two ways.  The exact one is an SDP dual point: maximising
Tr(chi R) over chi >= 0 with Tr_clones(chi) = 1 has the dual
min Tr(Y) over Y (x) 1 >= R, so any Y with Y (x) 1 - R >= 0 bounds the
fidelity of every CPTP map, whatever its ancilla.  Complementary slackness
gives the dual point in closed form, Y = Tr_clones[R chi_opt].  The
assumption-free one is a sweep over Haar-random CPTP maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import AxisDistribution, moments
from .errors import CloneError, DomainError, NonHermitianError
from .optimal import ClonerParams, average_fidelity, optimal_angles
from .qsim import clone_isometry

__all__ = [
    "build_merit", "choi_from_params", "choi_fidelity", "random_cptp",
    "symmetry_blocks", "SymmetryBlocks", "dual_certificate",
    "max_sampled_fidelity", "optimality_report", "block_basis",
    "choi_from_isometry", "partial_trace_input", "trace_out_clones",
]

_SQRT2 = math.sqrt(2.0)

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
# sigma_y^T (x) sigma_y = _YT (x) _YT, so the merit operator is real
_YT = np.array([[0.0, -1.0], [1.0, 0.0]])


def build_merit(dist: AxisDistribution) -> np.ndarray:
    """Merit operator R of the ensemble; real symmetric with 0 <= R <= 1."""
    a1, a2 = moments(dist)
    m2 = (2 * a2 + 1) / 3
    s2 = (1 - m2) / 2
    terms = ((1.0, _I2, _I2), (a1, _Z, _I2), (a1, _I2, _Z), (m2, _Z, _Z),
             (s2, _X, _X), (s2, _YT, _YT))
    # each (input, clone) factor acts on clone 1, then on clone 2
    return sum(c * (np.kron(np.kron(a, b), _I2) + np.kron(np.kron(a, _I2), b))
               for c, a, b in terms) / 8


def choi_from_isometry(w: np.ndarray) -> np.ndarray:
    """Choi matrix of X -> Tr_env(W X W^dag) for an isometry W: C^2 -> C^4 (x) env."""
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[1] != 2 or w.shape[0] % 4:
        raise DomainError(f"expected a (4*env, 2) isometry, got {w.shape}")
    env = w.shape[0] // 4
    kraus = w.reshape(4, env, 2)
    chi = np.zeros((8, 8), dtype=complex)
    for e in range(env):
        # |v> = sum_i |i> (x) K_e |i>, laid out as index 4*i + out
        v = kraus[:, e, :].T.reshape(-1)
        chi += np.outer(v, v.conj())
    return chi


def choi_from_params(p: ClonerParams) -> np.ndarray:
    """Choi matrix of the analytic cloner (ancilla traced out).

    The isometry's row index (clone1, clone2, ancilla) already has the
    ancilla as the fastest axis, which is the environment layout
    choi_from_isometry expects.
    """
    return choi_from_isometry(clone_isometry(p))


def trace_out_clones(chi: np.ndarray) -> np.ndarray:
    """Partial trace over both clone factors; identity for a CPTP Choi."""
    return np.einsum("imjm->ij", np.asarray(chi).reshape(2, 4, 2, 4))


def partial_trace_input(chi: np.ndarray) -> np.ndarray:
    """Partial trace over the input factor (the average channel output)."""
    return np.einsum("imin->mn", np.asarray(chi).reshape(2, 4, 2, 4))


def _require_hermitian(m: np.ndarray, name: str, tol: float = 1e-10) -> None:
    dev = np.max(np.abs(m - m.conj().T))
    if dev > tol:
        raise NonHermitianError(f"{name} deviates from Hermitian by {dev:.3e}")


def choi_fidelity(chi: np.ndarray, r: np.ndarray) -> float:
    """F = Tr(chi R); inputs must be Hermitian and the trace must be real."""
    chi = np.asarray(chi)
    r = np.asarray(r)
    if chi.shape != (8, 8) or r.shape != (8, 8):
        raise DomainError("both operators must be 8x8")
    _require_hermitian(chi, "chi")
    _require_hermitian(r, "merit operator")
    val = complex(np.trace(chi @ r))
    if abs(val.imag) > 1e-12:
        raise NonHermitianError(f"fidelity trace has imaginary part {val.imag:.3e}")
    return float(val.real)


def random_cptp(seed: int, env_dim: int = 1) -> np.ndarray:
    """Choi of a Haar-random channel: isometry C^2 -> C^4 (x) C^(2 env_dim).

    env_dim=1 reproduces the cloner's own shape (three-qubit isometry, the
    ancilla qubit traced out, Kraus rank 2); env_dim=4 reaches full rank 8.
    The isometry is the QR factor of a complex Gaussian matrix with the
    R diagonal phase-fixed, which makes it Haar uniform; deterministic per
    seed.
    """
    _check_env_dims((env_dim,))
    return choi_from_isometry(_random_isometry(seed, env_dim))


def _check_env_dims(env_dims) -> None:
    """Environment sizes of the Haar sweep: at least one, each in 1..4."""
    if not env_dims or any(e not in (1, 2, 3, 4) for e in env_dims):
        raise DomainError(f"environment sizes must be in 1..4, got {env_dims}")


def _random_isometry(seed: int, env_dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = 8 * env_dim
    a = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
    return _phase_fixed_q(a)


def _phase_fixed_q(a: np.ndarray) -> np.ndarray:
    """Q factor of each (..., rows, 2) matrix, columns rotated so diag(R) > 0."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d)).conj()[..., None, :]


# Samples per batched QR in max_sampled_fidelity; keeps working arrays ~1 MB.
_HAAR_CHUNK = 1024

# numpy's SeedSequence (pool of four uint32 words) and PCG64 seeding
# constants; NEP 19 keeps the bit streams they define stable.
_SEED_POOL = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _uint32_words(v: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (none for 0)."""
    return [(v >> s) & _M32 for s in range(0, v.bit_length(), 32)]


def _shift_xor(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _pcg64_states(first: int, n: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) that ``default_rng(s)`` holds, for s = first..first+n-1.

    SeedSequence's pool hash and ``generate_state(4, uint64)`` run once over
    the whole chunk in uint32 arrays; ``n`` must not exceed 2**32, so the
    words above the lowest take at most two values across the chunk.  A
    seed with more words than the pool mixes each extra word into the pool
    in one more round, which is applied to the rows that have that word.
    From the four uint64 words (s, seq) of each seed, PCG64 takes
    inc = 2 seq + 1 and state = (inc + s) M + inc mod 2**128.
    """
    first = int(first)
    low = np.arange(n, dtype=np.uint64) + np.uint64(first & _M32)
    carry = (low >> np.uint64(32)).astype(bool)
    upper = [_uint32_words(first >> 32), _uint32_words((first >> 32) + 1)]
    n_words = max(_SEED_POOL, 1 + max(map(len, upper)))
    words = np.zeros((n_words, n), dtype=np.uint32)
    words[0] = low.astype(np.uint32)
    count = np.empty(n, dtype=int)
    for up, rows in zip(upper, (~carry, carry)):
        words[1:1 + len(up), rows] = np.array(up, dtype=np.uint32)[:, None]
        count[rows] = 1 + len(up)

    hash_a = _INIT_A

    def hashmix(v):
        nonlocal hash_a
        v = v ^ np.uint32(hash_a)
        hash_a = (hash_a * _MULT_A) & _M32
        return _shift_xor(v * np.uint32(hash_a))

    def mix(x, y):
        return _shift_xor(np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y)

    # missing words hash like zero words, so padding to the pool is exact
    pool = [hashmix(words[i]) for i in range(_SEED_POOL)]
    for src in range(_SEED_POOL):
        for dst in range(_SEED_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_SEED_POOL, n_words):
        has_word = count > src
        for dst in range(_SEED_POOL):
            pool[dst] = np.where(has_word, mix(pool[dst], hashmix(words[src])),
                                 pool[dst])
    hash_b = _INIT_B
    out = []
    for i in range(8):
        v = pool[i % _SEED_POOL] ^ np.uint32(hash_b)
        hash_b = (hash_b * _MULT_B) & _M32
        out.append(_shift_xor(v * np.uint32(hash_b)).astype(np.uint64))
    # uint64 word k is out[2k] | out[2k+1] << 32; words 0, 1 seed the state
    # (high half first) and words 2, 3 the stream
    s_hi, s_lo, q_hi, q_lo = ((out[2 * k] | (out[2 * k + 1] << np.uint64(32))).tolist()
                              for k in range(4))
    states = []
    for a, b, c, d in zip(s_hi, s_lo, q_hi, q_lo):
        inc = (((c << 64) | d) << 1 | 1) & _M128
        states.append((((inc + ((a << 64) | b)) * _PCG64_MULT + inc) & _M128, inc))
    return states


def max_sampled_fidelity(r: np.ndarray, n_samples: int, seed: int = 0,
                         env_dims=(1, 2, 4)) -> float:
    """Largest Tr(chi R) over ``n_samples`` Haar channels per environment size.

    Sample k is drawn from ``default_rng(seed + k)`` exactly as
    :func:`random_cptp` draws it, so the sweep is reproducible sample by
    sample.  No Generator is built per sample: :func:`_pcg64_states` derives
    the PCG64 state each ``default_rng(seed + k)`` would start from, for a
    whole chunk at once, and one Generator is set to each state in turn.
    The Gaussians drawn from a set state are the same bits as from a fresh
    Generator seeded the same way, so every sample, and the maximum, is
    exact.  Each chunk checks the derived state of its first seed against
    ``np.random.PCG64``'s own and raises :class:`CloneError` on a mismatch,
    so a change to numpy's seeding fails loudly instead of changing samples.
    Generator streams are sequential, so one draw of the largest
    environment's Gaussians serves every environment size: its leading
    entries are what a smaller draw would have produced.  Samples are
    processed in chunks with one stacked QR and one contraction per
    environment size; the maximum is a pure reduction, so the result does
    not depend on the chunking.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    _check_env_dims(env_dims)
    # real block then imaginary block of the largest (8 env, 2) draw
    width = 32 * max(env_dims)
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    best = -math.inf
    for start in range(0, n_samples, _HAAR_CHUNK):
        n = min(_HAAR_CHUNK, n_samples - start)
        # numpy's own seeding, also the check of the seed's type and sign
        reference = np.random.PCG64(seed + start).state["state"]
        states = _pcg64_states(seed + start, n)
        if states[0] != (reference["state"], reference["inc"]):
            raise CloneError(f"derived PCG64 state for seed {seed + start} "
                             "differs from numpy's; its seeding has changed")
        z = np.empty((n, width))
        for k, (state, inc) in enumerate(states):
            bits.state = {"bit_generator": "PCG64",
                          "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            gen.standard_normal(out=z[k])
        for env in env_dims:
            size = 16 * env
            a = z[:, :size] + 1j * z[:, size:2 * size]
            w = _phase_fixed_q(a.reshape(n, 8 * env, 2))
            # Kraus vectors v[e, 4*i + out] = W[(out, e), i]
            v = (w.reshape(n, 4, 2 * env, 2).transpose(0, 2, 3, 1)
                 .reshape(n, 2 * env, 8))
            f = np.real(np.einsum("nei,ij,nej->n", v.conj(), r, v))
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
    r = np.asarray(r)
    if r.shape != (8, 8):
        raise DomainError("merit operator must be 8x8")
    _require_hermitian(r, "merit operator")
    y = trace_out_clones(r @ choi_from_params(params))
    y = 0.5 * (y + y.conj().T)
    lam = float(np.linalg.eigvalsh(np.kron(y, np.eye(4)) - r)[0])
    return float(np.trace(y).real), lam


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
    m = np.asarray(m)
    if m.shape != (8, 8):
        raise DomainError("expected an 8x8 operator")
    _require_hermitian(m, "operator")
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
