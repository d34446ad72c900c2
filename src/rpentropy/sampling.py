"""Random ensembles: Haar unitaries, simplex eigenvalues, seeded trial streams:
trial k of seed s draws from `default_rng((s, k))` (`trial_rng`, the
reference), and `trial_rngs` seeds a block's streams at once."""

from __future__ import annotations

import functools

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# Random states are redrawn, never clamped, when an eigenvalue falls below
# this floor; keeps the invertibility premise intact.
EIGENVALUE_REDRAW_FLOOR = 1e-6


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial, reproducible across schedules."""
    return np.random.default_rng((int(master_seed), int(trial_index)))


# numpy's SeedSequence (numpy/random/bit_generator.pyx) as uint32 arithmetic
# over a block: a pool of 4 words, and hash step t xors c_t = INIT * MULT^t
# and multiplies by c_(t+1), with one (INIT, MULT) for the entropy mix and
# one for generate_state
_POOL, _MASK32 = 4, 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """Read-only (steps + 1, 1) column of init * mult^t mod 2^32."""
    factors = np.array([init] + [mult] * steps, np.uint32)
    out = np.multiply.accumulate(factors, dtype=np.uint32)[:, None]
    out.setflags(write=False)
    return out


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of rows `value` (k, N) at k consecutive steps."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words (N, 4) uint64 of `SeedSequence(entropy[:, r])` for
    each column r of the uint32 entropy words (L, N)."""
    words, n = entropy.shape
    # 4 steps fill the pool, 12 mix it, 4 per word beyond the pool
    a = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + _POOL * max(0, words - _POOL))
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[:words] = entropy[:_POOL]
    pool, t = _hash(pool, a[:_POOL + 1]), _POOL
    # each pool word mixes into the other three, then each further word into all
    for src in range(max(words, _POOL)):
        dst = [i for i in range(_POOL) if i != src]
        x = _hash(pool[src] if src < _POOL else entropy[src], a[t:t + len(dst) + 1])
        x = _MIX_L * pool[dst] - _MIX_R * x
        pool[dst] = x ^ x >> 16
        t += len(dst)
    state = _hash(np.concatenate([pool, pool]), _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _uint32_words(value: int) -> list:
    """SeedSequence's little-endian uint32 words of a non-negative int."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    if value <= _MASK32:
        return [value]
    return [value >> shift & _MASK32 for shift in range(0, value.bit_length(), 32)]


class _SeedWords(ISeedSequence):
    """A trial's SeedSequence, as PCG64 uses it: one `generate_state(4,
    uint64)` call, answered with the precomputed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def trial_rngs(master_seed: int, indices) -> list:
    """`[trial_rng(master_seed, k) for k in indices]`, seeded a block at a
    time: one run of uint32 arithmetic per entropy length (a seed or an
    index of 2^32 or more adds words) hashes every trial's SeedSequence,
    then each trial's PCG64 takes its words.  Same streams to the last bit;
    a negative seed or index raises ValueError.  A generator's
    `bit_generator.seed_seq` holds only its words, so it cannot `spawn`."""
    seed = _uint32_words(int(master_seed))
    words = [_uint32_words(int(k)) for k in indices]
    state = np.empty((len(words), _POOL), dtype=np.uint64)
    for count in {len(w) for w in words}:
        rows = [r for r, w in enumerate(words) if len(w) == count]
        state[rows] = _state_words(np.array([seed + words[r] for r in rows], np.uint32).T)
    return [Generator(PCG64(_SeedWords(w))) for w in state]


def ginibre_parts(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` (..., 2, d, d) from the stream: each matrix's real parts,
    then its imaginary parts, matrix after matrix.  Returns `out`."""
    rng.standard_normal(out=out)
    return out


def ginibre_from_parts(parts: np.ndarray) -> np.ndarray:
    """Complex matrices (..., d, d) from `ginibre_parts`'s (..., 2, d, d)."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def ginibre(dim: int, rng: np.random.Generator, stack: tuple = ()) -> np.ndarray:
    """Complex Ginibre matrices of shape (*stack, dim, dim).

    The parts come from `ginibre_parts`, so one stacked draw equals that
    many single draws in turn.
    """
    return ginibre_from_parts(ginibre_parts(rng, np.empty((*stack, 2, dim, dim))))


def unitary_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre matrices (..., d, d): QR, then R's phases
    absorbed so the distribution is exactly Haar.  Leading axes are a stack."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return unitary_from_ginibre(ginibre(dim, rng))


def simplex_eigenvalues(dim: int, rng: np.random.Generator,
                        floor: float = EIGENVALUE_REDRAW_FLOOR) -> np.ndarray:
    """Flat Dirichlet draw over the probability simplex, redrawn below `floor`."""
    while True:
        lam = rng.dirichlet(np.ones(dim))
        if lam.min() >= floor:
            return lam


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix: simplex eigenvalues, Haar eigenvectors."""
    lam = simplex_eigenvalues(dim, rng)
    u = haar_unitary(dim, rng)
    rho = (u * lam) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def random_operator(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre test operator of unit Frobenius norm."""
    op = ginibre(dim, rng)
    return op / np.linalg.norm(op)
