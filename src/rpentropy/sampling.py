"""Random ensembles: Haar unitaries, simplex eigenvalues, seeded trial streams."""

from __future__ import annotations

import numpy as np

# Random states are redrawn, never clamped, when an eigenvalue falls below
# this floor; keeps the invertibility premise intact.
EIGENVALUE_REDRAW_FLOOR = 1e-6


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial, reproducible across schedules."""
    return np.random.default_rng((int(master_seed), int(trial_index)))


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


def random_operator(dim: int, rng: np.random.Generator, hermitian: bool = False,
                    unit_norm: bool = True) -> np.ndarray:
    """Complex Ginibre test operator, optionally hermitized / Frobenius-normalized."""
    op = ginibre(dim, rng)
    if hermitian:
        op = 0.5 * (op + op.conj().T)
    if unit_norm:
        op = op / np.linalg.norm(op)
    return op
