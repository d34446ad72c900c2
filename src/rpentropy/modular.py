"""Density matrices and their canonical purification on a doubled
finite-dimensional system, with the state invariants' gates.

The purified vector lives in H1 (x) H2 with H2 a copy of H1.  Conventions:
row-major flattening throughout, the purifying factor carries the conjugated
eigenbasis, so the purified vector equals vec(sqrt(rho)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
RANK_FLOOR = 1e-12


class InvalidStateError(ValueError):
    """Input fails a density-matrix or purified-state invariant."""


def _check_hermitian(mat, bound, what: str) -> None:
    """The Hermiticity gate: raise unless each matrix of the stack mat (..., m, m)
    is within a finite bound (one, or one per matrix) of its adjoint, entrywise."""
    deviation = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if not np.all((deviation <= bound) & (bound < np.inf)):
        raise InvalidStateError(f"{what} not Hermitian: asymmetric beyond tolerance")


def _check_unit_trace(traces, what: str) -> None:
    """The unit-trace gate: raise, naming the first offender, unless each trace
    of the array is 1 within TRACE_TOL in both its real and imaginary parts."""
    traces = np.asarray(traces)
    bad = ~((np.abs(traces.real - 1.0) <= TRACE_TOL) & (np.abs(traces.imag) <= TRACE_TOL))
    if bad.any():
        raise InvalidStateError(f"{what} {traces[bad][0]:.12f}, not 1")


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible component is real positive."""
    pivot = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), np.arange(vectors.shape[1])]
    rotate = np.abs(pivot) > 0
    out = vectors.copy()
    # transposed, each column times its phase rounds as a column by itself
    out[:, rotate] = (vectors[:, rotate].T * (np.abs(pivot[rotate]) / pivot[rotate])[:, None]).T
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, full-rank (invertible) state on a d-dim space, with
    the eigendecomposition (ascending) of the symmetrized entries its rank gate checks."""

    dim: int
    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise InvalidStateError(f"expected shape {(self.dim, self.dim)}, got {mat.shape}")
        _check_hermitian(mat, HERMITICITY_TOL, "density matrix")
        _check_unit_trace(np.trace(mat), "density matrix trace")
        eigs, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        if not eigs.min() >= RANK_FLOOR:
            raise InvalidStateError(f"state not invertible: smallest eigenvalue "
                                    f"{eigs.min():.3e} below rank floor {RANK_FLOOR:.0e}")
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "eigenvectors", vecs)

    @classmethod
    def from_matrix(cls, mat) -> "DensityMatrix":
        mat = np.asarray(mat, dtype=complex)
        return cls(dim=mat.shape[0], entries=mat)


@dataclass(frozen=True)
class PurifiedState:
    """Schmidt data of the purified vector: sum_p sqrt(lam_p) |p> (x) |p~>.

    `eigenbasis` columns are the H1 eigenvectors |p>, sorted by descending
    eigenvalue with a fixed phase convention.  The H2 basis is the canonical
    conjugated copy, so the purified vector (U sqrt(lam)) U2^T, flattened
    row-major with U2 the H2 basis, equals vec(sqrt(rho)).
    """

    dim: int
    schmidt_values: np.ndarray
    eigenbasis: np.ndarray

    @property
    def h2_basis(self) -> np.ndarray:
        return self.eigenbasis.conj()


def purify(rho: DensityMatrix) -> PurifiedState:
    """Canonical purification of an invertible density matrix.

    The density's eigendecomposition, past its rank gate, sorted descending;
    degenerate eigenspaces get a deterministic orientation from the phase
    convention.  Downstream entropies do not depend on these choices.
    """
    order = np.argsort(-rho.eigenvalues, kind="stable")
    return PurifiedState(dim=rho.dim, schmidt_values=rho.eigenvalues[order],
                         eigenbasis=_phase_fix(rho.eigenvectors[:, order]))
