"""Density matrices and their canonical purification on a doubled
finite-dimensional system, with the package's gates: the state invariants'
and the scalar parameters'.  An exponent weight (lam, a literal power s, the
central charge c) is a real in (0, inf) and a ridge one in [0, inf), a Renyi
index n a real in [1, inf) and an integer under a trace power, a tolerance a
finite real, and a count (trials, a seed, jobs, a split factor) an integral
real within its bounds; no gate takes a bool, and each names the parameter
it refuses.  The command line converts each numeric option with these gates.

The purified vector lives in H1 (x) H2 with H2 a copy of H1.  Conventions:
row-major flattening throughout, the purifying factor carries the conjugated
eigenbasis, so the purified vector equals vec(sqrt(rho)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
RANK_FLOOR = 1e-12


class InvalidStateError(ValueError):
    """Input fails a density-matrix or purified-state invariant."""


def _real(value) -> bool:
    """A real number, and not a bool (numpy's included)."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _check_weight(value, what: str, zero: bool = False) -> float:
    """The weight gate: value as a float, once it is a real in (0, inf), or
    in [0, inf) with `zero` (a ridge)."""
    if not (_real(value) and (0 <= value if zero else 0 < value) and value < math.inf):
        raise ValueError(f"{what} must be {'>=' if zero else '>'} 0 and finite, got {value!r}")
    return float(value)


def _check_count(value, what: str, low: int, high: float = math.inf) -> int:
    """The count gate: value as an int, once it is an integral real in
    [low, high] (2.0 counts; int() would truncate 2.7)."""
    if not (_real(value) and low <= value <= high and value % 1 == 0):
        bound = f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise ValueError(f"{what} must be {bound} and an integer, got {value!r}")
    return int(value)


def _check_renyi_order(n, integer: bool = False):
    """The Renyi-order gate: n as given once it is a real in [1, inf); with
    `integer`, as an int once it is also integral (2.0 counts)."""
    if not (_real(n) and 1 <= n < math.inf and (not integer or n % 1 == 0)):
        kind = "an integer" if integer else "finite"
        raise ValueError(f"Renyi index must be >= 1 and {kind}, got {n!r}")
    return int(n) if integer else n


def _check_tolerance(value, what: str) -> float:
    """The tolerance gate: value as a float once it is a finite real, negative
    allowed (a NaN would pass every `slack < -tol` test unseen)."""
    if not (_real(value) and math.isfinite(value)):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


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
