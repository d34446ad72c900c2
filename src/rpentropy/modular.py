"""Density matrices, canonical purification, and the modular operators of a
doubled finite-dimensional system.

The purified vector lives in H1 (x) H2 with H2 a copy of H1.  Conventions:
row-major flattening throughout, the purifying factor carries the conjugated
eigenbasis, so the purified vector equals vec(sqrt(rho)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
RANK_FLOOR = 1e-12


class InvalidStateError(ValueError):
    """Input fails a density-matrix or purified-state invariant."""


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
    """Hermitian, unit-trace, full-rank (invertible) state on a d-dim space."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise InvalidStateError(f"expected shape {(self.dim, self.dim)}, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise InvalidStateError("matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL or abs(np.trace(mat).imag) > TRACE_TOL:
            raise InvalidStateError("trace differs from 1 beyond tolerance")
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        if eigs.min() < RANK_FLOOR:
            raise InvalidStateError(
                f"state not invertible: smallest eigenvalue {eigs.min():.3e} "
                f"below rank floor {RANK_FLOOR:.0e}")
        object.__setattr__(self, "entries", mat)

    @classmethod
    def from_matrix(cls, mat) -> "DensityMatrix":
        mat = np.asarray(mat, dtype=complex)
        return cls(dim=mat.shape[0], entries=mat)


@dataclass(frozen=True)
class PurifiedState:
    """Schmidt data of the purified vector: sum_p sqrt(lam_p) |p> (x) |p~>.

    `eigenbasis` columns are the H1 eigenvectors |p>, sorted by descending
    eigenvalue with a fixed phase convention.  The H2 basis is the canonical
    conjugated copy, so vector() equals vec(sqrt(rho)).
    """

    dim: int
    schmidt_values: np.ndarray
    eigenbasis: np.ndarray

    @property
    def h2_basis(self) -> np.ndarray:
        return self.eigenbasis.conj()

    def vector(self, h2_basis: np.ndarray | None = None) -> np.ndarray:
        """Purified vector in computational coordinates (length d**2)."""
        u2 = self.h2_basis if h2_basis is None else h2_basis
        mat = (self.eigenbasis * np.sqrt(self.schmidt_values)) @ u2.T
        return mat.reshape(-1)

    def reconstruct_density(self) -> np.ndarray:
        u = self.eigenbasis
        return (u * self.schmidt_values) @ u.conj().T


def purify(rho: DensityMatrix) -> PurifiedState:
    """Canonical purification of an invertible density matrix.

    Eigenvalues are sorted descending; degenerate eigenspaces get a
    deterministic orientation from the phase convention.  Downstream
    entropies do not depend on these choices.
    """
    lam, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    vecs = _phase_fix(vecs[:, order])
    if lam.min() < RANK_FLOOR:
        raise InvalidStateError("state not invertible")
    return PurifiedState(dim=rho.dim, schmidt_values=lam, eigenbasis=vecs)


@dataclass(frozen=True)
class ModularData:
    """Modular operator and conjugation of the purified vector.

    In the Schmidt product basis |p q~> the modular operator is diagonal with
    eigenvalues lam_p / lam_q, and the conjugation acts as the (p,q) -> (q,p)
    basis transposition followed by componentwise complex conjugation.
    """

    dim: int
    schmidt_values: np.ndarray
    eigenbasis: np.ndarray
    h2_basis: np.ndarray

    @property
    def delta_eigenvalues(self) -> np.ndarray:
        """All d**2 ratios lam_p/lam_q, flattened row-major over (p, q)."""
        lam = self.schmidt_values
        return (lam[:, None] / lam[None, :]).reshape(-1)

    def _basis(self) -> np.ndarray:
        return np.kron(self.eigenbasis, self.h2_basis)

    def _to_coeffs(self, vec: np.ndarray) -> np.ndarray:
        d = self.dim
        mat = vec.reshape(d, d)
        return self.eigenbasis.conj().T @ mat @ self.h2_basis.conj()

    def _from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return (self.eigenbasis @ coeffs @ self.h2_basis.T).reshape(-1)

    def apply_delta(self, vec: np.ndarray, power: float = 1.0) -> np.ndarray:
        """Apply the modular operator raised to `power`."""
        lam = self.schmidt_values
        ratios = (lam[:, None] / lam[None, :]) ** power
        return self._from_coeffs(ratios * self._to_coeffs(vec))

    def apply_conjugation(self, vec: np.ndarray) -> np.ndarray:
        """Apply the antiunitary conjugation (transpose + conjugate in Schmidt basis)."""
        return self._from_coeffs(self._to_coeffs(vec).conj().T)

    def delta_matrix(self) -> np.ndarray:
        """Dense d**2 x d**2 modular operator (small dimensions only)."""
        w = self._basis()
        return (w * self.delta_eigenvalues) @ w.conj().T

    def conjugation_matrix(self) -> np.ndarray:
        """Unitary factor M of the antilinear map J: x -> M conj(x)."""
        d = self.dim
        w = self._basis()
        perm = (np.arange(d * d).reshape(d, d).T).reshape(-1)
        return w[:, perm] @ w.T


def modular_operators(psi: PurifiedState) -> ModularData:
    return ModularData(dim=psi.dim, schmidt_values=psi.schmidt_values,
                       eigenbasis=psi.eigenbasis, h2_basis=psi.h2_basis)


def reflect_operator(md: ModularData, op: np.ndarray) -> np.ndarray:
    """Reflected operator J (op (x) 1) J, returned on the second factor.

    For op supported on H1 the result is supported on H2; their product
    sandwiched in the purified vector is real and nonnegative.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (md.dim, md.dim):
        raise ValueError(f"operator must be {md.dim}x{md.dim}")
    op_p = md.eigenbasis.conj().T @ op @ md.eigenbasis
    return md.h2_basis @ op_p.conj() @ md.h2_basis.conj().T


def doubled_overlap(psi: PurifiedState, op_first: np.ndarray,
                    op_second: np.ndarray) -> complex:
    """<0| (A (x) B) |0> for A on the first factor, B on the second."""
    mat = (psi.eigenbasis * np.sqrt(psi.schmidt_values)) @ psi.h2_basis.T
    return complex(np.trace(mat.conj().T @ op_first @ mat @ op_second.T))


def half_sided_overlap(psi: PurifiedState, md: ModularData, op: np.ndarray) -> complex:
    """<0| (O (x) 1) Delta^{1/2} (O^dag (x) 1) |0>, the reflection-positive form."""
    vec = md.apply_delta(_apply_first_factor(psi, op.conj().T), power=0.5)
    bra = _apply_first_factor(psi, op.conj().T)
    # <0| O ... = <O^dag 0| ...
    return complex(np.vdot(bra, vec))


def _apply_first_factor(psi: PurifiedState, op: np.ndarray) -> np.ndarray:
    mat = (psi.eigenbasis * np.sqrt(psi.schmidt_values)) @ psi.h2_basis.T
    return (op @ mat).reshape(-1)


@dataclass
class TomitaReport:
    trials: int
    max_residual: float
    residuals: np.ndarray
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def check_tomita_relation(psi: PurifiedState, md: ModularData, trials: int,
                          rng: np.random.Generator | None = None,
                          tol: float = 1e-10) -> TomitaReport:
    """Verify J Delta^{1/2} (O (x) 1)|0> = (O^dag (x) 1)|0> on random operators.

    Operators are complex Ginibre draws normalized to unit Frobenius norm,
    acting on the first tensor factor only.  Failures carry the offending
    operator for replay.
    """
    from .sampling import random_operator

    if rng is None:
        rng = np.random.default_rng(0)
    residuals = np.empty(trials)
    failures = []
    for t in range(trials):
        op = random_operator(psi.dim, rng)
        lhs = md.apply_conjugation(md.apply_delta(_apply_first_factor(psi, op), power=0.5))
        rhs = _apply_first_factor(psi, op.conj().T)
        res = float(np.linalg.norm(lhs - rhs))
        residuals[t] = res
        if res > tol:
            failures.append({"trial": t, "residual": res,
                             "operator_re": op.real.tolist(),
                             "operator_im": op.imag.tolist()})
    return TomitaReport(trials=trials, max_residual=float(residuals.max(initial=0.0)),
                        residuals=residuals, failures=failures)
