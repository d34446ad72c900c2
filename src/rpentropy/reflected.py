"""Subsystem splits, reflected reduced density matrices and their spectra,
and the entropies computed from them; twist operators and the brute-force
partial trace remain as independent test oracles.

A subsystem is a tensor factorization H1 = H_A (x) H_B encoded by the
coefficients of the state eigenvectors in the split's product basis.  Index
subsets of an axis-aligned basis are the special case of identity
coefficients; a Haar-random coefficient unitary models a generic
non-commuting subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .modular import DensityMatrix, InvalidStateError, PurifiedState

UNITARITY_TOL = 1e-10
PSD_FLOOR = -1e-12
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class SubsystemSplit:
    """Tensor split of H1 with eigenvector coefficients in its product basis.

    coeffs[p, k, l] is the component of eigenvector |p> on the product basis
    vector |k l>; as a (d, d) matrix over p and flattened (k, l) it must be
    unitary (orthonormal in both index families).
    """

    dim_a: int
    dim_b: int
    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        d = self.dim_a * self.dim_b
        if c.shape == (d, d):
            c = c.reshape(d, self.dim_a, self.dim_b)
        if c.shape != (d, self.dim_a, self.dim_b):
            raise InvalidStateError(
                f"coeffs shape {c.shape} incompatible with split ({self.dim_a},{self.dim_b})")
        mat = c.reshape(d, d)
        if np.max(np.abs(mat @ mat.conj().T - np.eye(d))) > UNITARITY_TOL:
            raise InvalidStateError("split coefficients violate row orthonormality")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(d))) > UNITARITY_TOL:
            raise InvalidStateError("split coefficients violate column orthonormality")
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def matrix(self) -> np.ndarray:
        return self.coeffs.reshape(self.dim, self.dim)

    @classmethod
    def axis(cls, dim_a: int, dim_b: int, label: str = "") -> "SubsystemSplit":
        """Axis-aligned split: identity coefficients in the computational basis."""
        return cls(dim_a=dim_a, dim_b=dim_b, coeffs=np.eye(dim_a * dim_b, dtype=complex),
                   label=label)

    @classmethod
    def haar(cls, dim_a: int, dim_b: int, rng: np.random.Generator,
             label: str = "") -> "SubsystemSplit":
        from .sampling import haar_unitary
        return cls(dim_a=dim_a, dim_b=dim_b, coeffs=haar_unitary(dim_a * dim_b, rng),
                   label=label)

    def swapped(self) -> "SubsystemSplit":
        """Complementary arrangement: the B factor becomes the subsystem."""
        return SubsystemSplit(dim_a=self.dim_b, dim_b=self.dim_a,
                              coeffs=self.coeffs.transpose(0, 2, 1),
                              label=self.label + "~" if self.label else "")


@dataclass(frozen=True)
class TwistOperatorSet:
    """Family of d_A x d_A operators indexed by eigenvector pairs (p, q).

    operators[p, q] = (lam_p lam_q)^{1/4} C[p] C[q]^dag with C[p] the
    (d_A, d_B) coefficient block of eigenvector p.  Weighted tensor pairs of
    these reconstruct the reflected reduced density matrices.
    """

    dim_a: int
    operators: np.ndarray

    def hilbert_schmidt_mass(self) -> float:
        """sum_{p,q} tr(O^{pq} (O^{pq})^dag); finite and real by construction."""
        mass = np.einsum("pqkm,pqkm->", self.operators, self.operators.conj())
        return float(mass.real)

    def reconstructed_trace(self) -> float:
        """Trace of the reflected density rebuilt from the set (must be 1)."""
        traces = np.einsum("pqkk->pq", self.operators)
        return float(np.sum(traces * traces.conj()).real)


def twist_operators(psi: PurifiedState, split: SubsystemSplit) -> TwistOperatorSet:
    """Build the twist-operator family of one subsystem split."""
    if split.dim != psi.dim:
        raise InvalidStateError(
            f"split dimension {split.dim} does not match state dimension {psi.dim}")
    lam = psi.schmidt_values
    weights = np.sqrt(np.sqrt(np.outer(lam, lam)))
    ops = np.einsum("pkl,qml->pqkm", split.coeffs, split.coeffs.conj())
    return TwistOperatorSet(dim_a=split.dim_a, operators=weights[:, :, None, None] * ops)


@dataclass(frozen=True)
class ReflectedDensity:
    """Reduced density matrix on a subsystem and a reflected subsystem."""

    matrix: np.ndarray
    dim_i: int
    dim_j: int
    labels: tuple = ("", "")
    eigenvalues: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        n = self.dim_i * self.dim_j
        if mat.shape != (n, n):
            raise InvalidStateError(f"expected shape {(n, n)}, got {mat.shape}")
        herm_dev = np.max(np.abs(mat - mat.conj().T))
        if herm_dev > 1e-10:
            raise InvalidStateError(f"reflected density not Hermitian: deviation {herm_dev:.3e}")
        mat = 0.5 * (mat + mat.conj().T)
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < PSD_FLOOR:
            raise InvalidStateError(f"negative eigenvalue {eigs.min():.3e} below floor")
        if abs(eigs.sum() - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace {eigs.sum():.12f} differs from 1")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", eigs)


def _combine(ops_i: TwistOperatorSet, ops_j: TwistOperatorSet,
             labels: tuple = ("", "")) -> ReflectedDensity:
    rho = np.einsum("pqkm,pqrs->krms", ops_i.operators, ops_j.operators.conj())
    n = ops_i.dim_a * ops_j.dim_a
    return ReflectedDensity(matrix=rho.reshape(n, n), dim_i=ops_i.dim_a,
                            dim_j=ops_j.dim_a, labels=labels)


def _pair_matrix(psi: PurifiedState, split_i: SubsystemSplit,
                 split_j: SubsystemSplit) -> np.ndarray:
    """Coefficients X of the purified vector on (A_i Abar_j) x (B_i Bbar_j).

    X[(k l), (r s)] = sum_p sqrt(lam_p) C_i[p, k, r] conj(C_j[p, l, s]) with
    k, l the A and r, s the B indices, so rho_{A_i Abar_j} = X X^dag.
    """
    if split_i.dim != psi.dim or split_j.dim != psi.dim:
        raise InvalidStateError(
            f"split dimensions ({split_i.dim}, {split_j.dim}) do not match "
            f"state dimension {psi.dim}")
    weights = np.sqrt(np.sqrt(psi.schmidt_values))[:, None]
    x = (weights * split_i.matrix).T @ (weights * split_j.matrix).conj()
    da_i, db_i, da_j, db_j = split_i.dim_a, split_i.dim_b, split_j.dim_a, split_j.dim_b
    return (x.reshape(da_i, db_i, da_j, db_j).transpose(0, 2, 1, 3)
            .reshape(da_i * da_j, db_i * db_j))


def pair_spectrum(psi: PurifiedState, split_i: SubsystemSplit,
                  split_j: SubsystemSplit) -> np.ndarray:
    """Spectrum of rho_{A_i Abar_j}, nonnegative by construction.

    The squared singular values of the pair matrix: every nonzero
    eigenvalue, padded with zeros to min(a_i a_j, b_i b_j) entries.
    """
    eigs = np.linalg.svd(_pair_matrix(psi, split_i, split_j), compute_uv=False) ** 2
    if abs(eigs.sum() - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"pair spectrum sums to {eigs.sum():.12f}, not 1")
    return eigs


def reflected_density(psi: PurifiedState, split_i: SubsystemSplit,
                      split_j: SubsystemSplit) -> ReflectedDensity:
    """Reduced density matrix on subsystem i and the reflection of subsystem j.

    Built as X X^dag from the pair matrix; the result is Hermitian, positive
    semidefinite and unit trace.  `_combine` of the twist families builds
    the same matrix and serves as a test oracle.
    """
    x = _pair_matrix(psi, split_i, split_j)
    return ReflectedDensity(matrix=x @ x.conj().T, dim_i=split_i.dim_a,
                            dim_j=split_j.dim_a, labels=(split_i.label, split_j.label))


def brute_force_reflected(psi: PurifiedState, split_i: SubsystemSplit,
                          split_j: SubsystemSplit,
                          h2_basis: np.ndarray | None = None) -> ReflectedDensity:
    """Independent oracle: explicit doubled vector and index-summed partial trace.

    Writes the purified vector in computational coordinates for an explicit
    H2 basis (canonical conjugated copy unless overridden), rotates into the
    mixed product basis of the two splits, forms the full projector and
    partial-traces the complement factors by explicit index summation.
    """
    if split_i.dim != psi.dim or split_j.dim != psi.dim:
        raise InvalidStateError("split dimensions do not match the state")
    d = psi.dim
    u2 = psi.h2_basis if h2_basis is None else np.asarray(h2_basis, dtype=complex)
    if np.max(np.abs(u2.conj().T @ u2 - np.eye(d))) > UNITARITY_TOL:
        raise InvalidStateError("H2 basis must be unitary")
    vec0 = psi.vector(h2_basis=u2)
    # product bases of the two splits in computational coordinates
    basis_1 = psi.eigenbasis @ split_i.matrix.conj()
    basis_2 = u2 @ split_j.matrix
    rotated = np.kron(basis_1.conj().T, basis_2.conj().T) @ vec0
    full = np.outer(rotated, rotated.conj())
    da_i, db_i, da_j, db_j = split_i.dim_a, split_i.dim_b, split_j.dim_a, split_j.dim_b
    full = full.reshape(da_i, db_i, da_j, db_j, da_i, db_i, da_j, db_j)
    reduced = np.einsum("albsclds->abcd", full)
    n = da_i * da_j
    return ReflectedDensity(matrix=reduced.reshape(n, n), dim_i=da_i, dim_j=da_j,
                            labels=(split_i.label, split_j.label))


def _eigenvalues_of(state) -> np.ndarray:
    """Eigenvalues of a density, or a 1-D array taken as the spectrum itself."""
    if isinstance(state, ReflectedDensity):
        return state.eigenvalues
    if isinstance(state, DensityMatrix):
        return np.linalg.eigvalsh(state.entries)
    if np.ndim(state) == 1:
        return np.asarray(state, dtype=float)
    mat = np.asarray(state, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))


def renyi_entropy(state, n: int) -> float:
    """Renyi entropy -log(tr rho^n)/(n-1) in nats, from eigenvalues.

    n = 1 routes to the von Neumann entropy.  The trace power is accumulated
    in log space so tiny eigenvalues cannot underflow.
    """
    if n < 1:
        raise ValueError("Renyi index must be >= 1")
    if n == 1:
        return von_neumann(state)
    eigs = _eigenvalues_of(state)
    if eigs.min() < PSD_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {eigs.min():.3e} in entropy input")
    eigs = eigs[eigs > 0]
    if eigs.size == 0:
        raise InvalidStateError("no positive eigenvalues: trace power vanished")
    log_trace_n = logsumexp(n * np.log(eigs))
    return float(-log_trace_n / (n - 1))


def von_neumann(state) -> float:
    """Von Neumann entropy -tr(rho log rho) in nats, with 0 log 0 = 0."""
    eigs = _eigenvalues_of(state)
    if eigs.min() < PSD_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {eigs.min():.3e} in entropy input")
    eigs = eigs[eigs > 0]
    return float(-np.sum(eigs * np.log(eigs)))


def mutual_information(s_a: float, s_b: float, s_ab: float) -> float:
    """I(A,B) = S(A) + S(B) - S(AB)."""
    return s_a + s_b - s_ab


def marginals(rd: ReflectedDensity) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces of a reflected density onto its two factors."""
    mat = rd.matrix.reshape(rd.dim_i, rd.dim_j, rd.dim_i, rd.dim_j)
    rho_i = np.einsum("ajbj->ab", mat)
    rho_j = np.einsum("iaib->ab", mat)
    return rho_i, rho_j
