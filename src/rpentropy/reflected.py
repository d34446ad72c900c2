"""Subsystem splits, reflected reduced density matrices and their spectra,
and the entropies computed from them.  The twist operators are a second
route to the reflected densities; tests use them as an oracle.

A subsystem is a tensor factorization H1 = H_A (x) H_B encoded by the
coefficients of the state eigenvectors in the split's product basis.  Index
subsets of an axis-aligned basis are the special case of identity
coefficients; a Haar-random coefficient unitary models a generic
non-commuting subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modular import (HERMITICITY_TOL, DensityMatrix, InvalidStateError, PurifiedState,
                      _check_hermitian, _check_unit_trace)

UNITARITY_TOL = 1e-10
PSD_FLOOR = -1e-12


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
        _check_unitary(c.reshape(d, d))
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


def _check_unitary(mat: np.ndarray, what: str = "split coefficients") -> None:
    """The unitarity gate: raise unless each (d, d) matrix U of the stack mat
    (..., d, d) has max |U U^dag - 1| <= UNITARITY_TOL / d.  One side is
    enough: U^dag U - 1 shares the spectral norm of U U^dag - 1, at most d
    times its largest entry, so U^dag U is within UNITARITY_TOL entrywise."""
    d = mat.shape[-1]
    if not np.max(np.abs(mat @ mat.conj().swapaxes(-1, -2) - np.eye(d))) <= UNITARITY_TOL / d:
        raise InvalidStateError(f"{what} not unitary: rows violate orthonormality")


@dataclass(frozen=True)
class TwistOperatorSet:
    """Family of d_A x d_A operators indexed by eigenvector pairs (p, q).

    operators[p, q] = (lam_p lam_q)^{1/4} C[p] C[q]^dag with C[p] the
    (d_A, d_B) coefficient block of eigenvector p.  Weighted tensor pairs of
    these reconstruct the reflected reduced density matrices.
    """

    dim_a: int
    operators: np.ndarray


def twist_operators(psi: PurifiedState, split: SubsystemSplit) -> TwistOperatorSet:
    """Build the twist-operator family of one subsystem split."""
    _check_pair_dims(psi, split, split)
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
        _check_hermitian(mat, HERMITICITY_TOL, "reflected density")
        mat = 0.5 * (mat + mat.conj().T)
        eigs = np.linalg.eigvalsh(mat)
        _check_spectrum(eigs, "reflected density")
        _check_unit_trace(eigs.sum(), "reflected density trace")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", eigs)


def _combine(ops_i: TwistOperatorSet, ops_j: TwistOperatorSet,
             labels: tuple = ("", "")) -> ReflectedDensity:
    rho = np.einsum("pqkm,pqrs->krms", ops_i.operators, ops_j.operators.conj())
    n = ops_i.dim_a * ops_j.dim_a
    return ReflectedDensity(matrix=rho.reshape(n, n), dim_i=ops_i.dim_a,
                            dim_j=ops_j.dim_a, labels=labels)


def _check_pair_dims(psi: PurifiedState, split_i: SubsystemSplit,
                     split_j: SubsystemSplit) -> None:
    if split_i.dim != psi.dim or split_j.dim != psi.dim:
        raise InvalidStateError(
            f"split dimensions ({split_i.dim}, {split_j.dim}) do not match "
            f"state dimension {psi.dim}")


def _pair_matrix(schmidt_values: np.ndarray, mat_i: np.ndarray, mat_j: np.ndarray,
                 dims_i: tuple, dims_j: tuple) -> np.ndarray:
    """Coefficients X of the purified vector on (A_i Abar_j) x (B_i Bbar_j).

    X[(k l), (r s)] = sum_p sqrt(lam_p) C_i[p, k, r] conj(C_j[p, l, s]) with
    k, l the A and r, s the B indices, so rho_{A_i Abar_j} = X X^dag.  The
    Schmidt values (..., d) and the split matrices (..., d, d), of shapes
    dims_i = (a_i, b_i) and dims_j = (a_j, b_j), may carry matching leading
    axes: a stack of pairs gives a stack of pair matrices.
    """
    weights = np.sqrt(np.sqrt(schmidt_values))[..., :, None]
    x = (weights * mat_i).swapaxes(-1, -2) @ (weights * mat_j).conj()
    (da_i, db_i), (da_j, db_j) = dims_i, dims_j
    lead = x.shape[:-2]
    return (x.reshape(*lead, da_i, db_i, da_j, db_j).swapaxes(-3, -2)
            .reshape(*lead, da_i * da_j, db_i * db_j))


def _pair_gram(schmidt_values: np.ndarray, mat_i: np.ndarray, mat_j: np.ndarray,
               dims_i: tuple, dims_j: tuple) -> np.ndarray:
    """M, the smaller of X X^dag and X^dag X of `_pair_matrix`'s X, stack by
    stack: min(a_i a_j, b_i b_j) square, with the nonzero eigenvalues of
    rho = X X^dag.  tr M must be 1 within TRACE_TOL."""
    x = _pair_matrix(schmidt_values, mat_i, mat_j, dims_i, dims_j)
    adjoint = x.conj().swapaxes(-1, -2)
    m = x @ adjoint if x.shape[-2] <= x.shape[-1] else adjoint @ x
    _check_unit_trace(np.trace(m, axis1=-2, axis2=-1).real, "pair spectrum sums to")
    return m


def _pair_spectrum(schmidt_values: np.ndarray, mat_i: np.ndarray, mat_j: np.ndarray,
                   dims_i: tuple, dims_j: tuple) -> np.ndarray:
    """Eigenvalues of `_pair_gram`'s M, ascending, stack by stack; roundoff
    below zero is clipped to 0."""
    m = _pair_gram(schmidt_values, mat_i, mat_j, dims_i, dims_j)
    return np.maximum(np.linalg.eigvalsh(m), 0.0)


def _pair_traces(schmidt_values: np.ndarray, mat_i: np.ndarray, mat_j: np.ndarray,
                 dims_i: tuple, dims_j: tuple, n_values) -> np.ndarray:
    """tr rho^n of `_pair_matrix`'s rho = X X^dag for each n >= 1 of n_values,
    shape (len(n_values), ...), from matrix products alone: no spectrum.

    M is `_pair_gram`'s, which shares rho's nonzero eigenvalues.  The powers
    of M are Hermitian, so tr M^n is the entrywise sum of M^ceil(n/2) times
    conj(M^floor(n/2)), from one ladder M, M^2, ... up to M^ceil(max n / 2).
    A trace power below the smallest normal float raises, since its log,
    the Renyi entropy, would be lost to underflow.
    """
    m = _pair_gram(schmidt_values, mat_i, mat_j, dims_i, dims_j)
    ladder = [np.eye(m.shape[-1], dtype=m.dtype), m]
    while len(ladder) <= (max(n_values, default=0) + 1) // 2:
        ladder.append(ladder[-1] @ m)
    traces = np.empty((len(n_values),) + m.shape[:-2])
    for k, n in enumerate(n_values):
        # Re sum(A conj(B)) is the dot product of the (re, im) pairs of A and B
        high, low = ladder[(n + 1) // 2].view(float), ladder[n // 2].view(float)
        traces[k] = (high * low).sum(axis=(-2, -1))
    vanished = ~(traces >= np.finfo(float).tiny)
    if vanished.any():
        first = tuple(np.argwhere(vanished)[0])
        raise InvalidStateError(f"tr rho^{n_values[first[0]]} = {traces[first]:.3e}: "
                                "trace power vanished")
    return traces


def pair_spectrum(psi: PurifiedState, split_i: SubsystemSplit,
                  split_j: SubsystemSplit) -> np.ndarray:
    """Spectrum of rho_{A_i Abar_j}, ascending and nonnegative.

    The eigenvalues of the smaller pair Gram matrix (X X^dag or X^dag X of
    the pair matrix X; no SVD): every nonzero eigenvalue, padded with zeros
    to min(a_i a_j, b_i b_j) entries, and roundoff below zero clipped to 0.
    """
    _check_pair_dims(psi, split_i, split_j)
    return _pair_spectrum(psi.schmidt_values, split_i.matrix, split_j.matrix,
                          (split_i.dim_a, split_i.dim_b), (split_j.dim_a, split_j.dim_b))


def reflected_density(psi: PurifiedState, split_i: SubsystemSplit,
                      split_j: SubsystemSplit) -> ReflectedDensity:
    """Reduced density matrix on subsystem i and the reflection of subsystem j.

    Built as X X^dag from the pair matrix; the result is Hermitian, positive
    semidefinite and unit trace.  `_combine` of the twist families builds
    the same matrix and serves as a test oracle.
    """
    _check_pair_dims(psi, split_i, split_j)
    x = _pair_matrix(psi.schmidt_values, split_i.matrix, split_j.matrix,
                     (split_i.dim_a, split_i.dim_b), (split_j.dim_a, split_j.dim_b))
    return ReflectedDensity(matrix=x @ x.conj().T, dim_i=split_i.dim_a,
                            dim_j=split_j.dim_a, labels=(split_i.label, split_j.label))


def _check_spectrum(eigs: np.ndarray, what: str) -> None:
    """The PSD floor gate: raise unless every eigenvalue is finite and at
    least PSD_FLOOR."""
    if not (np.min(eigs) >= PSD_FLOOR and np.max(eigs) < np.inf):
        raise InvalidStateError(f"non-finite or negative eigenvalue {np.min(eigs):.3e} in {what}")


def _eigenvalues_of(state) -> np.ndarray:
    """Eigenvalues of a density, or a 1-D array taken as the spectrum itself."""
    if isinstance(state, ReflectedDensity):
        return state.eigenvalues
    if isinstance(state, DensityMatrix):
        return state.eigenvalues
    if np.ndim(state) == 1:
        return np.asarray(state, dtype=float)
    mat = np.asarray(state, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))


def _entropies(eigs: np.ndarray, n: int) -> np.ndarray:
    """S_n of each spectrum along the last axis of eigs (..., k); n = 1 is
    von Neumann.  Zero eigenvalues are masked: 0 log 0 = 0, and they add
    nothing to tr rho^n.

    tr rho^n is summed in log space, shifted by its largest term, which is
    split off and added back through log1p, so tiny eigenvalues neither
    underflow nor cost digits of the leading one.
    """
    eigs = np.asarray(eigs, dtype=float)
    _check_spectrum(eigs, "entropy input")
    positive = eigs > 0
    logs = np.log(np.where(positive, eigs, 1.0))
    if n == 1:
        return -np.sum(np.where(positive, eigs * logs, 0.0), axis=-1)
    if not positive.any(axis=-1).all():
        raise InvalidStateError("no positive eigenvalues: trace power vanished")
    terms = np.where(positive, n * logs, -np.inf)
    top = terms.max(axis=-1, keepdims=True)
    is_top = terms == top
    count = is_top.sum(axis=-1, keepdims=True).astype(float)
    rest = np.exp(np.where(is_top, -np.inf, terms) - top).sum(axis=-1, keepdims=True)
    log_trace_n = (np.log1p(rest / count) + np.log(count) + top)[..., 0]
    return -log_trace_n / (n - 1)


def renyi_entropy(state, n: int) -> float:
    """Renyi entropy -log(tr rho^n)/(n-1) in nats, from eigenvalues.

    n = 1 routes to the von Neumann entropy.  The trace power is accumulated
    in log space so tiny eigenvalues cannot underflow.
    """
    if n < 1:
        raise ValueError("Renyi index must be >= 1")
    return float(_entropies(_eigenvalues_of(state), n))


def von_neumann(state) -> float:
    """Von Neumann entropy -tr(rho log rho) in nats, with 0 log 0 = 0."""
    return float(_entropies(_eigenvalues_of(state), 1))
