"""Subsystem splits, reflected reduced density matrices, the pair Gram
kernels (build, unit-trace gate, spectrum, trace powers) that every table
of S_n(A_i Abar_j) runs on, and the entropies of a spectrum.  The twist
operators are a second route to the reflected densities; tests use them as
an oracle.

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
# the smallest normal float
TINY = np.finfo(float).tiny


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


def _check_unitary(mat: np.ndarray) -> None:
    """The unitarity gate: raise unless each (d, d) matrix U of the stack mat
    (..., d, d) has max |U U^dag - 1| <= UNITARITY_TOL / d.  One side is
    enough: U^dag U - 1 shares the spectral norm of U U^dag - 1, at most d
    times its largest entry, so U^dag U is within UNITARITY_TOL entrywise."""
    d = mat.shape[-1]
    if not np.max(np.abs(mat @ mat.conj().swapaxes(-1, -2) - np.eye(d))) <= UNITARITY_TOL / d:
        raise InvalidStateError("matrix not unitary: rows violate orthonormality")


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
    eigenvalues: np.ndarray = field(init=False, repr=False)

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


def _split_weights(schmidt_values: np.ndarray) -> np.ndarray:
    """lam_p^{1/4} of Schmidt values (..., d) as columns (..., d, 1): the
    weight of row p of every split matrix that enters a pair matrix."""
    return np.sqrt(np.sqrt(schmidt_values))[..., :, None]


def _pair_operands(schmidt_values: np.ndarray, mat_i: np.ndarray,
                   mat_j: np.ndarray) -> tuple:
    """(left, right) of one pair or a stack of pairs: mat_i weighted by
    `_split_weights`, and the conjugate of mat_j so weighted, for
    `_pair_matrix` and `_pair_gram`."""
    weights = _split_weights(schmidt_values)
    right = weights * mat_j
    return weights * mat_i, np.conjugate(right, out=right)


def _pair_matrix(left: np.ndarray, right: np.ndarray, dims_i: tuple,
                 dims_j: tuple) -> np.ndarray:
    """Coefficients X of the purified vector on (A_i Abar_j) x (B_i Bbar_j).

    X[(k l), (r s)] = sum_p sqrt(lam_p) C_i[p, k, r] conj(C_j[p, l, s]) with
    k, l the A and r, s the B indices, so rho_{A_i Abar_j} = X X^dag.  The
    operands are `_pair_operands`' weighted split matrices (..., d, d), of
    shapes dims_i = (a_i, b_i) and dims_j = (a_j, b_j); matching leading
    axes are a stack of pairs and give a stack of pair matrices.
    """
    x = left.swapaxes(-1, -2) @ right
    (da_i, db_i), (da_j, db_j) = dims_i, dims_j
    lead = x.shape[:-2]
    return (x.reshape(*lead, da_i, db_i, da_j, db_j).swapaxes(-3, -2)
            .reshape(*lead, da_i * da_j, db_i * db_j))


def _pair_gram(left: np.ndarray, right: np.ndarray, dims_i: tuple,
               dims_j: tuple) -> np.ndarray:
    """M, the smaller of X X^dag and X^dag X of `_pair_matrix`'s X, stack by
    stack: min(a_i a_j, b_i b_j) square, with the nonzero eigenvalues of
    rho = X X^dag.  Its trace is not checked here: a caller passes the
    traces of its Ms to `_check_pair_traces`."""
    x = _pair_matrix(left, right, dims_i, dims_j)
    adjoint = x.conj().swapaxes(-1, -2)
    return x @ adjoint if x.shape[-2] <= x.shape[-1] else adjoint @ x


def _check_pair_traces(traces) -> None:
    """The unit-trace gate of pair Gram matrices: tr M = tr rho must be 1
    within TRACE_TOL; the first offender of the array is named."""
    _check_unit_trace(traces, "pair spectrum sums to")


def _gram_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of `_pair_gram` matrices M (..., k, k),
    ascending; roundoff below zero is clipped to 0."""
    return np.maximum(np.linalg.eigvalsh(m), 0.0)


def _gram_traces(m: np.ndarray, n_values) -> np.ndarray:
    """tr M^n of a stack of `_pair_gram` matrices M (..., k, k) for each
    n >= 1 of n_values, shape (len(n_values), ...), from matrix products
    alone: no spectrum.  M shares rho's nonzero eigenvalues, so these are
    tr rho^n.

    The powers of M are Hermitian, so tr M^n is the entrywise sum of
    M^ceil(n/2) times conj(M^floor(n/2)), from one ladder M, M^2, ... up to
    M^ceil(max n / 2), and M^0 = 1 when n = 1 is asked.  A trace power
    below the smallest normal float raises, since its log, the Renyi
    entropy, would be lost to underflow.
    """
    ladder = [np.eye(m.shape[-1], dtype=m.dtype) if 1 in n_values else None, m]
    while len(ladder) <= (max(n_values, default=0) + 1) // 2:
        ladder.append(ladder[-1] @ m)
    traces = np.empty((len(n_values),) + m.shape[:-2])
    for k, n in enumerate(n_values):
        # Re sum(A conj(B)) is the dot product of the (re, im) pairs of A and B
        high, low = ladder[(n + 1) // 2].view(float), ladder[n // 2].view(float)
        traces[k] = (high * low).sum(axis=(-2, -1))
    vanished = ~(traces >= TINY)
    if vanished.any():
        first = tuple(np.argwhere(vanished)[0])
        raise InvalidStateError(f"tr rho^{n_values[first[0]]} = {traces[first]:.3e}: "
                                "trace power vanished")
    return traces


def reflected_density(psi: PurifiedState, split_i: SubsystemSplit,
                      split_j: SubsystemSplit) -> ReflectedDensity:
    """Reduced density matrix on subsystem i and the reflection of subsystem j.

    Built as X X^dag from the pair matrix; the result is Hermitian, positive
    semidefinite and unit trace.  `_combine` of the twist families builds
    the same matrix and serves as a test oracle.
    """
    _check_pair_dims(psi, split_i, split_j)
    x = _pair_matrix(*_pair_operands(psi.schmidt_values, split_i.matrix, split_j.matrix),
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
    if isinstance(state, (ReflectedDensity, DensityMatrix)):
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
