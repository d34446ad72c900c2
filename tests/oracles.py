"""Independent test oracles: second routes to objects the package computes.

Each function here rebuilds a quantity by a different, slower or plainer
route than the package's, and the tests compare the two.  The modular
operator and conjugation of the doubled system, the Tomita relation, the
two-interval conformal parameterization and the paper's replica factor
W (W W^dag is the integer-index Gram matrix) live here too: they check the
package's objects, and nothing in the package needs them.  Nothing in the
package imports this module.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from rpentropy import fermion, positivity
from rpentropy.cft import CrossRatioFunction, twist_exponent
from rpentropy.fermion import IntervalError, IntervalSet, entropy
from rpentropy.modular import PurifiedState
from rpentropy.positivity import SearchConfig, _evaluate_block, _payload, _serialize_instance
from rpentropy.reflected import (ReflectedDensity, SubsystemSplit, TwistOperatorSet,
                                 _check_pair_dims, _check_unitary, _pair_matrix,
                                 _pair_operands)
from rpentropy.sampling import ginibre, simplex_eigenvalues, trial_rng, unitary_from_ginibre

# ------------------------------------------------------------ states and splits


def purified_vector(psi: PurifiedState) -> np.ndarray:
    """Purified vector in computational coordinates (length d**2): the (d, d)
    matrix (U sqrt(lam)) U2^T over (H1, H2) indices, U2 the H2 basis,
    flattened row-major."""
    return ((psi.eigenbasis * np.sqrt(psi.schmidt_values)) @ psi.h2_basis.T).reshape(-1)


def swapped(split: SubsystemSplit) -> SubsystemSplit:
    """Complementary arrangement: the B factor becomes the subsystem."""
    return SubsystemSplit(dim_a=split.dim_b, dim_b=split.dim_a,
                          coeffs=split.coeffs.transpose(0, 2, 1),
                          label=split.label + "~" if split.label else "")


def random_operator(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre test operator of unit Frobenius norm."""
    op = ginibre(dim, rng)
    return op / np.linalg.norm(op)


# ------------------------------------------------------------ reflected states


def brute_force_reflected(psi: PurifiedState, split_i: SubsystemSplit,
                          split_j: SubsystemSplit,
                          h2_basis: np.ndarray | None = None) -> ReflectedDensity:
    """Explicit doubled vector and index-summed partial trace.

    Writes the purified vector in computational coordinates for an explicit
    H2 basis (canonical conjugated copy unless overridden), rotates into the
    mixed product basis of the two splits, forms the full projector and
    partial-traces the complement factors by explicit index summation.
    """
    _check_pair_dims(psi, split_i, split_j)
    u2 = psi.h2_basis if h2_basis is None else np.asarray(h2_basis, dtype=complex)
    _check_unitary(u2)
    vec0 = ((psi.eigenbasis * np.sqrt(psi.schmidt_values)) @ u2.T).reshape(-1)
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


def svd_spectrum(psi: PurifiedState, split_i: SubsystemSplit,
                 split_j: SubsystemSplit) -> np.ndarray:
    """The pair spectrum as the squared singular values of the pair matrix,
    independent of the kernels' pair Gram matrix."""
    x = _pair_matrix(*_pair_operands(psi.schmidt_values, split_i.matrix, split_j.matrix),
                     (split_i.dim_a, split_i.dim_b), (split_j.dim_a, split_j.dim_b))
    return np.linalg.svd(x, compute_uv=False) ** 2


def marginals(rd: ReflectedDensity) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces of a reflected density onto its two factors."""
    mat = rd.matrix.reshape(rd.dim_i, rd.dim_j, rd.dim_i, rd.dim_j)
    return np.einsum("ajbj->ab", mat), np.einsum("iaib->ab", mat)


def mutual_information(s_a: float, s_b: float, s_ab: float) -> float:
    """I(A,B) = S(A) + S(B) - S(AB)."""
    return s_a + s_b - s_ab


def hilbert_schmidt_mass(ops: TwistOperatorSet) -> float:
    """sum_{p,q} tr(O^{pq} (O^{pq})^dag); finite and real by construction."""
    return float(np.einsum("pqkm,pqkm->", ops.operators, ops.operators.conj()).real)


def reconstructed_trace(ops: TwistOperatorSet) -> float:
    """Trace of the reflected density rebuilt from the set (must be 1)."""
    traces = np.einsum("pqkk->pq", ops.operators)
    return float(np.sum(traces * traces.conj()).real)


def b_from_mutual(entropy_table, marginals_i, marginals_j) -> np.ndarray:
    """The divisibility matrix B rebuilt from the mutual informations
    I_ij = S_i + S_j - S_ij, in which the marginal entropies cancel."""
    s = np.asarray(entropy_table, dtype=float)
    mutual = np.asarray(marginals_i)[:, None] + np.asarray(marginals_j)[None, :] - s
    return mutual[:-1, :-1] + mutual[1:, 1:] - mutual[:-1, 1:] - mutual[1:, :-1]


def three_set_inequality(s_ab, s_ac, s_bc, s_aa, s_bb, s_cc) -> float:
    """Slack (LHS - RHS) of the explicit three-subsystem divisibility inequality.

    Nonnegative whenever the entropy exponentials are infinitely divisible;
    equals det B of the corresponding 3x3 symmetric entropy table.
    """
    lhs = 2 * s_ab * s_ac + 2 * s_ab * s_bc + 2 * s_bc * s_ac \
        + s_aa * s_bb + s_aa * s_cc + s_bb * s_cc
    rhs = s_ab ** 2 + s_ac ** 2 + s_bc ** 2 \
        + 2 * s_ab * s_cc + 2 * s_ac * s_bb + 2 * s_bc * s_aa
    return float(lhs - rhs)


# The positivity proof of the paper: tr rho_{A_i Abar_j}^n is the inner
# product of two vectors, one per split, so the Gram matrix of the trace
# powers is W W^dag with one row of W per split.
_REPLICA_TRACES = {2: "abkm,cdmk->abcd", 3: "abkm,cdml,eflk->abcdef"}


def replica_factor(schmidt, mats, dims, n: int) -> np.ndarray:
    """W (m, d^(2n)) for Schmidt values (d,), split matrices (m, d, d) shaped
    as dims and n = 2 or 3: row i is tr(T^{p1 q1} ... T^{pn qn}) over the
    index tuple (p1, q1, ..., pn, qn), with T^{pq} = A[p] A[q]^dag and
    A[p] = lam_p^{1/4} C[p], C[p] the (d_A, d_B) block of split i's row p.
    Then (W W^dag)_ij = tr rho_{A_i Abar_j}^n."""
    rows = []
    for mat, (dim_a, dim_b) in zip(mats, dims):
        a = np.sqrt(np.sqrt(schmidt))[:, None, None] * np.reshape(mat, (-1, dim_a, dim_b))
        t = np.einsum("pkl,qml->pqkm", a, a.conj())
        rows.append(np.einsum(_REPLICA_TRACES[n], *[t] * n, optimize=True).reshape(-1))
    return np.array(rows)


# ------------------------------------------------------------ modular operators


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
    mat = purified_vector(psi).reshape(psi.dim, psi.dim)
    return complex(np.trace(mat.conj().T @ op_first @ mat @ op_second.T))


def half_sided_overlap(psi: PurifiedState, md: ModularData, op: np.ndarray) -> complex:
    """<0| (O (x) 1) Delta^{1/2} (O^dag (x) 1) |0>, the reflection-positive form."""
    # <0| O ... = <O^dag 0| ...
    bra = _apply_first_factor(psi, op.conj().T)
    return complex(np.vdot(bra, md.apply_delta(bra, power=0.5)))


def _apply_first_factor(psi: PurifiedState, op: np.ndarray) -> np.ndarray:
    return (op @ purified_vector(psi).reshape(psi.dim, psi.dim)).reshape(-1)


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


def reconstruct_density(psi: PurifiedState) -> np.ndarray:
    """The density U diag(lam) U^dag of the Schmidt data."""
    u = psi.eigenbasis
    return (u * psi.schmidt_values) @ u.conj().T


def _schmidt_basis(md: ModularData) -> np.ndarray:
    return np.kron(md.eigenbasis, md.h2_basis)


def delta_matrix(md: ModularData) -> np.ndarray:
    """Dense d**2 x d**2 modular operator (small dimensions only)."""
    w = _schmidt_basis(md)
    return (w * md.delta_eigenvalues) @ w.conj().T


def conjugation_matrix(md: ModularData) -> np.ndarray:
    """Unitary factor M of the antilinear map J: x -> M conj(x)."""
    d = md.dim
    w = _schmidt_basis(md)
    perm = (np.arange(d * d).reshape(d, d).T).reshape(-1)
    return w[:, perm] @ w.T


# -------------------------------------------------------------- search draws
# One instance drawn from its stream on its own, the order `_draw_block`
# keeps for a whole block: the spectrum, then each Ginibre matrix in turn.


def draw_one(master_seed: int, index: int, dims) -> tuple:
    """(descending Schmidt values, Ginibre matrices (m+1, d, d)) of instance
    `index`: the eigenbasis's matrix first, then one per split."""
    rng = trial_rng(master_seed, index)
    d = dims[0][0] * dims[0][1]
    lam = np.sort(simplex_eigenvalues(d, rng))[::-1]
    return lam, ginibre(d, rng, (1 + len(dims),))


# The one-proposal-per-call descent that `_refine` pre-fetches, as it was
# before the pre-fetch: `_refine` must follow its trajectory to the bit.  It
# reads the module's REFINE_SCALE and REFINE_FLOOR when called, so a test
# that patches them changes both descents.

def sequential_refine(cfg: SearchConfig, start_trial: int):
    """Stochastic descent from a sweep instance into the violating region.

    Moves perturb the spectrum in the log simplex or rotate one split by a
    random small unitary; only improvements are kept and the move scale
    shrinks after repeated rejections.  The state eigenbasis is irrelevant to
    every target (only the spectrum and the splits enter), so it stays fixed.
    Each move is one `_evaluate_block` call on one instance.  Returns a
    violation payload once the slack clears -10 * tolerance.
    """
    rng = trial_rng(cfg.master_seed, cfg.trials)
    lam, z = draw_one(cfg.master_seed, start_trial, cfg.dims)
    lam, betas = lam.copy(), unitary_from_ginibre(z)[1:]
    _check_unitary(betas)
    d = cfg.dim

    def evaluate(lam_vec, beta_mats):
        return _evaluate_block(cfg, np.sort(lam_vec)[::-1][None], beta_mats[None])

    cur_slack = evaluate(lam, betas)["slack"][0]
    target_slack = -10.0 * cfg.tolerance
    scale = positivity.REFINE_SCALE
    stall = 0
    for it in range(cfg.refine_iterations):
        which = int(rng.integers(0, 1 + len(betas)))
        lam_new, betas_new = lam, betas
        if which == 0:
            logl = np.log(lam) + scale * rng.standard_normal(lam.size)
            lam_new = np.exp(logl)
            lam_new = lam_new / lam_new.sum()
            if lam_new.min() < positivity.REFINE_FLOOR:
                continue
        else:
            h = ginibre(d, rng)
            h = 0.5 * (h + h.conj().T)
            w, v = np.linalg.eigh(h)
            rot = (v * np.exp(1j * scale * w)) @ v.conj().T
            betas_new = betas.copy()
            betas_new[which - 1] = rot @ betas[which - 1]
            _check_unitary(betas_new[which - 1])
        fields = evaluate(lam_new, betas_new)
        if fields["slack"][0] < cur_slack:
            cur_slack = fields["slack"][0]
            lam, betas = lam_new, betas_new
            stall = 0
            if cur_slack < target_slack:
                result = _payload(fields, 0, cfg.n)
                result["trial"] = start_trial
                result["refined"] = True
                result["refine_iterations"] = it + 1
                result["instance"] = _serialize_instance(
                    np.sort(lam)[::-1], np.eye(d, dtype=complex), cfg.dims, betas)
                return result, it + 1
        else:
            stall += 1
            if stall > 300:
                scale = max(scale * 0.6, 1e-3)
                stall = 0
    return None, cfg.refine_iterations


# ------------------------------------------------------------ fermion tables


def reflected_set(intervals: IntervalSet) -> IntervalSet:
    """Mirror image under x -> -x (the spatial wedge reflection)."""
    return IntervalSet(lefts=-intervals.rights[::-1], rights=-intervals.lefts[::-1],
                       cutoff=intervals.cutoff)


def union(first: IntervalSet, second: IntervalSet) -> IntervalSet:
    if abs(first.cutoff - second.cutoff) > 0:
        raise IntervalError("cannot union interval sets with different cutoffs")
    return IntervalSet.from_pairs(
        list(zip(first.lefts, first.rights)) + list(zip(second.lefts, second.rights)),
        cutoff=first.cutoff)


def union_witness_table(sets):
    """The witness table through one validated IntervalSet union per pair i <= j."""
    table = np.empty((len(sets), len(sets)))
    for i, j in itertools.combinations_with_replacement(range(len(sets)), 2):
        table[i, j] = table[j, i] = entropy(union(sets[i], reflected_set(sets[j])))
    return table


def plain_witness_table(sets):
    """The witness table's quadratic form for one family, as 2-D products."""
    lefts = np.concatenate([s.lefts for s in sets])
    counts = np.array([s.num_intervals for s in sets])
    x = np.concatenate([lefts] + [s.rights for s in sets])
    owner = np.tile(np.repeat(np.arange(len(sets)), counts), 2)
    signed = (owner == np.arange(len(sets))[:, None]).astype(float)
    signed[:, lefts.size:] *= -1.0
    cross = signed @ np.log(x[:, None] + x) @ signed.T
    within = signed @ fermion._log_distances(x, owner[:, None] == owner)
    own = -0.5 * np.sum(within * signed, axis=1) - counts * math.log(sets[0].cutoff)
    return (0.5 * (cross + cross.T) + (own[:, None] + own)) / 6.0


# ------------------------------------------------------------ cft parameterization


@dataclass(frozen=True)
class TwoIntervalConfig:
    """Two ordered intervals (a1,b1), (a2,b2) with CFT data."""

    a1: float
    b1: float
    a2: float
    b2: float
    central_charge: float = 1.0
    n: int = 2

    def __post_init__(self):
        if not (self.a1 < self.b1 < self.a2 < self.b2):
            raise ValueError("endpoints must satisfy a1 < b1 < a2 < b2")
        if self.central_charge <= 0:
            raise ValueError("central charge must be positive")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError("Renyi index must be an integer >= 2")

    @property
    def q(self) -> float:
        return twist_exponent(self.central_charge, self.n)


def cross_ratio(cfg: TwoIntervalConfig) -> float:
    """Conformally invariant cross ratio in (0, 1) of the four endpoints."""
    return float((cfg.b1 - cfg.a1) * (cfg.b2 - cfg.a2)
                 / ((cfg.a2 - cfg.a1) * (cfg.b2 - cfg.b1)))


def renyi_two_interval(cfg: TwoIntervalConfig, func: CrossRatioFunction) -> float:
    """Two-interval Renyi entropy from the conformal parameterization.

    S_n = [q log(x (a2-b1)(b2-a1)) - 2 log k - log F(x)] / (n - 1) at k = 1;
    the absolute value is cutoff dependent through k, so only differences
    and slacks are physical.
    """
    x = cross_ratio(cfg)
    f_val = float(func(np.array([x]))[0])
    if not f_val > 0:
        raise ValueError("F must be positive")
    scale_arg = x * (cfg.a2 - cfg.b1) * (cfg.b2 - cfg.a1)
    return float((cfg.q * math.log(scale_arg) - math.log(f_val)) / (cfg.n - 1))
