"""Independent test oracles: second routes to objects the package computes.

Each function here rebuilds a quantity by a different, slower or plainer
route than the package's, and the tests compare the two.  Nothing in the
package imports this module.
"""

import itertools
import math

import numpy as np

from rpentropy import fermion, positivity
from rpentropy.fermion import entropy
from rpentropy.modular import ModularData, PurifiedState
from rpentropy.positivity import SearchConfig, _evaluate_block, _payload, _serialize_instance
from rpentropy.reflected import (ReflectedDensity, SubsystemSplit, TwistOperatorSet,
                                 _check_pair_dims, _check_unitary, _pair_matrix,
                                 _pair_operands)
from rpentropy.sampling import ginibre, simplex_eigenvalues, trial_rng, unitary_from_ginibre

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


# ------------------------------------------------------------ modular operators


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
    rng = trial_rng(cfg.master_seed, cfg.trial_offset + cfg.trials)
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
                result = _payload(fields, 0)
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


def union_witness_table(sets):
    """The witness table through one validated IntervalSet union per pair i <= j."""
    table = np.empty((len(sets), len(sets)))
    for i, j in itertools.combinations_with_replacement(range(len(sets)), 2):
        table[i, j] = table[j, i] = entropy(sets[i].union(sets[j].reflected()))
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
