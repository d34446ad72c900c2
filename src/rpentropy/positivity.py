"""Gram matrices of reflected-entropy exponentials, positivity checks,
infinite-divisibility conditions, and the randomized counterexample search.

For integer Renyi index n the Gram matrix of tr(rho_{A_i Abar_j}^n) is
positive semidefinite in any quantum system; the extension to the entropy
case (n -> 1) and to fractional entrywise powers (s -> 0, equivalently
det B >= 0) can fail, and the search hunts for such violating instances.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .modular import PurifiedState, _check_hermitian
from .reflected import (SubsystemSplit, _check_pair_dims, _check_unitary, _entropies,
                        _pair_spectrum, _pair_traces)
from .sampling import (EIGENVALUE_REDRAW_FLOOR, ginibre_from_parts, ginibre_parts,
                       simplex_eigenvalues, trial_rng, trial_rngs, unitary_from_ginibre)
# not called here: the benchmark's tracer patches these names on this module
from .reflected import _combine, renyi_entropy, twist_operators, von_neumann  # noqa: F401
from .sampling import haar_unitary  # noqa: F401

PSD_RELATIVE_TOL = 1e-10
SYMMETRY_TOL = 1e-9
# a violation must clear this much relative slack to count as a counterexample
COUNTEREXAMPLE_TOL = 1e-6
TARGETS = ("integer_n", "entropy_n1", "schur_s_fraction")
# a theorem_sweep block holds at most this many pair-matrix entries (one
# instance may exceed it alone), which bounds the sweep's memory for any
# plan length and split size
SWEEP_BLOCK_ENTRIES = 1 << 17
# the cost model of sweep blocks: an instance costs its m(m+1)/2 d^2 pair
# entries plus this many entries' worth of fixed work (draw, Haar step,
# verdict).  40-instance blocks of 2-4 subsystems, one BLAS thread on a
# 2-core x86_64 machine, took 2.8-3.2 ms for 4,000 entries at d = 4 and
# 14.4-14.7 ms for 64,000 at d = 16: about 0.2 us per entry and a fixed
# 260-330 entries per instance.  The two blocks of the benchmark's
# 200-instance criterion-1 mix then take 15.2 ms each.  A plan that costs
# less than SWEEP_BLOCK_ENTRIES // 8 (about 3 ms) stays one block in the
# calling process, where a pool task's round trip (about 1 ms to start a
# warm worker) would not pay.
SWEEP_INSTANCE_ENTRIES = 320
# one stacked call of the search or of an entropy table holds at most this
# many pair-matrix entries: a search block of trials, or the pairs of one
# shape reduced together.  At 64 KB per complex temporary a stack stays in
# cache and a search block's peak memory near a single trial's; at 3 x 2x2
# a block holds 42 trials and runs as fast as blocks of the sweep's size,
# and a 3 x 8x8 instance reduces one pair per call.
STACK_ENTRIES = 1 << 12
# the quantiles a report keeps of a slack array in place of the array
SUMMARY_QUANTILES = (0.0, 0.01, 0.1, 0.5, 1.0)
# the refine descent's counters, kept on SearchReport outside its report:
# stacked proposal calls, proposals evaluated, accepted, evaluated past the
# accepted one and so discarded, and step-scale shrinks
REFINE_COUNTERS = ("blocks", "evaluated", "accepted", "discarded", "shrinks")


def _check_symmetric(a, what: str) -> np.ndarray:
    """The stack a (..., m, m) as a float array once each matrix is symmetric
    within SYMMETRY_TOL of max(1, its largest |entry|); otherwise raises
    InvalidStateError naming `what`.  NaN and inf fail."""
    a = np.asarray(a, dtype=float)
    _check_hermitian(a, SYMMETRY_TOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1))), what)
    return a


def _gram_spectrum(g):
    """The one PSD verdict: (symmetrized g, scale max(||g||_2, tiny), eigenvalues
    ascending, eigenvectors); a relative asymmetry above SYMMETRY_TOL raises.

    ||g||_2 of the symmetric g is its largest |eigenvalue|.  Leading axes of
    g (..., m, m) are a stack, and every output gains the same axes.
    """
    g = _check_symmetric(g, "Gram matrix")
    g = 0.5 * (g + g.swapaxes(-1, -2))
    eigvals, eigvecs = np.linalg.eigh(g)
    scale = np.maximum(np.abs(eigvals).max(axis=-1), np.finfo(float).tiny)
    return g, scale, eigvals, eigvecs


@dataclass
class GramRecord:
    """(m+1) x (m+1) matrix of exp(-lam * S_n(A_i Abar_j)) with diagnostics."""

    size: int
    n: int
    lam: float
    entries: np.ndarray
    entropy_table: np.ndarray
    min_eigenvalue: float = field(default=0.0, init=False)
    scale: float = field(default=0.0, init=False)  # max(||entries||_2, tiny)

    def __post_init__(self):
        self.entries, scale, eigvals, _ = _gram_spectrum(self.entries)
        self.scale = float(scale)
        self.min_eigenvalue = float(eigvals[0])


@functools.lru_cache(maxsize=256)
def _pair_plan(dims: tuple, size: int) -> tuple:
    """The split pairs i <= j of a flat stack of instances shaped as `dims`
    (a tuple of (d_A, d_B) per instance; splits stacked flat and m x m tables
    laid out flat, row-major, both in instance order), by instance, then j,
    then i, in runs of at most `size` pairs of one shape, in first-seen
    order: ((dims_i, dims_j), instance, split i, split j, entry ij, entry
    ji).  The index arrays are read-only because every caller shares them."""
    sizes = np.array([len(splits) for splits in dims])
    count = sizes * (sizes + 1) // 2
    inst = np.repeat(np.arange(len(dims)), count)
    # the pairs of each m, by j and then i, are a prefix of the largest m's
    j, i = np.tril_indices(sizes.max())
    local = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    i, j, m = i[local], j[local], sizes[inst]
    split, entry = (np.cumsum(sizes) - sizes)[inst], (np.cumsum(sizes ** 2) - sizes ** 2)[inst]
    pairs = np.stack((inst, split + i, split + j, entry + i * m + j, entry + j * m + i))
    shapes = {}
    codes = np.array([shapes.setdefault(shape, len(shapes))
                      for splits in dims for shape in splits])
    key = codes[pairs[1]] * len(shapes) + codes[pairs[2]]
    shape_of, runs = list(shapes), []
    for code in dict.fromkeys(key.tolist()):
        group = pairs[:, key == code]
        group.flags.writeable = False
        for k in range(0, group.shape[1], size):
            runs.append(((shape_of[code // len(shapes)], shape_of[code % len(shapes)]),
                         *group[:, k:k + size]))
    return tuple(runs)


def _pair_tables(schmidt: np.ndarray, mats: np.ndarray, dims: tuple, kernel,
                 budget: int) -> np.ndarray:
    """Flat tables (..., sum of m^2) of a pair kernel over a flat stack of
    instances shaped as `dims` (`_pair_plan`): Schmidt values (..., N, d)
    and split matrices (..., S, d, d); leading axes are a stack.

    rho_{A_j Abar_i} is the reflection of rho_{A_i Abar_j}, so each pair
    i <= j is reduced once and written to both entries.  A run of at most
    `budget` pair-matrix entries (at least one pair) takes one
    kernel(Schmidt values (..., run, d), split i and split j matrices
    (..., run, d, d), dims_i, dims_j) call, whose values (..., run) may
    gain axes in front of the run axis.
    """
    d = schmidt.shape[-1]
    size = max(1, budget // (schmidt[..., 0, 0].size * d * d))
    table = None
    for (dims_i, dims_j), inst, i, j, ij, ji in _pair_plan(dims, size):
        values = kernel(schmidt[..., inst, :], mats[..., i, :, :], mats[..., j, :, :],
                        dims_i, dims_j)
        if table is None:
            table = np.empty(values.shape[:-1] + (sum(len(s) ** 2 for s in dims),))
        table[..., ij] = table[..., ji] = values
    return table


def _pair_entropies(schmidt_values, mat_i, mat_j, dims_i, dims_j, n: int) -> np.ndarray:
    """S_n(A_i Abar_j) of a stack of pairs, the pair kernel of entropy tables.

    Both kernels start from the pair Gram matrix M (`_pair_gram`), and
    neither takes an SVD.  Von Neumann (n = 1) needs the eigenvalues, so it
    takes `eigvalsh` of M (`_pair_spectrum`).  An integer n >= 2 needs none:
    S_n is -log(tr rho^n) / (n - 1), from the theorem sweep's trace-power
    kernel (`_pair_traces`).
    """
    pair = (schmidt_values, mat_i, mat_j, dims_i, dims_j)
    if n == 1:
        return _entropies(_pair_spectrum(*pair), 1)
    return -np.log(_pair_traces(*pair, (n,))[0]) / (n - 1)


def _entropy_tables(schmidt: np.ndarray, mats: np.ndarray, dims, n: int) -> np.ndarray:
    """Tables (..., m, m) of S_n(A_i Abar_j) (n = 1 is von Neumann) of the
    instances with Schmidt values (..., d) and split matrices (..., m, d, d),
    the splits shaped as dims; leading axes are a stack, and one
    `_pair_entropies` call holds at most STACK_ENTRIES pair-matrix entries;
    only n = 1 takes a spectrum."""
    table = _pair_tables(schmidt[..., None, :], mats, (tuple(dims),),
                         functools.partial(_pair_entropies, n=n), STACK_ENTRIES)
    return table.reshape(table.shape[:-1] + (len(dims),) * 2)


def _instance_arrays(psi: PurifiedState, splits: list[SubsystemSplit]) -> tuple:
    """(Schmidt values, split matrices (m, d, d), split dims) of one instance."""
    for split in splits:
        _check_pair_dims(psi, split, split)
    return (psi.schmidt_values, np.array([s.matrix for s in splits]),
            [(s.dim_a, s.dim_b) for s in splits])


def entropy_table(psi: PurifiedState, splits: list[SubsystemSplit], n: int) -> np.ndarray:
    """Table of S_n(A_i Abar_j) over all split pairs: von Neumann from the pair
    spectra for n = 1, -log(tr rho^n) / (n - 1) from trace powers (no
    spectrum) for n >= 2."""
    schmidt, mats, dims = _instance_arrays(psi, splits)
    return _entropy_tables(schmidt, mats, dims, n)


def gram_matrix(psi: PurifiedState, splits: list[SubsystemSplit], n: int,
                lam: float | None = None) -> GramRecord:
    """Assemble the Gram record for the given splits and Renyi index.

    lam defaults to n - 1, the proven case where entries equal the trace
    powers tr(rho^n); other values are experimental search targets.  For
    n = 1 the trace entries are trivially 1, so lam must be supplied.  The
    entropy table behind the entries takes a pair spectrum for n = 1 only;
    for n >= 2 it comes from the trace powers themselves (`entropy_table`).
    """
    if n < 1:
        raise ValueError("Renyi index must be >= 1")
    if lam is None:
        if n == 1:
            raise ValueError("n = 1 requires an explicit lam (entries e^{-lam S})")
        lam = float(n - 1)
    table = entropy_table(psi, splits, n)
    return GramRecord(size=len(splits), n=n, lam=float(lam), entries=np.exp(-lam * table),
                      entropy_table=table)


@dataclass
class PsdVerdict:
    passed: bool
    min_eigenvalue: float
    scale: float
    witness: np.ndarray | None


def check_psd(gram, tol: float = PSD_RELATIVE_TOL) -> PsdVerdict:
    """PASS iff the minimum eigenvalue clears -tol * scale, which for
    0 <= tol < 1 also bounds every leading k x k minor below by
    -tol * scale^k (Cauchy interlacing).  The failure witness is the
    eigenvector of the minimum eigenvalue: the coefficient vector of the
    violating operator combination."""
    _, scale, eigvals, eigvecs = _gram_spectrum(
        gram.entries if isinstance(gram, GramRecord) else gram)
    passed = bool(eigvals[0] >= -tol * scale)
    return PsdVerdict(passed=passed, min_eigenvalue=float(eigvals[0]), scale=float(scale),
                      witness=None if passed else eigvecs[:, 0])


def schur_power(gram: GramRecord, s: int) -> GramRecord:
    """Entrywise s-th power; stays PSD for positive integer s (Schur product)."""
    if int(s) != s or s < 1:
        raise ValueError("Schur power requires a positive integer exponent")
    return GramRecord(size=gram.size, n=gram.n, lam=gram.lam * int(s),
                      entries=gram.entries ** int(s),
                      entropy_table=gram.entropy_table)


@dataclass
class DivisibilityRecord:
    """Second-difference matrix of an entropy table and its determinant.

    B_ij = S(A_i Abar_{j+1}) + S(A_{i+1} Abar_j) - S(A_i Abar_j)
           - S(A_{i+1} Abar_{j+1}); det B >= 0 is the lam -> 0 limit of the
    Gram inequalities (infinite divisibility).
    """

    b_matrix: np.ndarray
    det_b: float


def _checked_table(entropy_table) -> np.ndarray:
    """The entropy tables (..., m+1, m+1) as a float array, once they are
    square, of size >= 2 and symmetric within SYMMETRY_TOL; leading axes are
    a stack."""
    s = np.asarray(entropy_table, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2] or s.shape[-1] < 2:
        raise ValueError("entropy table must be square with size >= 2")
    return _check_symmetric(s, "entropy table")


def _second_differences(s: np.ndarray) -> np.ndarray:
    """B of the (..., m+1, m+1) tables s; leading axes are a stack."""
    return s[..., :-1, 1:] + s[..., 1:, :-1] - s[..., :-1, :-1] - s[..., 1:, 1:]


def divisibility_matrix(entropy_table: np.ndarray) -> DivisibilityRecord:
    """Build the m x m second-difference record from an (m+1)x(m+1) table."""
    b = _second_differences(_checked_table(entropy_table))
    return DivisibilityRecord(b_matrix=b, det_b=float(np.linalg.det(b)))


def _ordering_dets(s: np.ndarray) -> tuple:
    """(orderings, det B of the checked tables s (..., size, size) under
    each ordering, shape (..., orderings)): one stacked det.  The identity
    ordering comes first."""
    perms, index = _orderings(s.shape[-1])
    return perms, np.linalg.det(_second_differences(s[..., index[:, :, None], index[:, None, :]]))


@functools.lru_cache(maxsize=None)
def _orderings(size: int) -> tuple:
    """(every permutation of range(size) in itertools order, the identity
    first, as a tuple and as a read-only (size!, size) index array)."""
    perms = tuple(itertools.permutations(range(size)))
    index = np.array(perms)
    index.flags.writeable = False
    return perms, index


def divisibility_over_orderings(entropy_table: np.ndarray):
    """det B for every subsystem ordering; returns (worst det, ordering, all).

    The consecutive-pair structure of B depends on the ordering; the minimum
    over permutations is the strongest divisibility test for an instance.
    """
    s = np.asarray(entropy_table, dtype=float)
    if s.shape[0] > 4:
        raise ValueError("orderings report supported for up to 4 subsystems")
    perms, dets = _ordering_dets(_checked_table(s))
    results = [(perm, float(det_b)) for perm, det_b in zip(perms, dets)]
    worst = min(results, key=lambda item: item[1])
    return worst[1], worst[0], results


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


def _validated_dims(dims) -> list:
    """One (d_A, d_B) int pair per subsystem: at least two, one product d."""
    dims = [(int(a), int(b)) for a, b in dims]
    if len({a * b for a, b in dims}) != 1:
        raise ValueError("all subsystem splits must share the same total dimension")
    if len(dims) < 2:
        raise ValueError("need at least two subsystems")
    return dims


@dataclass
class SearchConfig:
    """Configuration of the randomized counterexample search.

    dims: one (d_A, d_B) pair per subsystem, all with equal product.
    target: 'integer_n' (control; violations flag a numerics bug),
            'entropy_n1' (Gram of e^{-lam S}, von Neumann entropies),
            'schur_s_fraction' (det B second differences, the s -> 0 limit;
            n = 1 is the entropy table of the divisibility inequalities,
            n >= 2 tests fractional powers of the proven integer-index case).
    literal_s: optional fractional entrywise power checked alongside det B.
    refine_iterations: when > 0 and the plain sweep finds nothing, run a
    seeded stochastic descent from the best sweep instance (violating
    regions occupy a small volume, so pure sampling can need huge budgets).
    """

    dims: list
    trials: int
    master_seed: int
    target: str = "entropy_n1"
    tolerance: float = COUNTEREXAMPLE_TOL
    lam: float = 1.0
    n: int = 1
    literal_s: float | None = None
    trial_offset: int = 0
    refine_iterations: int = 0
    refine_scale: float = 0.4
    refine_floor: float = 1e-8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.n < 1:
            raise ValueError("Renyi index must be >= 1")
        if self.target == "integer_n" and self.n < 2:
            raise ValueError("integer_n control mode needs n >= 2")
        self.dims = _validated_dims(self.dims)

    @property
    def dim(self) -> int:
        return self.dims[0][0] * self.dims[0][1]


@dataclass
class SearchReport:
    config: SearchConfig
    trials_run: int
    violations: list
    min_slack: float
    min_slack_trial: int
    refine_used: int = 0
    slack_quantiles: dict | None = None
    # run telemetry, not part of to_dict(): the descent's REFINE_COUNTERS
    refine_counters: dict = field(default_factory=lambda: dict.fromkeys(REFINE_COUNTERS, 0))

    @property
    def found(self) -> bool:
        return bool(self.violations)

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "config": {
                "dims": [list(d) for d in cfg.dims],
                "trials": cfg.trials,
                "master_seed": cfg.master_seed,
                "target": cfg.target,
                "tolerance": cfg.tolerance,
                "lam": cfg.lam,
                "n": cfg.n,
                "literal_s": cfg.literal_s,
                "trial_offset": cfg.trial_offset,
                "refine_iterations": cfg.refine_iterations,
            },
            "trials_run": self.trials_run,
            "refine_used": self.refine_used,
            "slack_quantiles": self.slack_quantiles,
            "num_violations": len(self.violations),
            "min_slack": self.min_slack,
            "min_slack_trial": self.min_slack_trial,
            "violations": self.violations,
        }


def _draw_block(master_seed: int, indices, dims_list) -> tuple:
    """(descending Schmidt values (N, d), Ginibre matrices (sum of m+1, d, d),
    each instance's first row (N,)) of the instances `indices`, split as
    `dims_list`, which share one d.  An instance's rows are its eigenbasis's
    matrix, then one per split.

    This is the one owner of stream order.  Instance k's `trial_rng`
    stream, seeded with the block's by `trial_rngs`, gives its spectrum and
    then, straight into its rows of one buffer, the real and then the
    imaginary parts of each matrix in turn (`sampling.ginibre_parts`, as
    `ginibre` draws them).  The spectrum is `Generator.dirichlet`'s flat
    draw: d standard exponentials times one over their sequential sum
    (`cumsum`; a pairwise `sum` differs in the last bits).  The rare
    instance below the redraw floor is drawn again as `simplex_eigenvalues`
    draws it, so an instance is the same in any block.  Normalization, sort
    and complex combine run once per block.
    """
    d = dims_list[0][0][0] * dims_list[0][0][1]
    rows = [1 + len(dims) for dims in dims_list]
    stops = np.cumsum(rows).tolist()
    raw = np.empty((stops[-1], 2, d, d))
    lam = np.empty((len(rows), d))
    for k, (rng, count, stop) in enumerate(zip(trial_rngs(master_seed, indices), rows, stops)):
        rng.standard_exponential(out=lam[k])
        ginibre_parts(rng, raw[stop - count:stop])
    lam *= 1.0 / np.cumsum(lam, axis=1)[:, -1:]
    for k in np.flatnonzero(lam.min(axis=1) < EIGENVALUE_REDRAW_FLOOR).tolist():
        rng = trial_rng(master_seed, indices[k])
        lam[k] = simplex_eigenvalues(d, rng)
        ginibre_parts(rng, raw[stops[k] - rows[k]:stops[k]])
    return np.sort(lam)[:, ::-1].copy(), ginibre_from_parts(raw), np.array(stops) - rows


def _draw_instance(cfg: SearchConfig, trial: int):
    lam, z, _ = _draw_block(cfg.master_seed, [cfg.trial_offset + trial], [cfg.dims])
    u = unitary_from_ginibre(z)
    psi = PurifiedState(dim=cfg.dim, schmidt_values=lam[0], eigenbasis=u[0])
    splits = [SubsystemSplit(dim_a=da, dim_b=db, coeffs=u[k + 1], label=f"A{k+1}")
              for k, (da, db) in enumerate(cfg.dims)]
    return psi, splits


def _serialize_instance(schmidt: np.ndarray, eigenbasis: np.ndarray, dims,
                        mats: np.ndarray) -> dict:
    from .serialize import encode_complex

    return {
        "eigenvalues": schmidt.tolist(),
        "eigenbasis": encode_complex(eigenbasis),
        "splits": [{"dim_a": da, "dim_b": db, "coeffs": encode_complex(mat)}
                   for (da, db), mat in zip(dims, mats)],
    }


def _instance_from_dict(data: dict):
    from .serialize import decode_complex

    u = decode_complex(data["eigenbasis"])
    psi = PurifiedState(dim=u.shape[0], schmidt_values=np.array(data["eigenvalues"]),
                        eigenbasis=u)
    splits = [SubsystemSplit(dim_a=s["dim_a"], dim_b=s["dim_b"],
                             coeffs=decode_complex(s["coeffs"]))
              for s in data["splits"]]
    return psi, splits


def _evaluate_block(cfg: SearchConfig, schmidt: np.ndarray, mats: np.ndarray) -> dict:
    """The configured inequality on a block of instances: Schmidt values
    (N, d) and unitary split matrices (N, m, d, d), split as cfg.dims.

    Returns the report fields as arrays indexed by instance, "slack" (the
    normalized slack, negative = violation) first; `_payload` turns one
    instance's into its result dict.
    """
    if cfg.target != "schur_s_fraction":
        # entropy_n1 weighs von Neumann entropies by lam; integer_n is the
        # proven case lam = n - 1
        n, lam = (1, cfg.lam) if cfg.target == "entropy_n1" else (cfg.n, float(cfg.n - 1))
        table = _entropy_tables(schmidt, mats, cfg.dims, n)
        gram, scale, eigvals, _ = _gram_spectrum(np.exp(-lam * table))
        return {"slack": eigvals[:, 0] / scale, "gram": gram, "entropy_table": table,
                "min_eigenvalue": eigvals[:, 0]}
    # schur_s_fraction: infinite divisibility through the lam -> 0 expansion
    table = _checked_table(_entropy_tables(schmidt, mats, cfg.dims, cfg.n))
    size = table.shape[-1]
    b = _second_differences(table)
    if size <= 4:
        # the identity ordering's det is the fixed ordering's, to the last bit
        _, dets = _ordering_dets(table)
        worst = np.argmin(dets, axis=-1)
        det_fixed, det_best = dets[:, 0], dets[np.arange(len(dets)), worst]
        ordering = _orderings(size)[1][worst]
    else:
        det_fixed = np.linalg.det(b)
        det_best, ordering = det_fixed, np.tile(np.arange(size), (len(table), 1))
    # ||B||_F as the dot product np.linalg.norm takes, of a C-ordered copy so
    # that its bits do not depend on B's layout; the scale floor keeps
    # roundoff on near-degenerate tables (B ~ 0) from masquerading as violations
    flat = np.ascontiguousarray(b).reshape(len(b), -1)
    b_norm = np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])
    out = {"slack": det_best / np.maximum(b_norm ** (size - 1), 1e-12),
           "det_b": det_fixed, "det_b_best": det_best, "best_ordering": ordering,
           "entropy_table": table}
    if cfg.literal_s is not None:
        _, scale, eigvals, _ = _gram_spectrum(np.exp(-cfg.literal_s * (cfg.n - 1) * table))
        out["literal_s_min_eigenvalue"] = eigvals[:, 0]
        out["literal_s_slack"] = eigvals[:, 0] / scale
    return out


def _payload(fields: dict, k: int) -> dict:
    """The result dict of instance k of an `_evaluate_block` output."""
    return {key: value[k].tolist() for key, value in fields.items()}


def _evaluate_target(cfg: SearchConfig, psi: PurifiedState,
                     splits: list[SubsystemSplit]) -> dict:
    """Normalized slack of the configured inequality (negative = violation)
    on one instance, whose splits must be shaped as cfg.dims."""
    schmidt, mats, dims = _instance_arrays(psi, splits)
    if dims != cfg.dims:
        raise ValueError(f"splits {dims} do not match the configured dims {cfg.dims}")
    return _payload(_evaluate_block(cfg, schmidt[None], mats[None]), 0)


def _block_trials(cfg: SearchConfig) -> int:
    """Trials per search block: at most STACK_ENTRIES pair-matrix entries,
    and at least one trial."""
    m = len(cfg.dims)
    return max(1, STACK_ENTRIES // (m * (m + 1) // 2 * cfg.dim * cfg.dim))


def _search_block(trials, cfg: SearchConfig) -> tuple:
    """(slacks, violations) of one block of trials (`_block_trials`): one
    `_draw_block` call, and one stack through the splits' Haar step, its
    unitarity check and `_evaluate_block`.  Payloads, and the eigenbasis
    unitary they store, are built for violating trials only."""
    m, d = len(cfg.dims), cfg.dim
    schmidt, z, _ = _draw_block(cfg.master_seed, [cfg.trial_offset + t for t in trials],
                                [cfg.dims] * len(trials))
    z = z.reshape(len(trials), m + 1, d, d)
    # the eigenbasis enters no target, so only the splits' are built here
    u = unitary_from_ginibre(z[:, 1:])
    _check_unitary(u)
    fields = _evaluate_block(cfg, schmidt, u)
    violations = []
    for k in np.flatnonzero(fields["slack"] < -cfg.tolerance).tolist():
        eigenbasis = unitary_from_ginibre(z[k, 0])
        _check_unitary(eigenbasis)
        result = _payload(fields, k)
        result["trial"] = cfg.trial_offset + trials[k]
        result["instance"] = _serialize_instance(schmidt[k], eigenbasis, cfg.dims, u[k])
        violations.append(result)
    return fields["slack"], violations


def _run_blocks(task) -> list:
    """The outputs of one pool task (worker, blocks, args), in block order."""
    worker, blocks, args = task
    return [worker(*block, *args) for block in blocks]


_POOL = {}  # jobs -> the live executor of jobs - 1 workers; at most one entry


def _worker_pool(jobs: int, fresh: bool = False):
    """The process's executor of jobs - 1 workers, built on first use and
    kept for later calls; built anew when jobs changes or `fresh` is set."""
    if fresh or jobs not in _POOL:
        from concurrent.futures import ProcessPoolExecutor

        _shutdown_pool()
        _POOL[jobs] = ProcessPoolExecutor(max_workers=jobs - 1)
    return _POOL[jobs]


@atexit.register
def _shutdown_pool():
    """Stop and join the workers, if any.  Registered at exit, so that no
    executor outlives the modules its finalizers use."""
    for pool in _POOL.values():
        pool.shutdown()
    _POOL.clear()


def _pool_runs(tasks: list, jobs: int) -> list:
    """The outputs of every task, in order: the first task runs in this
    process while the pool runs the rest.  A pool that breaks (a worker
    died) is replaced, and the new one runs this call's pool tasks again."""
    from concurrent.futures.process import BrokenProcessPool

    def submit(fresh=False):
        pool = _worker_pool(jobs, fresh)
        return [pool.submit(_run_blocks, task) for task in tasks[1:]]

    try:
        futures = submit()
    except BrokenProcessPool:
        futures = submit(fresh=True)
    runs = [_run_blocks(tasks[0])]
    try:
        return runs + [future.result() for future in futures]
    except BrokenProcessPool:
        return runs + [future.result() for future in submit(fresh=True)]


def _pool_map(worker, blocks: list, jobs: int, *args) -> tuple:
    """worker(*block, *args) on each block, merged in block order: the one
    merge of block results.  Of the output tuples, array fields are
    concatenated along their first axis and list fields joined.

    Runs of ceil(len(blocks) / jobs) blocks are one task each.  One task
    (jobs = 1, or a single block) runs in this process; with more, this
    process runs the first and the process's pool of jobs - 1 workers
    (`_worker_pool`) the others.
    """
    size = -(-len(blocks) // jobs)
    tasks = [(worker, blocks[k:k + size], args) for k in range(0, len(blocks), size)]
    runs = _pool_runs(tasks, jobs) if len(tasks) > 1 else [_run_blocks(tasks[0])]
    outputs = [output for run in runs for output in run]
    return tuple(np.concatenate(field) if isinstance(field[0], np.ndarray)
                 else list(itertools.chain.from_iterable(field)) for field in zip(*outputs))


def summarize(values) -> tuple[float, int, dict]:
    """(min, argmin, quantiles) of a 1-D array, for a report in place of the array.

    The quantiles are keyed q00, q01, q10, q50 and q100; argmin is the first
    index of the minimum.
    """
    values = np.asarray(values)
    best = int(np.argmin(values))
    quantiles = {f"q{int(100 * q):02d}": float(value)
                 for q, value in zip(SUMMARY_QUANTILES, np.quantile(values, SUMMARY_QUANTILES))}
    return float(values[best]), best, quantiles


def counterexample_search(cfg: SearchConfig, jobs: int = 1) -> SearchReport:
    """Randomized search for violations of the configured inequality.

    The trials are cut into blocks of `_block_trials` up front, and
    `_pool_map` runs and merges them.  Each trial derives its own stream
    from (master_seed, trial index), so any block boundaries and any `jobs`
    give the identical report.  Exhausting the budget without a violation
    is a normal outcome, reported with the trial count; with
    refine_iterations > 0 a seeded descent then pushes the best sweep
    instance toward the violating region.
    """
    size = _block_trials(cfg)
    blocks = [(range(cfg.trials)[first:first + size],) for first in range(0, cfg.trials, size)]
    slacks, violations = _pool_map(_search_block, blocks, jobs, cfg)
    min_slack, best, quantiles = summarize(slacks)
    min_trial = cfg.trial_offset + best
    report = SearchReport(config=cfg, trials_run=cfg.trials, violations=violations,
                          min_slack=float(min_slack), min_slack_trial=min_trial,
                          slack_quantiles=quantiles)
    if not violations and cfg.refine_iterations > 0 and cfg.target != "integer_n":
        refined, report.refine_used, report.refine_counters = _refine(cfg, min_trial)
        if refined is not None:
            violations.append(refined)
            report.min_slack = float(min(min_slack, refined["slack"]))
    return report


def _refine(cfg: SearchConfig, start_trial: int):
    """Stochastic descent from a sweep instance into the violating region.

    Moves perturb the spectrum in the log simplex or rotate one split by a
    random small unitary; only improvements are kept and the move scale
    shrinks after 300 rejections in a row.  The state eigenbasis is
    irrelevant to every target (only the spectrum and the splits enter), so
    it is never built and the payload stores the identity.

    Proposals are pre-fetched.  A proposal's draws do not depend on the
    state, and under rejection the stall count, the shrink and the
    `refine_floor` skip are deterministic, so a block of proposals is drawn
    from the current state as if each were rejected.  Their rotations take
    one stacked `eigh` and one unitarity check, and the block one
    `_evaluate_block` call.  The first proposal that improves is accepted:
    the generator, the scale and the iteration count rewind to just after
    it, so the trajectory is the sequential one-at-a-time descent's to the
    last bit.  The block size follows the run.  After an accept it is
    2 / sqrt(p), p the accepts per iteration so far: a block of K costs
    about c0 + c1 K and advances about K (1 - p K / 2) iterations, which
    is cheapest per iteration at K = sqrt(2 c0 / (c1 p)), and a call's
    fixed cost c0 is about two proposals' c1 at 3 x 2x2.  After a block
    without an accept it doubles.  It never exceeds a search block's worth
    of instances.

    Returns (violation payload once the slack clears -10 * tolerance, else
    None; iterations used; counters keyed as REFINE_COUNTERS).
    """
    rng = trial_rng(cfg.master_seed, cfg.trial_offset + cfg.trials)
    lam, z, _ = _draw_block(cfg.master_seed, [start_trial], [cfg.dims])
    lam, betas = lam[0], unitary_from_ginibre(z[1:])
    _check_unitary(betas)
    m, d, cap = len(betas), cfg.dim, _block_trials(cfg)
    counters = dict.fromkeys(REFINE_COUNTERS, 0)
    cur_slack = _evaluate_block(cfg, lam[None], betas[None])["slack"][0]
    target_slack = -10.0 * cfg.tolerance
    scale, stall, it, size = cfg.refine_scale, 0, 0, 1
    while it < cfg.refine_iterations:
        # (iteration count, split moved (0: the spectrum), spectrum, Hermitian
        # draw, scale, shrinks before it in the block, generator state after)
        block, shrinks = [], 0
        while len(block) < size and it < cfg.refine_iterations:
            it += 1
            which = int(rng.integers(0, 1 + m))
            lam_new, h = lam, None
            if which == 0:
                logl = np.log(lam) + scale * rng.standard_normal(lam.size)
                lam_new = np.exp(logl)
                lam_new = lam_new / lam_new.sum()
                if lam_new.min() < cfg.refine_floor:
                    continue
            else:
                h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            block.append((it, which, lam_new, h, scale, shrinks, rng.bit_generator.state))
            # the rejection this proposal meets unless it is accepted
            stall += 1
            if stall > 300:
                scale = max(scale * 0.6, 1e-3)
                stall = 0
                shrinks += 1
        if not block:
            break
        whichs = np.array([move[1] for move in block])
        mats = np.repeat(betas[None], len(block), axis=0)
        rows = np.flatnonzero(whichs)
        if rows.size:
            draws = np.array([block[r][3] for r in rows])
            w, v = np.linalg.eigh(0.5 * (draws + draws.conj().swapaxes(-1, -2)))
            phases = np.exp(1j * np.array([block[r][4] for r in rows])[:, None] * w)
            rotated = ((v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)
                       @ betas[whichs[rows] - 1])
            _check_unitary(rotated)
            mats[rows, whichs[rows] - 1] = rotated
        schmidt = np.sort([move[2] for move in block], axis=-1)[:, ::-1]
        fields = _evaluate_block(cfg, schmidt, mats)
        counters["blocks"] += 1
        counters["evaluated"] += len(block)
        better = np.flatnonzero(fields["slack"] < cur_slack)
        if not better.size:
            counters["shrinks"] += shrinks
            size = min(cap, 2 * size)
            continue
        k = int(better[0])
        it, _, lam, _, scale, shrinks, state = block[k]
        rng.bit_generator.state = state
        betas, cur_slack, stall = mats[k], fields["slack"][k], 0
        counters["accepted"] += 1
        counters["discarded"] += len(block) - k - 1
        counters["shrinks"] += shrinks
        if cur_slack < target_slack:
            result = _payload(fields, k)
            result["trial"] = start_trial
            result["refined"] = True
            result["refine_iterations"] = it
            result["instance"] = _serialize_instance(
                np.sort(lam)[::-1], np.eye(d, dtype=complex), cfg.dims, betas)
            return result, it, counters
        size = max(1, min(cap, round(2 * math.sqrt(it / counters["accepted"]))))
    return None, cfg.refine_iterations, counters


def verify_witness(witness: dict, target: str, tolerance: float = COUNTEREXAMPLE_TOL,
                   lam: float = 1.0, n: int | None = None) -> float:
    """Re-evaluate a stored violating instance; returns the recomputed slack.

    n defaults as in the search CLI: 2 for integer_n, otherwise 1.
    """
    if n is None:
        n = 2 if target == "integer_n" else 1
    psi, splits = _instance_from_dict(witness["instance"])
    cfg = SearchConfig(dims=[(s.dim_a, s.dim_b) for s in splits], trials=1,
                       master_seed=0, target=target, tolerance=tolerance,
                       lam=lam, n=n)
    return _evaluate_target(cfg, psi, splits)["slack"]


@dataclass
class SweepResult:
    instances: int
    checks: int
    min_normalized_eig: float
    worst: dict
    violations: list


def theorem_sweep(dims_by_instance, n_values, master_seed: int,
                  tol: float = PSD_RELATIVE_TOL, jobs: int = 1,
                  trial_offset: int = 0) -> SweepResult:
    """PSD sweep of integer-index Gram matrices over random instances.

    dims_by_instance: iterable of split-dimension lists, one instance each,
    numbered from trial_offset.  Every n must be an integer >= 1, and every
    (instance, n) pair must come out PSD within -tol * ||G||; any violation
    is collected (a numerics bug, not physics).  The plan is validated and
    cut into blocks of equal estimated cost once, here (`_sweep_blocks`);
    `_pool_map` runs the blocks (`_sweep_block`) and merges them, in this
    process when jobs = 1 or the plan is under the one-block floor.
    Instance streams make the result the same to the last bit for any block
    boundaries and any `jobs`; the worst check is the first one at the
    minimum, in instance and then n order.
    """
    n_values = list(n_values)
    if any(int(n) != n or n < 1 for n in n_values):  # a trace power needs n >= 1
        raise ValueError(f"Renyi indices must be integers >= 1, got {n_values}")
    n_values = [int(n) for n in n_values]
    blocks = [(trial_offset + start, block)
              for start, block in _sweep_blocks(dims_by_instance, jobs)]
    min_eigs, scales, violations = _pool_map(_sweep_block, blocks, jobs, n_values,
                                             master_seed, tol)
    dims = [splits for _, block in blocks for splits in block]
    normalized = min_eigs / scales
    result = SweepResult(instances=len(dims), checks=normalized.size,
                         min_normalized_eig=math.inf, worst={}, violations=violations)
    if normalized.size:
        k, c = np.unravel_index(np.argmin(normalized), normalized.shape)
        result.min_normalized_eig = float(normalized[k, c])
        result.worst = {"instance": trial_offset + int(k), "n": n_values[c],
                        "dims": list(dims[k]), "min_eigenvalue": float(min_eigs[k, c]),
                        "scale": float(scales[k, c])}
    return result


# an alias for the export list and the benchmark (perfbench/tracer.py patches
# it, and the sweep workload calls it); the package calls theorem_sweep
theorem_sweep_parallel = theorem_sweep


def _sweep_blocks(dims_by_instance, jobs: int) -> list:
    """The plan as [(first instance, [validated dims tuple, ...]), ...]:
    contiguous blocks of about equal estimated cost (SWEEP_INSTANCE_ENTRIES
    plus its pair entries per instance), each cut at the instance boundary
    nearest its share of the plan's cost.

    A plan that costs less than SWEEP_BLOCK_ENTRIES // 8 is one block.
    Otherwise the block count is the least multiple of jobs that keeps
    every block of two or more instances within SWEEP_BLOCK_ENTRIES pair
    entries, so each of the `_pool_map` runs gets the same number of
    blocks; one instance per block if no such count is below the plan's
    length.  An empty plan raises ValueError.
    """
    plan, seen = [], {}
    for dims in dims_by_instance:
        checked = tuple(_validated_dims(dims))
        plan.append(seen.setdefault(checked, checked))  # repeated dims share one tuple
    if not plan:
        raise ValueError("the sweep plan is empty")
    entries = np.array([len(dims) * (len(dims) + 1) // 2 * (dims[0][0] * dims[0][1]) ** 2
                        for dims in plan])
    # bounds[b] is the cost of the first b instances
    bounds = np.concatenate(([0], np.cumsum(entries + SWEEP_INSTANCE_ENTRIES)))
    count = 1
    if bounds[-1] >= SWEEP_BLOCK_ENTRIES // 8:
        count = jobs * -(-int(entries.sum()) // (jobs * SWEEP_BLOCK_ENTRIES))
    while count < len(plan):
        shares = bounds[-1] * np.arange(1, count) / count
        after = np.searchsorted(bounds, shares)  # the first boundary at or past each share
        nearer = bounds[after] - shares <= shares - bounds[after - 1]
        cuts = np.unique(np.concatenate(([0], np.where(nearer, after, after - 1), [len(plan)])))
        sizes = np.add.reduceat(entries, cuts[:-1])
        if not np.any((sizes > SWEEP_BLOCK_ENTRIES) & (np.diff(cuts) > 1)):
            break
        count += jobs
    else:
        cuts = np.arange(len(plan) + 1)
    return [(start, plan[start:stop]) for start, stop in zip(cuts[:-1].tolist(), cuts[1:].tolist())]


def _sweep_block(first: int, block, n_values, master_seed: int, tol: float) -> tuple:
    """(min eigenvalues, scales, violations) of one block, its first
    instance `first`: both arrays are (instances, n), by instance and then
    by n, as are the violations.

    Per d, one `_draw_block` call draws the instances, so an instance is
    the search's and the same in any block; one Haar step, one unitarity
    check and one `_pair_tables` call follow, whose runs reduce pair
    matrices to their trace powers per n (`_pair_traces`, no spectrum).
    Then come the verdicts per subsystem count.
    """
    by_d = defaultdict(list)  # d -> block indices
    for idx, splits in enumerate(block):
        by_d[splits[0][0] * splits[0][1]].append(idx)

    tables, order = [], []
    for idx in by_d.values():
        dims = tuple(block[k] for k in idx)
        lam, z, eigenbases = _draw_block(master_seed, [first + k for k in idx], dims)
        # the eigenbasis enters no pair matrix
        u = unitary_from_ginibre(np.delete(z, eigenbases, axis=0))
        _check_unitary(u)
        order += idx
        tables.append(_pair_tables(lam, u, dims, lambda *pair: _pair_traces(*pair, n_values),
                                   SWEEP_BLOCK_ENTRIES))
    # each instance's Gram entries are a row-major m x m run of `entries`
    entries = np.concatenate(tables, axis=-1)
    sizes = np.array([len(dims) for dims in block])
    starts = np.empty_like(sizes)
    starts[order] = np.cumsum(sizes[order] ** 2) - sizes[order] ** 2

    min_eigs = np.empty((len(block), len(n_values)))
    scales = np.empty_like(min_eigs)
    grams = {}
    for m in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == m)
        g = entries[:, starts[members][:, None] + np.arange(m * m)]
        g, scale, eigvals, _ = _gram_spectrum(
            g.reshape(-1, len(members), m, m).swapaxes(0, 1))
        min_eigs[members] = eigvals[..., 0]
        scales[members] = scale
        grams.update(zip(members.tolist(), g))

    violations = [{"instance": first + int(k), "n": n_values[c], "dims": list(block[k]),
                   "gram": grams[k][c].tolist(), "min_eigenvalue": float(min_eigs[k, c])}
                  for k, c in zip(*np.nonzero(min_eigs / scales < -tol))]
    return min_eigs, scales, violations
