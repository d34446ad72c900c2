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
import os
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from .modular import (PurifiedState, _check_hermitian, _check_renyi_order, _check_tolerance,
                      _check_weight)
from .reflected import (TINY, SubsystemSplit, _check_pair_dims, _check_pair_traces,
                        _check_unitary, _entropies, _gram_eigenvalues, _gram_traces, _pair_gram,
                        _split_weights)
from . import sampling
from .sampling import (ginibre, ginibre_from_parts, ginibre_parts, simplex_eigenvalues, trial_rng,
                       trial_rngs, unitary_from_ginibre)
# not called here: the benchmark's tracer patches these names on this module
from .reflected import _combine, renyi_entropy, twist_operators, von_neumann  # noqa: F401
from .sampling import haar_unitary  # noqa: F401

PSD_RELATIVE_TOL = 1e-10
SYMMETRY_TOL = 1e-9
# a violation must clear this much relative slack to count as a counterexample
COUNTEREXAMPLE_TOL = 1e-6
TARGETS = ("integer_n", "entropy_n1", "schur_s_fraction")
# det B's slack is exactly 0 when B is zero to working precision:
# ||B||_F <= DETB_ZERO_ULPS * size^2 * eps * max(1, max |S|), size^2 the
# entry count of the table.  On trivial splits (1x4, 4x1, 1x9, 1x16 and
# 1x64, two to five of them), whose entropies are all 0 in exact
# arithmetic, ||B||_F came to at most 7.5 eps * max(1, max |S|); on 2x2,
# 2x3 and 16x1 tables it was at least 5e14 eps
DETB_ZERO_ULPS = 8
# block planning (`_sweep_blocks`, for the sweep and the search): a block of
# two or more instances holds at most this many pair-matrix entries, which
# bounds a block's memory for any plan length and split size
SWEEP_BLOCK_ENTRIES = 1 << 17
# the cost model of blocks: an instance costs its m(m+1)/2 d^2 pair
# entries plus this many entries' worth of fixed work (draw, Haar step,
# verdict).  40-instance blocks of 2-4 subsystems, one BLAS thread on a
# shared 2-core x86_64 machine, took 1.9 ms for 4,000 entries at d = 4 and
# 8.7 ms for 64,000 at d = 16 (medians over 12 batches of each batch's
# fastest of 8 runs): about 0.11 us per entry and a fixed 36 us, about
# 310 entries, per instance.  The two blocks of the benchmark's
# 200-instance criterion-1 mix then take 9.8 and 10.5 ms.  A plan that
# costs less than SWEEP_BLOCK_ENTRIES // 8 (about 2 ms) stays one block in
# the calling process, where a pool task's round trip (0.05 ms to an idle
# worker and back, more while this process computes) would not pay.
SWEEP_INSTANCE_ENTRIES = 320
# stacked steps of a block: each holds at most this many entries, or one
# matrix if a single matrix is larger.  A build run of pair Gram matrices
# (`_weighted_pair_tables`) holds this many pair-matrix entries, gathered
# from the call's weighted split stack and its conjugate, each made once
# per call: 256 pairs at d = 4, one pair, read as views, at d = 64; a
# pooled reduction, this many entries of the Ms (256 4 x 4 Ms, one
# 64 x 64); a Haar-step run (`_draw_block`), this many split entries.  At
# 64 KB per complex temporary a step stays in cache and below the
# allocator's mapping threshold, so its memory is reused, not faulted in
# afresh.  The refine descent evaluates at most as many proposals at once
# as fit in one build run (`_block_trials`).
STACK_ENTRIES = 1 << 12
# the quantiles a report keeps of a slack array in place of the array
SUMMARY_QUANTILES = (0.0, 0.01, 0.1, 0.5, 1.0)
# the refine descent's counters, kept on SearchReport outside its report:
# stacked proposal calls, proposals evaluated, accepted, evaluated past the
# accepted one and so discarded, and step-scale shrinks
REFINE_COUNTERS = ("blocks", "evaluated", "accepted", "discarded", "shrinks")
# the refine descent's first move scale, the least eigenvalue a spectrum
# move may leave (a move below it is skipped), and the proposals it
# evaluates per call, at most `_block_trials`
REFINE_SCALE = 0.4
REFINE_FLOOR = 1e-8
REFINE_BLOCK = 12


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
    scale = np.maximum(np.abs(eigvals).max(axis=-1), TINY)
    return g, scale, eigvals, eigvecs


@dataclass(frozen=True)
class GramRecord:
    """(m+1) x (m+1) matrix of exp(-lam * S_n(A_i Abar_j)) with its one
    `_gram_spectrum`: the symmetrized entries, the least eigenvalue, the
    scale and the eigenvectors (ascending), which `check_psd` reads."""

    n: int
    lam: float
    entries: np.ndarray
    entropy_table: np.ndarray
    min_eigenvalue: float = field(init=False)
    scale: float = field(init=False)  # max(||entries||_2, tiny)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries, scale, eigvals, eigvecs = _gram_spectrum(self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "min_eigenvalue", float(eigvals[0]))
        object.__setattr__(self, "scale", float(scale))
        object.__setattr__(self, "eigenvectors", eigvecs)

    @property
    def size(self) -> int:
        """The split count, m + 1."""
        return self.entries.shape[0]


def _as_slice(index: np.ndarray):
    """The slice that selects what index does, if its entries step up
    evenly (one entry always does), so that indexing gives a view; else
    index itself."""
    step = int(index[1] - index[0]) if len(index) > 1 else 1
    if step > 0 and np.all(np.diff(index) == step):
        return slice(int(index[0]), int(index[-1]) + 1, step)
    return index


@functools.lru_cache(maxsize=256)
def _pair_plan(dims: tuple, size: int) -> tuple:
    """The split pairs i <= j of a flat stack of instances shaped as `dims`
    (a tuple of (d_A, d_B) per instance; splits stacked flat and m x m tables
    laid out flat, row-major, both in instance order), by instance, then j,
    then i, in runs of at most `size` pairs of one shape, in first-seen
    order: ((dims_i, dims_j), split i, split j, entry ij, entry ji).  A
    split index that steps up evenly is a slice (`_as_slice`), as a
    one-pair run's always are, so a build reads views; the index arrays
    are read-only because every caller shares them."""
    sizes = np.array([len(splits) for splits in dims])
    count = sizes * (sizes + 1) // 2
    inst = np.repeat(np.arange(len(dims)), count)
    # the pairs of each m, by j and then i, are a prefix of the largest m's
    j, i = np.tril_indices(sizes.max())
    local = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    i, j, m = i[local], j[local], sizes[inst]
    split, entry = (np.cumsum(sizes) - sizes)[inst], (np.cumsum(sizes ** 2) - sizes ** 2)[inst]
    pairs = np.stack((split + i, split + j, entry + i * m + j, entry + j * m + i))
    shapes = {}
    codes = np.array([shapes.setdefault(shape, len(shapes))
                      for splits in dims for shape in splits])
    key = codes[pairs[0]] * len(shapes) + codes[pairs[1]]
    shape_of, runs = list(shapes), []
    for code in dict.fromkeys(key.tolist()):
        group = pairs[:, key == code]
        group.flags.writeable = False
        for k in range(0, group.shape[1], size):
            run = group[:, k:k + size]
            runs.append(((shape_of[code // len(shapes)], shape_of[code % len(shapes)]),
                         *map(_as_slice, run[:2]), *run[2:]))
    return tuple(runs)


def _pair_tables(schmidt: np.ndarray, mats: np.ndarray, dims: tuple, reduce) -> np.ndarray:
    """`_weighted_pair_tables` of a flat stack of instances shaped as `dims`
    (`_pair_plan`): Schmidt values (N, d) and split matrices (S, d, d), each
    split weighted by its instance's `_split_weights` in one pass."""
    ops = np.empty((2,) + mats.shape, dtype=complex)
    weights = np.repeat(_split_weights(schmidt), [len(splits) for splits in dims], axis=0)
    np.multiply(weights, mats, out=ops[0])
    return _weighted_pair_tables(ops, dims, reduce)


def _weighted_pair_tables(ops: np.ndarray, dims: tuple, reduce) -> np.ndarray:
    """Flat table (sum of m^2,) of a pair reduction over a flat stack of
    instances shaped as `dims` (`_pair_plan`), given as their weighted split
    matrices in ops[0] of ops (2, S, d, d): each split's rows times
    lam^{1/4} of its instance (`_split_weights`).  ops[1] receives their
    conjugate, so each split is weighted and conjugated once per call,
    however many pairs it enters.

    One buffer holds both stacks because glibc's malloc returns to the
    system a free heap top larger than twice the largest mapping freed so
    far: two separate d = 64 stacks freed together crossed that line and
    were faulted in afresh on every call (128 minor faults per 3-split
    record), which made gram-large 10 % slower than weighting each pair's
    operands afresh.

    rho_{A_j Abar_i} is the reflection of rho_{A_i Abar_j}, so each pair
    i <= j is reduced once and written to both entries.  Each run of one
    shape pair, at most STACK_ENTRIES pair-matrix entries (at least one
    pair), builds its pair Gram matrices M (`_pair_gram`, k x k) from views
    of the two stacks where the plan holds slices, else from gathers.  The
    unit-trace gate (`_check_pair_traces`) checks every M's trace once per
    table, naming the first offender in plan order.  The Ms of one k are
    pooled across shape pairs, and a pool is reduced once it holds
    STACK_ENTRIES entries (at least one M), the rest at the end:
    reduce(M stack (run, k, k)) gives values (run,), which may gain axes in
    front of the run axis; the table gains them too.  Each M is reduced
    alone, so the table is the same for any pooling.
    """
    d, table, pools, traces = ops.shape[-1], None, defaultdict(list), []
    left, right = ops
    np.conjugate(left, out=right)

    def flush(pool, cap=math.inf):
        """Reduce the first cap entries of a pool (all by default) and keep
        the rest; a pool of one run is reduced without a copy."""
        nonlocal table
        m, ij, ji = pool[0] if len(pool) == 1 else map(np.concatenate, zip(*pool))
        pool.clear()
        if len(ij) > cap:
            pool.append((m[cap:], ij[cap:], ji[cap:]))
            m, ij, ji = m[:cap], ij[:cap], ji[:cap]
        values = reduce(m)
        if table is None:
            table = np.empty(values.shape[:-1] + (sum(len(s) ** 2 for s in dims),))
        table[..., ij] = table[..., ji] = values

    for (dims_i, dims_j), i, j, ij, ji in _pair_plan(dims, max(1, STACK_ENTRIES // d ** 2)):
        m = _pair_gram(left[i], right[j], dims_i, dims_j)
        traces.append(np.trace(m, axis1=-2, axis2=-1))
        pool, cap = pools[m.shape[-1]], max(1, STACK_ENTRIES // m.shape[-1] ** 2)
        pool.append((m, ij, ji))
        if sum(len(held[1]) for held in pool) >= cap:
            # a run is at most one pool's worth (k <= d), so one flush leaves less than cap
            flush(pool, cap)
    _check_pair_traces(np.concatenate(traces).real)
    for pool in pools.values():
        if pool:
            flush(pool)
    return table


def _pair_entropies(m: np.ndarray, n: int) -> np.ndarray:
    """S_n(A_i Abar_j) of a stack of pair Gram matrices M (`_pair_gram`),
    the pair reduction of entropy tables; neither route takes an SVD.  Von
    Neumann (n = 1) needs the eigenvalues, so it takes `eigvalsh` of M
    (`_gram_eigenvalues`).  An integer n >= 2 needs none: S_n is
    -log(tr rho^n) / (n - 1), from the theorem sweep's trace powers
    (`_gram_traces`).
    """
    if n == 1:
        return _entropies(_gram_eigenvalues(m), 1)
    return -np.log(_gram_traces(m, (n,))[0]) / (n - 1)


def _entropy_tables(schmidt: np.ndarray, mats: np.ndarray, dims, n: int) -> np.ndarray:
    """Tables (..., m, m) of S_n(A_i Abar_j) (n = 1 is von Neumann) of the
    instances with Schmidt values (..., d) and split matrices (..., m, d, d),
    the splits shaped as dims; leading axes are a stack, flattened into one
    `_pair_tables` call; only n = 1 takes a spectrum."""
    d, lead = schmidt.shape[-1], schmidt.shape[:-1]
    table = _pair_tables(schmidt.reshape(-1, d), mats.reshape(-1, d, d),
                         (tuple(dims),) * math.prod(lead), functools.partial(_pair_entropies, n=n))
    return table.reshape(lead + (len(dims),) * 2)


def entropy_table(psi: PurifiedState, splits: list[SubsystemSplit], n: int) -> np.ndarray:
    """Table of S_n(A_i Abar_j) over all split pairs: von Neumann from the pair
    spectra for n = 1, -log(tr rho^n) / (n - 1) from trace powers (no
    spectrum) for n >= 2.  The weighted stack is written straight from the
    splits, with no stack of the raw split matrices."""
    n = _check_renyi_order(n, integer=True)
    for split in splits:
        _check_pair_dims(psi, split, split)
    weights = _split_weights(psi.schmidt_values)
    ops = np.empty((2, len(splits), psi.dim, psi.dim), dtype=complex)
    for k, split in enumerate(splits):
        np.multiply(weights, split.matrix, out=ops[0, k])
    dims = tuple((split.dim_a, split.dim_b) for split in splits)
    table = _weighted_pair_tables(ops, (dims,), functools.partial(_pair_entropies, n=n))
    return table.reshape(len(splits), len(splits))


def gram_matrix(psi: PurifiedState, splits: list[SubsystemSplit], n: int,
                lam: float | None = None) -> GramRecord:
    """Assemble the Gram record for the given splits and Renyi index.

    lam defaults to n - 1, the proven case where entries equal the trace
    powers tr(rho^n); other values are experimental search targets.  For
    n = 1 the trace entries are trivially 1, so lam must be supplied.  The
    entropy table behind the entries takes a pair spectrum for n = 1 only;
    for n >= 2 it comes from the trace powers themselves (`entropy_table`).
    """
    n = _check_renyi_order(n, integer=True)
    if lam is None:
        if n == 1:
            raise ValueError("n = 1 requires an explicit lam (entries e^{-lam S})")
        lam = n - 1
    lam = _check_weight(lam, "lam")
    table = entropy_table(psi, splits, n)
    return GramRecord(n=n, lam=lam, entries=np.exp(-lam * table), entropy_table=table)


@dataclass
class PsdVerdict:
    passed: bool
    min_eigenvalue: float
    scale: float
    witness: np.ndarray | None


def check_psd(gram) -> PsdVerdict:
    """PASS iff the minimum eigenvalue clears -PSD_RELATIVE_TOL * scale,
    which also bounds every leading k x k minor below by
    -PSD_RELATIVE_TOL * scale^k (Cauchy interlacing).  The failure witness
    is the eigenvector of the minimum eigenvalue: the coefficient vector of
    the violating operator combination.  A GramRecord's spectrum is the
    record's own; a matrix takes its `_gram_spectrum` here."""
    if isinstance(gram, GramRecord):
        min_eigenvalue, scale, eigvecs = gram.min_eigenvalue, gram.scale, gram.eigenvectors
    else:
        _, scale, eigvals, eigvecs = _gram_spectrum(gram)
        min_eigenvalue, scale = float(eigvals[0]), float(scale)
    passed = min_eigenvalue >= -PSD_RELATIVE_TOL * scale
    return PsdVerdict(passed=passed, min_eigenvalue=min_eigenvalue, scale=scale,
                      witness=None if passed else eigvecs[:, 0])


@dataclass
class DivisibilityRecord:
    """Second-difference matrix of an entropy table and its determinant.

    B_ij = S(A_i Abar_{j+1}) + S(A_{i+1} Abar_j) - S(A_i Abar_j)
           - S(A_{i+1} Abar_{j+1}); det B >= 0 is the lam -> 0 limit of the
    Gram inequalities (infinite divisibility).

    det B and B's inertia do not depend on the subsystem ordering: B is
    -D S D^T (D the difference operator), and a permutation P gives D P = M D
    with M integral and unimodular, so B becomes M B M^T, det M = +-1.
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
    tolerance: the slack a violation must clear; finite, negative allowed.
    lam: entropy_n1's exponent weight, > 0 and finite (refused otherwise,
    whatever the target).
    n: the Renyi index; entropy_n1 takes n = 1 only.
    literal_s: a fractional entrywise power s > 0 checked alongside det B:
    the Gram matrix of exp(-s (n - 1) S_n) for n >= 2, of exp(-s S_1) at
    n = 1.
    refine_iterations: when > 0 and the plain sweep finds nothing, run a
    seeded stochastic descent from the best sweep instance (violating
    regions occupy a small volume, so pure sampling can need huge budgets).
    A report must not claim a check that does not run, so literal_s needs
    schur_s_fraction and a descent is refused under integer_n.
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

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        self.tolerance = _check_tolerance(self.tolerance, "tolerance")
        self.lam = _check_weight(self.lam, "lam")
        self.n = _check_renyi_order(self.n, integer=True)
        if self.target == "integer_n" and self.n < 2:
            raise ValueError("integer_n control mode needs n >= 2")
        if self.target == "entropy_n1" and self.n != 1:
            raise ValueError(f"entropy_n1 takes von Neumann entropies, n = 1; got n = {self.n}")
        if self.literal_s is not None:
            if self.target != "schur_s_fraction":
                raise ValueError("literal_s is checked only by the schur_s_fraction target")
            self.literal_s = _check_weight(self.literal_s, "literal_s")
        if self.refine_iterations > 0 and self.target == "integer_n":
            raise ValueError("the integer_n control mode takes no refine descent")
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
        return {
            "config": asdict(self.config),
            "trials_run": self.trials_run,
            "refine_used": self.refine_used,
            "slack_quantiles": self.slack_quantiles,
            "num_violations": len(self.violations),
            "min_slack": self.min_slack,
            "min_slack_trial": self.min_slack_trial,
            "violations": self.violations,
        }


def _draw_block(master_seed: int, indices, dims_list) -> tuple:
    """(descending Schmidt values (N, d), checked Haar split unitaries
    stacked flat (sum of m, d, d), eigenbasis Ginibre parts (N, 2, d, d))
    of the instances `indices`, split as `dims_list`, which share one d.
    The eigenbasis enters no pair matrix: a caller that needs its unitary
    combines its parts (`ginibre_from_parts`) and builds and checks it.

    This is the one owner of stream order and of the splits' Haar step.
    Instance k's `trial_rng` stream, seeded with the block's by
    `trial_rngs`, gives its spectrum and then, straight into its rows of
    one buffer, the real and then the imaginary parts of its eigenbasis's
    matrix and then each split's (`sampling.ginibre_parts`, as `ginibre`
    draws them).  The spectrum is `Generator.dirichlet`'s flat draw: d
    standard exponentials times one over their sequential sum (`cumsum`; a
    pairwise `sum` differs in the last bits).  The rare instance below the
    redraw floor is drawn again as `simplex_eigenvalues` draws it, so an
    instance is the same in any block; both read the floor, sampling's
    EIGENVALUE_REDRAW_FLOOR, when called.  The Haar step (complex combine of
    the split rows, QR, phase fix, `_check_unitary`) runs on runs of at
    most STACK_ENTRIES split entries, or one split, into one output.
    """
    d = dims_list[0][0][0] * dims_list[0][0][1]
    rows = np.array([1 + len(dims) for dims in dims_list])
    stops = np.cumsum(rows)
    eigen = stops - rows  # an instance's first row holds its eigenbasis
    raw = np.empty((stops[-1], 2, d, d))
    lam = np.empty((len(rows), d))
    for k, (rng, start, stop) in enumerate(zip(trial_rngs(master_seed, indices),
                                               eigen.tolist(), stops.tolist())):
        rng.standard_exponential(out=lam[k])
        ginibre_parts(rng, raw[start:stop])
    lam *= 1.0 / np.cumsum(lam, axis=1)[:, -1:]
    for k in np.flatnonzero(lam.min(axis=1) < sampling.EIGENVALUE_REDRAW_FLOOR).tolist():
        rng = trial_rng(master_seed, indices[k])
        lam[k] = simplex_eigenvalues(d, rng)
        ginibre_parts(rng, raw[eigen[k]:stops[k]])
    is_split = np.ones(len(raw), dtype=bool)
    is_split[eigen] = False
    splits = np.flatnonzero(is_split)
    u = np.empty((len(splits), d, d), dtype=complex)
    run = max(1, STACK_ENTRIES // d ** 2)
    for start in range(0, len(u), run):
        u[start:start + run] = unitary_from_ginibre(
            ginibre_from_parts(raw[splits[start:start + run]]))
        _check_unitary(u[start:start + run])
    return np.sort(lam)[:, ::-1].copy(), u, raw[eigen]


def _draw_instance(cfg: SearchConfig, trial: int):
    lam, u, eigen = _draw_block(cfg.master_seed, [cfg.trial_offset + trial], [cfg.dims])
    eigenbasis = unitary_from_ginibre(ginibre_from_parts(eigen[0]))
    _check_unitary(eigenbasis)
    psi = PurifiedState(dim=cfg.dim, schmidt_values=lam[0], eigenbasis=eigenbasis)
    splits = [SubsystemSplit(dim_a=da, dim_b=db, coeffs=u[k], label=f"A{k+1}")
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
    # det B is the same under every subsystem ordering (`DivisibilityRecord`)
    det_b = np.linalg.det(b)
    # ||B||_F as the dot product np.linalg.norm takes, of a C-ordered copy so
    # that its bits do not depend on B's layout.  A B that is zero to working
    # precision (DETB_ZERO_ULPS) has slack 0: its det is roundoff, which the
    # scale floor would otherwise blow up into a violation
    flat = np.ascontiguousarray(b).reshape(len(b), -1)
    b_norm = np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])
    zero_b = b_norm <= (DETB_ZERO_ULPS * size ** 2 * np.finfo(float).eps
                        * np.maximum(1.0, np.abs(table).max(axis=(-2, -1))))
    slack = np.where(zero_b, 0.0, det_b / np.maximum(b_norm ** (size - 1), 1e-12))
    out = {"slack": slack, "det_b": det_b, "entropy_table": table}
    if cfg.literal_s is not None:
        # exp(-s (n - 1) S_n) is the s-th power of the proven n >= 2 case; at
        # n = 1 the power is exp(-s S_1)
        weight = cfg.literal_s * max(cfg.n - 1, 1)
        _, scale, eigvals, _ = _gram_spectrum(np.exp(-weight * table))
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
    for split in splits:
        _check_pair_dims(psi, split, split)
    dims = [(s.dim_a, s.dim_b) for s in splits]
    if dims != cfg.dims:
        raise ValueError(f"splits {dims} do not match the configured dims {cfg.dims}")
    mats = np.array([s.matrix for s in splits])
    return _payload(_evaluate_block(cfg, psi.schmidt_values[None], mats[None]), 0)


def _block_trials(cfg: SearchConfig) -> int:
    """The refine descent's cap on proposals per evaluator call: as many
    instances as STACK_ENTRIES pair-matrix entries hold, and at least one."""
    m = len(cfg.dims)
    return max(1, STACK_ENTRIES // (m * (m + 1) // 2 * cfg.dim * cfg.dim))


def _search_block(first: int, block, cfg: SearchConfig) -> tuple:
    """(slacks, violations) of one block of trials (`_sweep_blocks`), its
    first trial `first`: one `_draw_block` call and one `_evaluate_block`
    call.  Payloads, and the eigenbasis unitary they store, are built for
    violating trials only."""
    schmidt, u, eigen = _draw_block(cfg.master_seed, range(first, first + len(block)), block)
    u = u.reshape(len(block), len(cfg.dims), cfg.dim, cfg.dim)
    fields = _evaluate_block(cfg, schmidt, u)
    violations = []
    for k in np.flatnonzero(fields["slack"] < -cfg.tolerance).tolist():
        eigenbasis = unitary_from_ginibre(ginibre_from_parts(eigen[k]))
        _check_unitary(eigenbasis)
        result = _payload(fields, k)
        result["trial"] = first + k
        result["instance"] = _serialize_instance(schmidt[k], eigenbasis, cfg.dims, u[k])
        violations.append(result)
    return fields["slack"], violations


def _run_blocks(task) -> list:
    """The outputs of one pool task (worker, blocks, args), in block order."""
    worker, blocks, args = task
    return [worker(*block, *args) for block in blocks]


def _start_worker(cpus: list, counter) -> None:
    """A pool worker's initializer: an interrupt is the caller's to handle,
    and the k-th worker started (k from the shared `counter`) runs on CPU
    cpus[k % len(cpus)] alone.  With no CPUs (no `os.sched_setaffinity`)
    the worker stays unpinned."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if cpus:
        with counter.get_lock():
            k = counter.value
            counter.value += 1
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})


_POOL = {}  # jobs -> the live executor of jobs workers; at most one entry


def _worker_pool(jobs: int):
    """The process's executor of jobs workers, built on first use and kept
    for later calls; built anew when jobs changes.  The workers pin
    themselves (`_start_worker`) to the CPUs of this process's affinity
    mask as read here, numbered by a shared counter, not a queue: a
    `multiprocessing.Queue` starts a feeder thread, and a fork after that
    is unsafe."""
    if jobs not in _POOL:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _shutdown_pool()
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        _POOL[jobs] = ProcessPoolExecutor(jobs, initializer=_start_worker,
                                          initargs=(cpus, multiprocessing.Value("i", 0)))
    return _POOL[jobs]


@atexit.register
def _shutdown_pool() -> None:
    """Stop and join the executor, if any, dropping tasks not yet started.
    It leaves `_POOL` only once joined, so that no executor forks its
    workers while another's manager thread lives, even when an interrupt
    cut the join short (the next call joins it again)."""
    for jobs, pool in list(_POOL.items()):
        pool.shutdown(wait=True, cancel_futures=True)
        del _POOL[jobs]


def _pool_runs(tasks: list, jobs: int) -> list:
    """The outputs of every task, in order, each run by the process's
    executor (`_worker_pool`) while this process waits.  Every task ends
    before a task's exception, the first in task order, is raised here; an
    interrupt in the wait cancels the tasks not yet started and waits for
    the running ones before it is raised.  An executor that breaks (a
    worker died) is replaced, and the new one runs this call's tasks again,
    once."""
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    def submit():
        pool = _worker_pool(jobs)
        return [pool.submit(_run_blocks, task) for task in tasks]

    def results(futures):
        try:
            wait(futures)
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        return [future.result() for future in futures]

    try:
        futures = submit()
    except RuntimeError:  # BrokenProcessPool, or an executor already shut down
        _shutdown_pool()
        futures = submit()
    try:
        return results(futures)
    except BrokenProcessPool:
        _shutdown_pool()
        return results(submit())


def _pool_map(worker, blocks: list, jobs: int, *args) -> tuple:
    """worker(*block, *args) on each block, merged in block order: the one
    merge of block results.  Of the output tuples, array fields are
    concatenated along their first axis and list fields joined.

    Runs of ceil(len(blocks) / jobs) blocks are one task each.  One task
    (jobs = 1, or a single block) runs in this process; more run on the
    process's executor of jobs pinned workers (`_pool_runs`) while this
    process waits.
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

    The trials are cut into blocks up front by the sweep's planner
    (`_sweep_blocks`), and `_pool_map` runs and merges them.  Each trial
    derives its own stream from (master_seed, trial index), so any block
    boundaries and any `jobs` give the identical report.  Exhausting the
    budget without a violation is a normal outcome, reported with the trial
    count; with refine_iterations > 0 a seeded descent then pushes the best
    sweep instance toward the violating region.
    """
    blocks = [(cfg.trial_offset + start, block)
              for start, block in _sweep_blocks([cfg.dims] * cfg.trials, jobs)]
    slacks, violations = _pool_map(_search_block, blocks, jobs, cfg)
    min_slack, best, quantiles = summarize(slacks)
    min_trial = cfg.trial_offset + best
    report = SearchReport(config=cfg, trials_run=cfg.trials, violations=violations,
                          min_slack=float(min_slack), min_slack_trial=min_trial,
                          slack_quantiles=quantiles)
    if not violations and cfg.refine_iterations > 0:
        refined, report.refine_used, report.refine_counters = _refine(cfg, min_trial)
        if refined is not None:
            violations.append(refined)
            report.min_slack = float(min(min_slack, refined["slack"]))
    return report


def _refine(cfg: SearchConfig, start_trial: int):
    """Stochastic descent from a sweep instance into the violating region.

    Moves perturb the spectrum in the log simplex or rotate one split by a
    random small unitary; only improvements are kept and the move scale
    (REFINE_SCALE) shrinks after 300 rejections in a row.  The state
    eigenbasis is irrelevant to every target (only the spectrum and the
    splits enter), so it is never built and the payload stores the identity.

    Proposals are pre-fetched.  A proposal's draws do not depend on the
    state, and under rejection the stall count, the shrink and the
    REFINE_FLOOR skip are deterministic, so a block of proposals is drawn
    from the current state as if each were rejected.  Their rotations take
    one stacked `eigh` and one unitarity check, and the block one
    `_evaluate_block` call.  The first proposal that improves is accepted:
    the generator, the scale and the iteration count rewind to just after
    it, so the trajectory is the sequential one-at-a-time descent's to the
    last bit, for any block size.  A block holds REFINE_BLOCK proposals,
    or `_block_trials` if fewer: a call costs a fixed overhead plus a
    little per proposal, and proposals past an accept are discarded, so a
    short constant block trades the two off: blocks of 8, 12 and 16 ran the
    seed-7 det-B descents equally fast (27-32 ms for 138 steps, 103-109 ms
    for 804; medians of 15 runs, one BLAS thread, 2 shared cores).

    Returns (violation payload once the slack clears -10 * tolerance, else
    None; iterations used; counters keyed as REFINE_COUNTERS).
    """
    rng = trial_rng(cfg.master_seed, cfg.trial_offset + cfg.trials)
    lam, betas, _ = _draw_block(cfg.master_seed, [start_trial], [cfg.dims])
    lam, m, d, size = lam[0], len(betas), cfg.dim, min(REFINE_BLOCK, _block_trials(cfg))
    counters = dict.fromkeys(REFINE_COUNTERS, 0)
    cur_slack = _evaluate_block(cfg, lam[None], betas[None])["slack"][0]
    target_slack = -10.0 * cfg.tolerance
    scale, stall, it = REFINE_SCALE, 0, 0
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
                if lam_new.min() < REFINE_FLOOR:
                    continue
            else:
                h = ginibre(d, rng)
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
                  tol: float = PSD_RELATIVE_TOL, jobs: int = 1) -> SweepResult:
    """PSD sweep of integer-index Gram matrices over random instances.

    dims_by_instance: iterable of split-dimension lists, one instance each,
    numbered from 0.  Every n must be an integer >= 1, and every (instance,
    n) pair must come out PSD within -tol * ||G||; any violation is
    collected (a numerics bug, not physics).  The plan is validated and
    cut into blocks of equal estimated cost once, here (`_sweep_blocks`);
    `_pool_map` runs the blocks (`_sweep_block`) and merges them, in this
    process when jobs = 1 or the plan is under the one-block floor.
    Instance streams make the result the same to the last bit for any block
    boundaries and any `jobs`; the worst check is the first one at the
    minimum, in instance and then n order.
    """
    n_values = [_check_renyi_order(n, integer=True) for n in n_values]
    tol = _check_tolerance(tol, "tol")
    blocks = _sweep_blocks(dims_by_instance, jobs)
    min_eigs, scales, violations = _pool_map(_sweep_block, blocks, jobs, n_values,
                                             master_seed, tol)
    dims = [splits for _, block in blocks for splits in block]
    normalized = min_eigs / scales
    result = SweepResult(instances=len(dims), checks=normalized.size,
                         min_normalized_eig=math.inf, worst={}, violations=violations)
    if normalized.size:
        k, c = np.unravel_index(np.argmin(normalized), normalized.shape)
        result.min_normalized_eig = float(normalized[k, c])
        result.worst = {"instance": int(k), "n": n_values[c],
                        "dims": list(dims[k]), "min_eigenvalue": float(min_eigs[k, c]),
                        "scale": float(scales[k, c])}
    return result


# an alias kept for the benchmark only (perfbench/tracer.py patches it, and
# the sweep workload calls it); the package calls theorem_sweep
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
    length.  An empty plan, or jobs below 1, raises ValueError.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    plan, seen, raw = [], {}, None
    for dims in dims_by_instance:
        if dims is not raw:  # a run of one object, as a search's trials are, is keyed once
            raw, key = dims, tuple(map(tuple, dims))
            checked = seen[key] = seen.get(key) or tuple(_validated_dims(dims))
        plan.append(checked)  # each distinct dims is validated once, and shares one tuple
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

    Per d, one `_draw_block` call draws the instances and their Haar
    splits, so an instance is the search's and the same in any block; one
    `_pair_tables` call follows, whose pools reduce pair Gram matrices to
    their trace powers per n (`_gram_traces`, no spectrum).  Then come the
    verdicts per subsystem count.
    """
    by_d = defaultdict(list)  # d -> block indices
    for idx, splits in enumerate(block):
        by_d[splits[0][0] * splits[0][1]].append(idx)

    tables, order = [], []
    for idx in by_d.values():
        dims = tuple(block[k] for k in idx)
        lam, u, _ = _draw_block(master_seed, [first + k for k in idx], dims)
        order += idx
        tables.append(_pair_tables(lam, u, dims, lambda m: _gram_traces(m, n_values)))
    # each instance's Gram entries are a row-major m x m run of `entries`
    entries = np.concatenate(tables, axis=-1)
    sizes = np.array([len(dims) for dims in block])
    starts = np.empty_like(sizes)
    starts[order] = np.cumsum(sizes[order] ** 2) - sizes[order] ** 2

    min_eigs = np.empty((len(block), len(n_values)))
    scales = np.empty_like(min_eigs)
    violations = []
    for m in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == m)
        g = entries[:, starts[members][:, None] + np.arange(m * m)]
        g, scale, eigvals, _ = _gram_spectrum(
            g.reshape(-1, len(members), m, m).swapaxes(0, 1))
        min_eigs[members] = eigvals[..., 0]
        scales[members] = scale
        violations += [{"instance": first + int(members[r]), "n": n_values[c],
                        "dims": list(block[members[r]]), "gram": g[r, c].tolist(),
                        "min_eigenvalue": float(eigvals[r, c, 0])}
                       for r, c in zip(*np.nonzero(eigvals[..., 0] / scale < -tol))]
    # by instance; a stable sort keeps each instance's n order
    return min_eigs, scales, sorted(violations, key=lambda v: v["instance"])
