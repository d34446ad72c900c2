"""Gram matrices of reflected-entropy exponentials, positivity checks,
infinite-divisibility conditions, and the randomized counterexample search.

For integer Renyi index n the Gram matrix of tr(rho_{A_i Abar_j}^n) is
positive semidefinite in any quantum system; the extension to the entropy
case (n -> 1) and to fractional entrywise powers (s -> 0: the second
differences B >= 0, through the one `_gram_spectrum` verdict) can fail,
and the search hunts for such violating instances.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import os
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .modular import (PurifiedState, _check_count, _check_hermitian, _check_renyi_order,
                      _check_tolerance, _check_weight)
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
# the det-B slack (`_divisibility`: the schur_s_fraction target's and a
# DivisibilityRecord's) is exactly 0 when B is zero to working precision:
# ||B||_2 <= DETB_ZERO_ULPS * size^2 * eps * max(1, max |S|), size^2 the
# table's entry count.  On trivial splits (2-5 of 1x4, 4x1, 1x9,
# 1x16 or 1x64, 2-3 of 16x1; 200 seed-42 instances each), whose entropies
# are 0 in exact arithmetic, ||B||_2 came to at most 12.8 eps max(1, max |S|);
# on 2x2 and 2x3 tables of two and three splits, at least 2.7e14 eps
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
# (`_pair_tables`) holds this many pair-matrix entries, gathered from the
# call's weighted split stack and its conjugate, each made once per call:
# 256 pairs at d = 4, one pair, read as views, at d = 64.  A run is reduced
# as it is built, and its k x k Ms (k <= d) fit too.  A Haar-step run
# (`_draw_block`) holds this many split entries.  At 64 KB per complex
# temporary a step stays in cache and below the allocator's mapping
# threshold, so its memory is reused, not faulted in afresh.  The refine
# descent evaluates at most as many proposals at once as fit in one build
# run (`_block_trials`).
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
    """The stack a (..., m, m), m >= 1, symmetrized as a float array once each
    matrix is symmetric within SYMMETRY_TOL of max(1, its largest |entry|);
    raises naming `what` otherwise (ValueError for a bad shape).  NaN and inf fail."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"{what} must be square, of size >= 1; got shape {a.shape}")
    _check_hermitian(a, SYMMETRY_TOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1))), what)
    return 0.5 * (a + a.swapaxes(-1, -2))


def _gram_spectrum(g):
    """The one PSD verdict: (symmetrized g, scale max(||g||_2, tiny), eigenvalues
    ascending, eigenvectors); a relative asymmetry above SYMMETRY_TOL raises.

    ||g||_2 of the symmetric g is its largest |eigenvalue|.  Leading axes of
    g (..., m, m) are a stack, and every output gains the same axes.
    """
    g = _check_symmetric(g, "Gram matrix")
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
    """Flat table (sum of m^2,) of a pair reduction over a flat stack of
    instances shaped as `dims` (`_pair_plan`): Schmidt values (N, d) and
    split matrices (S, d, d).  Each split is weighted by lam^{1/4} of its
    instance (`_split_weights`) and conjugated once per call, however many
    pairs it enters.

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
    unit-trace gate (`_check_pair_traces`) checks the run's Ms, naming the
    first offender in plan order, before reduce(M stack (run, k, k)) gives
    values (run,), which may gain axes in front of the run axis; the table
    gains them too.  Each M is reduced alone, so the table is the same for
    any run length.
    """
    ops = np.empty((2,) + mats.shape, dtype=complex)
    left, right = ops
    weights = np.repeat(_split_weights(schmidt), [len(splits) for splits in dims], axis=0)
    np.multiply(weights, mats, out=left)
    np.conjugate(left, out=right)
    table, size = None, max(1, STACK_ENTRIES // mats.shape[-1] ** 2)
    for (dims_i, dims_j), i, j, ij, ji in _pair_plan(dims, size):
        m = _pair_gram(left[i], right[j], dims_i, dims_j)
        _check_pair_traces(np.trace(m, axis1=-2, axis2=-1).real)
        values = reduce(m)
        if table is None:
            table = np.empty(values.shape[:-1] + (sum(len(s) ** 2 for s in dims),))
        table[..., ij] = table[..., ji] = values
    return table


def _pair_entropies(m: np.ndarray, n: int) -> np.ndarray:
    """S_n(A_i Abar_j) of a stack of pair Gram matrices M (`_pair_gram`),
    with no SVD: von Neumann (n = 1) from `eigvalsh` of M
    (`_gram_eigenvalues`), an integer n >= 2 as -log(tr rho^n) / (n - 1)
    from the trace powers (`_gram_traces`) integer_n takes as Gram entries."""
    if n == 1:
        return _entropies(_gram_eigenvalues(m), 1)
    return -np.log(_gram_traces(m, (n,))[0]) / (n - 1)


def _instance_table(psi: PurifiedState, splits: list[SubsystemSplit], reduce) -> np.ndarray:
    """The (..., m, m) table of one instance's splits under a pair reduction:
    `_pair_tables` on a one-instance stack.  An empty split list raises."""
    if not splits:
        raise ValueError("a table needs at least one subsystem split")
    for split in splits:
        _check_pair_dims(psi, split, split)
    dims = tuple((split.dim_a, split.dim_b) for split in splits)
    mats = np.array([split.matrix for split in splits])
    table = _pair_tables(psi.schmidt_values[None], mats, (dims,), reduce)
    return table.reshape(table.shape[:-1] + (len(splits),) * 2)


def entropy_table(psi: PurifiedState, splits: list[SubsystemSplit], n: int) -> np.ndarray:
    """Table of S_n(A_i Abar_j) over all split pairs: von Neumann from the pair
    spectra for n = 1, -log(tr rho^n) / (n - 1) from trace powers (no
    spectrum) for n >= 2 (`_pair_entropies`)."""
    n = _check_renyi_order(n, integer=True)
    return _instance_table(psi, splits, functools.partial(_pair_entropies, n=n))


def gram_matrix(psi: PurifiedState, splits: list[SubsystemSplit], n: int,
                lam: float | None = None) -> GramRecord:
    """Assemble the Gram record for the given splits and Renyi index.

    lam defaults to n - 1, the proven case: the entries are the trace powers
    G = tr(rho^n) of the integer_n target's `_gram_traces` ladder, its Gram
    to the bit.  Other values, exp(-lam S_n) with S_n = -log(G) / (n - 1),
    are experimental search targets.  For n = 1 the trace entries are
    trivially 1, so lam must be supplied, and S_1 takes the pair spectra."""
    n = _check_renyi_order(n, integer=True)
    if lam is None:
        if n == 1:
            raise ValueError("n = 1 requires an explicit lam (entries e^{-lam S})")
        lam = n - 1
    lam = _check_weight(lam, "lam")
    if n == 1:
        table = entropy_table(psi, splits, n)
        return GramRecord(n=n, lam=lam, entries=np.exp(-lam * table), entropy_table=table)
    gram = _instance_table(psi, splits, functools.partial(_gram_traces, n_values=(n,)))[0]
    table = -np.log(gram) / (n - 1)
    entries = gram if lam == n - 1 else np.exp(-lam * table)
    return GramRecord(n=n, lam=lam, entries=entries, entropy_table=table)


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
    """Second-difference matrix of an entropy table, its verdict and its determinant.

    B_ij = S(A_i Abar_{j+1}) + S(A_{i+1} Abar_j) - S(A_i Abar_j)
           - S(A_{i+1} Abar_{j+1}); B >= 0 is the lam -> 0 limit of the Gram
    inequalities (infinite divisibility, Schoenberg).  Its verdict is
    `slack`, the search's schur_s_fraction slack to the bit (negative = a
    violation, which the search counts past its tolerance).  det B is data
    only.

    det B and B's inertia do not depend on the subsystem ordering: B is
    -D S D^T (D the difference operator), and a permutation P gives D P = M D
    with M integral and unimodular, so B becomes M B M^T, det M = +-1.
    """

    b_matrix: np.ndarray
    det_b: float
    slack: float


def _second_differences(s: np.ndarray) -> np.ndarray:
    """B of the (..., m+1, m+1) tables s; leading axes are a stack."""
    return s[..., :-1, 1:] + s[..., 1:, :-1] - s[..., :-1, :-1] - s[..., 1:, 1:]


def _divisibility(entropy_table) -> tuple:
    """The one det-B route: (symmetrized tables, B, det B, slack) of the
    entropy tables (..., m+1, m+1), once they are square, of size >= 2 and
    symmetric within SYMMETRY_TOL; leading axes are a stack.

    B of the symmetrized tables is symmetric and takes the one
    `_gram_spectrum` verdict, slack lambda_min(B) / ||B||_2, except that a B
    zero to working precision (DETB_ZERO_ULPS) has slack 0: its spectrum is
    roundoff, which the normalization would blow up to order 1.
    """
    s = _check_symmetric(entropy_table, "entropy table")
    if s.shape[-1] < 2:
        raise ValueError("entropy table must be square with size >= 2")
    b = _second_differences(s)
    _, scale, eigvals, _ = _gram_spectrum(b)
    zero_b = scale <= (DETB_ZERO_ULPS * s.shape[-1] ** 2 * np.finfo(float).eps
                       * np.maximum(1.0, np.abs(s).max(axis=(-2, -1))))
    return s, b, np.linalg.det(b), np.where(zero_b, 0.0, eigvals[..., 0] / scale)


def divisibility_matrix(entropy_table: np.ndarray) -> DivisibilityRecord:
    """The m x m record of an (m+1) x (m+1) table, by the search's route."""
    _, b, det_b, slack = _divisibility(entropy_table)
    return DivisibilityRecord(b_matrix=b, det_b=float(det_b), slack=float(slack))


def _validated_dims(dims) -> list:
    """One (d_A, d_B) pair of counts >= 1 per subsystem: at least two, one product d."""
    dims = [(_check_count(a, "dims", 1), _check_count(b, "dims", 1)) for a, b in dims]
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
            'schur_s_fraction' (the s -> 0 limit: the second-difference
            matrix B must be PSD, slack lambda_min(B) / ||B||_2; n = 1 is
            the entropy table of the divisibility inequalities, n >= 2
            tests fractional powers of the proven integer-index case).
    tolerance: the slack a violation must clear; finite, negative allowed.
    lam: entropy_n1's exponent weight, > 0 and finite (refused otherwise,
    whatever the target).
    n: the Renyi index; entropy_n1 takes n = 1 only.
    literal_s: a fractional entrywise power s > 0 checked alongside B:
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
    refine_iterations: int = 0

    def __post_init__(self):
        self.trials = _check_count(self.trials, "trials", 1)
        self.master_seed = _check_count(self.master_seed, "master_seed", 0)
        self.refine_iterations = _check_count(self.refine_iterations, "refine_iterations", 0)
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


def _draw_single(master_seed: int, trial: int, dims) -> tuple:
    """(descending Schmidt values (d,), checked eigenbasis unitary (d, d),
    split unitaries (m, d, d)) of instance `trial` split as dims: a
    one-instance `_draw_block`, its eigenbasis built and checked."""
    lam, u, eigen = _draw_block(master_seed, [trial], [dims])
    eigenbasis = unitary_from_ginibre(ginibre_from_parts(eigen[0]))
    _check_unitary(eigenbasis)
    return lam[0], eigenbasis, u


def _draw_instance(cfg: SearchConfig, trial: int):
    lam, eigenbasis, u = _draw_single(cfg.master_seed, trial, cfg.dims)
    psi = PurifiedState(dim=cfg.dim, schmidt_values=lam, eigenbasis=eigenbasis)
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


def _reduction(cfg: SearchConfig, n_values: tuple):
    """The pair reduction of cfg's target (`_pair_tables`): for integer_n
    the trace powers tr rho^n of every index in n_values, from one
    `_gram_traces` ladder; otherwise the S_n entropies (`_pair_entropies`)."""
    return (functools.partial(_gram_traces, n_values=n_values) if cfg.target == "integer_n"
            else functools.partial(_pair_entropies, n=cfg.n))


def _verdict(cfg: SearchConfig, tables: np.ndarray) -> dict:
    """The configured inequality on stacked tables of its pair reduction
    (`_reduction`): entropy tables (N, m, m) or integer_n's trace powers
    (c, N, m, m), a table per index.  Returns the report fields as arrays by
    check, "slack" (normalized, negative = violation) first; a check is an
    instance, or integer_n's (instance, index) pair, by instance then index.
    """
    if cfg.target == "schur_s_fraction":
        # infinite divisibility, the s -> 0 limit, holds iff B is PSD
        # (Schoenberg), so B takes the one verdict; det B is report data
        table, _, det_b, slack = _divisibility(tables)
        out = {"slack": slack, "det_b": det_b, "entropy_table": table}
        if cfg.literal_s is not None:
            # exp(-s (n - 1) S_n) is the s-th power of the proven n >= 2
            # case; at n = 1 the power is exp(-s S_1)
            weight = cfg.literal_s * max(cfg.n - 1, 1)
            _, scale, eigvals, _ = _gram_spectrum(np.exp(-weight * table))
            out["literal_s_min_eigenvalue"] = eigvals[:, 0]
            out["literal_s_slack"] = eigvals[:, 0] / scale
        return out
    # integer_n, the proven case, takes the trace powers as its Gram entries;
    # entropy_n1 weighs von Neumann entropies by lam
    if cfg.target == "integer_n":
        gram, fields = tables.swapaxes(0, 1).reshape((-1,) + tables.shape[-2:]), {}
    else:
        gram, fields = np.exp(-cfg.lam * tables), {"entropy_table": tables}
    gram, scale, eigvals, _ = _gram_spectrum(gram)
    return {"slack": eigvals[:, 0] / scale, "gram": gram, **fields,
            "min_eigenvalue": eigvals[:, 0], "scale": scale}


def _evaluate_block(cfg: SearchConfig, schmidt: np.ndarray, mats: np.ndarray) -> dict:
    """`_verdict` on a block of instances, Schmidt values (N, d) and unitary
    split matrices (N, m, d, d) split as cfg.dims, through one `_pair_tables`
    call; integer_n checks cfg.n alone, so a check is an instance."""
    (count, m), d = mats.shape[:2], cfg.dim
    table = _pair_tables(schmidt, mats.reshape(-1, d, d), (tuple(cfg.dims),) * count,
                         _reduction(cfg, (cfg.n,)))
    return _verdict(cfg, table.reshape(table.shape[:-1] + (count, m, m)))


def _payload(fields: dict, k: int, n: int) -> dict:
    """The result dict of check k, at Renyi index n, of a `_verdict` output
    but for its scale (the sweep's worst check reads it); integer_n's adds
    S_n = -log(G) / (n - 1) of its trace-power Gram G as report data."""
    result = {key: value[k].tolist() for key, value in fields.items() if key != "scale"}
    if "entropy_table" not in fields:
        result["entropy_table"] = (-np.log(fields["gram"][k]) / (n - 1)).tolist()
    return result


def _evaluate_target(cfg: SearchConfig, psi: PurifiedState,
                     splits: list[SubsystemSplit]) -> dict:
    """Normalized slack of the configured inequality (negative = violation)
    on one instance, whose splits must be shaped as cfg.dims (`_instance_table`)."""
    dims = [(s.dim_a, s.dim_b) for s in splits]
    if dims != cfg.dims:
        raise ValueError(f"splits {dims} do not match the configured dims {cfg.dims}")
    table = _instance_table(psi, splits, _reduction(cfg, (cfg.n,)))
    return _payload(_verdict(cfg, table[..., None, :, :]), 0, cfg.n)


def _block_trials(cfg: SearchConfig) -> int:
    """The refine descent's cap on proposals per evaluator call: as many
    instances as STACK_ENTRIES pair-matrix entries hold, and at least one."""
    m = len(cfg.dims)
    return max(1, STACK_ENTRIES // (m * (m + 1) // 2 * cfg.dim * cfg.dim))


def _plan_block(first: int, block, cfg: SearchConfig, n_values: tuple) -> tuple:
    """The 1-D `_verdict` fields by check ("slack" first; integer_n checks
    every index of n_values), then the payloads of the checks below
    -cfg.tolerance, with trial and instance, of one block of a plan
    (`_sweep_blocks`), its first instance `first`, split as its entries.
    Per d, one `_draw_block` and one `_pair_tables` call, whose reduction
    the target sets (`_reduction`); per subsystem count, one `_verdict`.  A
    violating instance is drawn again, once, for its payloads (a draw is
    the same in any block)."""
    sizes = np.array([len(dims) for dims in block])
    by_d = defaultdict(list)  # d -> block indices
    for k, dims in enumerate(block):
        by_d[dims[0][0] * dims[0][1]].append(k)
    reduce, tables, order = _reduction(cfg, n_values), [], []
    for idx in by_d.values():
        dims = tuple(block[k] for k in idx)
        schmidt, u, _ = _draw_block(cfg.master_seed, [first + k for k in idx], dims)
        tables.append(_pair_tables(schmidt, u, dims, reduce))
        order += idx
    # each instance's table is a row-major m x m run of `entries`
    entries = np.concatenate(tables, axis=-1)
    starts = np.empty_like(sizes)
    starts[order] = np.cumsum(sizes[order] ** 2) - sizes[order] ** 2
    per = len(n_values) if cfg.target == "integer_n" else 1  # checks per instance
    checks, violations, instances = {}, [], {}  # instances: block index -> serialized
    for m in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == m)
        table = entries[..., starts[members][:, None] + np.arange(m * m)]
        fields = _verdict(cfg, table.reshape(table.shape[:-1] + (m, m)))
        rows = (members[:, None] * per + np.arange(per)).ravel()
        for key, value in fields.items():
            if value.ndim == 1:
                checks.setdefault(key, np.empty(len(block) * per))[rows] = value
        for r in np.flatnonzero(fields["slack"] < -cfg.tolerance).tolist():
            k, c = divmod(int(rows[r]), per)
            if k not in instances:
                schmidt, eigenbasis, u = _draw_single(cfg.master_seed, first + k, block[k])
                instances[k] = _serialize_instance(schmidt, eigenbasis, block[k], u)
            violations.append(dict(_payload(fields, r, n_values[c]), trial=first + k,
                                   instance=instances[k]))
    # by trial; a stable sort keeps each trial's index order
    return (*checks.values(), sorted(violations, key=lambda v: v["trial"]))


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

    The trials are cut into blocks up front (`_sweep_blocks`), and
    `_pool_map` runs them through the one block worker (`_plan_block`,
    integer_n at cfg.n alone) and merges them.  Each trial,
    numbered from 0, derives its own stream from (master_seed, trial index),
    so any block boundaries and any `jobs` give the identical report.
    Exhausting the budget without a violation is a normal outcome, reported
    with the trial count; with refine_iterations > 0 a seeded descent then
    pushes the best sweep instance toward the violating region.
    """
    jobs = _check_count(jobs, "jobs", 1)  # _pool_map takes the int
    blocks = _sweep_blocks([cfg.dims] * cfg.trials, jobs)
    slacks, *_, violations = _pool_map(_plan_block, blocks, jobs, cfg, (cfg.n,))
    min_slack, min_trial, quantiles = summarize(slacks)
    report = SearchReport(config=cfg, trials_run=cfg.trials, violations=violations,
                          min_slack=min_slack, min_slack_trial=min_trial,
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
    rng = trial_rng(cfg.master_seed, cfg.trials)
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
            result = _payload(fields, k, cfg.n)
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
    slacks: list = field(default_factory=list)


def _check_theorem_index(n) -> int:
    """A Renyi index of the theorem sweep as an int: an integer n >= 2.  At
    n = 1 every trace entry is tr rho = 1, an all-ones Gram matrix that
    checks nothing."""
    n = _check_renyi_order(n, integer=True)
    if n < 2:
        raise ValueError(f"the theorem sweep needs Renyi indices n >= 2, got {n}")
    return n


def theorem_sweep(dims_by_instance, n_values, master_seed: int,
                  tol: float = PSD_RELATIVE_TOL, jobs: int = 1) -> SweepResult:
    """PSD sweep of integer-index Gram matrices over random instances: the
    search's integer_n target (`_plan_block`) over a plan, at every index
    of n_values, each an integer n >= 2 (`_check_theorem_index`).

    dims_by_instance lists split dims, one instance each, numbered from 0.
    Every (instance, n) check must come out PSD within -tol * ||G||; a
    violation is collected (a numerics bug, not physics).  The plan is
    validated and cut into blocks once (`_sweep_blocks`), so the result is
    the same to the last bit for any `jobs`.  `slacks` holds each instance's
    row of normalized slacks by n; the worst check is the first at their
    minimum, in instance and then n order.
    """
    n_values = tuple(_check_theorem_index(n) for n in n_values)
    if not n_values:
        raise ValueError("the theorem sweep needs at least one Renyi index")
    tol = _check_tolerance(tol, "tol")
    jobs = _check_count(jobs, "jobs", 1)  # _pool_map takes the int
    blocks = _sweep_blocks(dims_by_instance, jobs)
    dims, per = [splits for _, block in blocks for splits in block], len(n_values)
    # gates master_seed; cfg.dims is unread (each instance is split as its entry)
    cfg = SearchConfig(dims=dims[0], trials=len(dims), master_seed=master_seed,
                       target="integer_n", tolerance=tol, n=n_values[0])
    slack, min_eigs, scales, payloads = _pool_map(_plan_block, blocks, jobs, cfg, n_values)
    violations = [{"instance": p["trial"], "n": n_values[q % per], "dims": list(dims[p["trial"]]),
                   "gram": p["gram"], "min_eigenvalue": p["min_eigenvalue"]}
                  for q, p in zip(np.flatnonzero(slack < -tol).tolist(), payloads)]
    q = int(np.argmin(slack))
    k, c = divmod(q, per)
    worst = {"instance": k, "n": n_values[c], "dims": list(dims[k]),
             "min_eigenvalue": float(min_eigs[q]), "scale": float(scales[q])}
    return SweepResult(instances=len(dims), checks=slack.size, min_normalized_eig=float(slack[q]),
                       worst=worst, violations=violations, slacks=slack.reshape(-1, per).tolist())


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
    length.  An empty plan, or jobs not an integer >= 1, raises ValueError.
    """
    jobs = _check_count(jobs, "jobs", 1)
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
