"""Exact free massless fermion results on a spatial line: multi-interval
entropy, the correlator product/permanent identity, and the vertex-operator
(free scalar) representation that makes the entropy exponentials infinitely
divisible.

All correlator work is done in log space; products of many point separations
underflow long before the entropies lose accuracy.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .modular import _check_weight
from .positivity import GramRecord, _gram_spectrum

# below this separation the correlator singularities take over and the
# entropy is not defined; error out rather than regularize
MIN_SEPARATION = 1e-9
MAX_WICK_COMPONENTS = 8
# factors one stacked Wick chunk gathers (4 MB); one set at p = 8 takes 322,560
WICK_CHUNK_ENTRIES = 1 << 19


class IntervalError(ValueError):
    """Interval set fails ordering/separation requirements."""


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint intervals (a_1,b_1),...,(a_p,b_p) with a_i < b_i < a_{i+1}."""

    lefts: np.ndarray
    rights: np.ndarray
    cutoff: float = 1.0

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.lefts, dtype=float))
        b = np.atleast_1d(np.asarray(self.rights, dtype=float))
        if a.shape != b.shape or a.ndim != 1 or a.size == 0:
            raise IntervalError("lefts and rights must be equal-length 1-D sequences")
        object.__setattr__(self, "lefts", a)
        object.__setattr__(self, "rights", b)
        _check_endpoints(self.points, self.cutoff)

    @classmethod
    def _gated(cls, lefts: np.ndarray, rights: np.ndarray, cutoff: float) -> "IntervalSet":
        """A set from 1-D float endpoints that already passed _check_endpoints."""
        self = object.__new__(cls)
        vars(self).update(lefts=lefts, rights=rights, cutoff=cutoff)
        return self

    @classmethod
    def from_pairs(cls, pairs, cutoff: float = 1.0) -> "IntervalSet":
        pairs = sorted((float(a), float(b)) for a, b in pairs)
        return cls(lefts=np.array([p[0] for p in pairs]),
                   rights=np.array([p[1] for p in pairs]), cutoff=cutoff)

    @property
    def num_intervals(self) -> int:
        return self.lefts.size

    @property
    def points(self) -> np.ndarray:
        """a_1, b_1, a_2, b_2, ..."""
        return np.stack([self.lefts, self.rights], axis=-1).ravel()


def _check_endpoints(points: np.ndarray, cutoff) -> None:
    """The IntervalSet invariant on every row of the (..., 2p) endpoints a_1,
    b_1, ..., a_p, b_p: strictly increasing with separation >= MIN_SEPARATION
    (NaN fails), and a positive cutoff."""
    if not np.all(points[..., 1:] - points[..., :-1] >= MIN_SEPARATION):
        raise IntervalError(
            "endpoints must be strictly increasing with separation "
            f">= {MIN_SEPARATION:g} (coincident points are singular)")
    if not cutoff > 0:
        raise IntervalError("cutoff must be positive")


def random_endpoints(rng: np.random.Generator, components: tuple, lo: float, hi: float,
                     gap: float) -> list:
    """Sorted endpoints a_1, b_1, ..., a_p, b_p of one random set, as floats:
    p = rng.integers(*components), then 2p points rng.uniform(lo, hi), drawn
    again while two neighbours are less than `gap` apart."""
    size = 2 * int(rng.integers(*components))
    while True:
        points = sorted(rng.uniform(lo, hi, size).tolist())
        if min(map(operator.sub, points[1:], points)) >= gap:
            return points


def interval_sets(rows, cutoff: float = 1.0) -> list[IntervalSet]:
    """IntervalSet(lefts=row[0::2], rights=row[1::2], cutoff=cutoff) of every
    row of endpoints a_1, b_1, ..., a_p, b_p, checked by one endpoint gate per
    stack of rows with the same p rather than one per set."""
    by_length, sets = defaultdict(list), [None] * len(rows)
    for k, row in enumerate(rows):
        by_length[len(row)].append(k)
    for length, members in by_length.items():
        if length == 0 or length % 2:
            raise IntervalError("a row must hold 2p > 0 endpoints a_1, b_1, ..., a_p, b_p")
        points = np.array([rows[k] for k in members], dtype=float)
        _check_endpoints(points, cutoff)
        for k, lefts, rights in zip(members, points[:, 0::2], points[:, 1::2]):
            sets[k] = IntervalSet._gated(lefts, rights, cutoff)
    return sets


@functools.lru_cache(maxsize=None)
def _upper_triangle(p: int) -> tuple:
    """np.triu_indices(p, k=1), read-only because every caller shares it."""
    rows, cols = np.triu_indices(p, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _entropy_terms(a: np.ndarray, b: np.ndarray, log_cutoff) -> tuple:
    """(entropy, log Cauchy correlator) of each row of the (..., p) endpoint
    arrays, from one pass over the separations sum_{i,j} log|a_i - b_j|,
    sum_{i<j} log|a_i - a_j| and sum_{i<j} log|b_i - b_j|."""
    p = a.shape[-1]
    rows, cols = _upper_triangle(p)

    def same(x):  # np.take keeps the pairs C-ordered, so each row sums as one set would
        return np.sum(np.log(np.abs(np.take(x, rows, -1) - np.take(x, cols, -1))), axis=-1)

    cross, same_a, same_b = (np.sum(np.log(np.abs(a[..., :, None] - b[..., None, :])),
                                    axis=(-2, -1)), same(a), same(b))
    return ((cross - same_a - same_b - p * log_cutoff) / 6.0,
            same_a + same_b - cross - p * math.log(2.0 * math.pi))


def entropy(intervals: IntervalSet) -> float:
    """Multi-interval entanglement entropy of the chiral massless fermion.

    S = (1/6) [ sum_{i,j} log|a_i - b_j| - sum_{i<j} log|a_i - a_j|
                - sum_{i<j} log|b_i - b_j| - p log(eps) ]
    """
    return float(_entropy_terms(intervals.lefts, intervals.rights,
                                math.log(intervals.cutoff))[0])


def log_correlator_cauchy(intervals: IntervalSet) -> float:
    """Log of the closed-form field correlator over the interval endpoints.

    log [ (2 pi)^{-p} prod_{i<j}|a_i-a_j| prod_{i<j}|b_i-b_j| / prod_{i,j}|a_i-b_j| ]
    """
    return float(_entropy_terms(intervals.lefts, intervals.rights,
                                math.log(intervals.cutoff))[1])


def correlator_cauchy(intervals: IntervalSet) -> float:
    return math.exp(log_correlator_cauchy(intervals))


def correlator_wick(intervals: IntervalSet) -> float:
    """Permutation-sum (Wick) evaluation of the same correlator.

    (-1)^p (2 pi)^{-p} sum_P sign(P) prod_i 1/(a_i - b_{P(i)}).  Factorial
    cost; independent oracle for the product formula at small p.
    """
    return float(_wick_correlators(intervals.lefts[None], intervals.rights[None])[0])


def _wick_correlators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """correlator_wick of every row of the (N, p) endpoint arrays.

    A row's terms are left-to-right products taken in itertools order and
    summed in that order (a cumulative sum, never pairwise), so a row is the
    same in any stack.  A chunk of sets gathers at most WICK_CHUNK_ENTRIES
    factors, or one set's.
    """
    count, p = a.shape
    if p > MAX_WICK_COMPONENTS:
        raise IntervalError(f"permutation sum limited to {MAX_WICK_COMPONENTS} intervals")
    perms, signs = _signed_permutations(p)
    inv = 1.0 / (a[:, :, None] - b[:, None, :])
    per_chunk = max(1, WICK_CHUNK_ENTRIES // perms.size)
    totals = np.empty(count)
    for k in range(0, count, per_chunk):
        terms = np.prod(inv[k:k + per_chunk][:, np.arange(p), perms], axis=-1) * signs
        totals[k:k + per_chunk] = np.cumsum(terms, axis=1)[:, -1]
    return (-1.0) ** p / (2.0 * math.pi) ** p * totals


@functools.lru_cache(maxsize=None)
def _signed_permutations(p: int) -> tuple:
    """Every permutation of range(p), in itertools order, as a read-only
    (p!, p) array, and its sign (-1) ** inversions as floats."""
    perms = np.array(list(itertools.permutations(range(p))), dtype=np.intp).reshape(-1, p)
    rows, cols = _upper_triangle(p)
    signs = 1.0 - 2.0 * (np.sum(perms[:, rows] > perms[:, cols], axis=1) % 2)
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


@dataclass(frozen=True)
class ChargeConfiguration:
    """Vertex-operator charges at distinct points; must be neutral overall.

    `lam` records the exponent weight the charges were derived from, when
    they came from an interval set.
    """

    points: np.ndarray
    charges: np.ndarray
    lam: float | None = None

    def __post_init__(self):
        x = np.asarray(self.points, dtype=float)
        q = np.asarray(self.charges, dtype=float)
        if x.shape != q.shape or x.ndim != 1:
            raise ValueError("points and charges must be equal-length 1-D sequences")
        diffs = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() < MIN_SEPARATION:
            raise IntervalError("charge insertion points must be distinct")
        # roundoff in the total grows with the charges, so neutrality is relative
        if not abs(q.sum()) <= 1e-12 * max(1.0, np.abs(q).sum()):
            raise ValueError(f"configuration is not neutral: total charge {q.sum():.3e}")
        object.__setattr__(self, "points", x)
        object.__setattr__(self, "charges", q)

    @classmethod
    def from_intervals(cls, intervals: IntervalSet, lam: float) -> "ChargeConfiguration":
        """Charges +/- sqrt(2 pi lam / 3) at the left/right endpoints."""
        q = math.sqrt(2.0 * math.pi * _check_weight(lam, "lam") / 3.0)
        return cls(points=np.concatenate([intervals.lefts, intervals.rights]),
                   charges=np.repeat([q, -q], intervals.num_intervals), lam=float(lam))


def _log_distances(x: np.ndarray, within=True) -> np.ndarray:
    """log|x_i - x_j| off the diagonal where `within` holds, 0 elsewhere, per
    row of the (..., k) points."""
    diffs = np.abs(x[..., :, None] - x[..., None, :])
    return np.log(diffs, where=~np.eye(x.shape[-1], dtype=bool) & within,
                  out=np.zeros(diffs.shape))


def gaussian_vertex_correlator(cfg: ChargeConfiguration) -> float:
    """Log of the free-scalar expectation of normal-ordered vertex operators.

    (1/8 pi) sum_{i != j} q_i q_j log|x_i - x_j|; the divergent i = j
    self-energies are dropped (normal ordering) and absorbed into one
    multiplicative constant per insertion pair.
    """
    products = np.outer(cfg.charges, cfg.charges) * _log_distances(cfg.points)
    return float(np.sum(products) / (8.0 * math.pi))


def identity_rows(sets: list[IntervalSet]) -> tuple:
    """(entropy, log Cauchy correlator, Wick correlator) of every set, each
    shaped (N,): row k is entropy, log_correlator_cauchy and correlator_wick
    of sets[k], up to roundoff, from one stacked pass per component count.
    """
    terms = [np.empty(len(sets)) for _ in range(3)]
    by_count = defaultdict(list)
    for k, s in enumerate(sets):
        by_count[s.num_intervals].append(k)
    for members in by_count.values():
        a, b = (np.array([getattr(sets[k], end) for k in members]) for end in ("lefts", "rights"))
        log_cutoffs = np.array([math.log(sets[k].cutoff) for k in members])
        for term, value in zip(terms, (*_entropy_terms(a, b, log_cutoffs),
                                       _wick_correlators(a, b))):
            term[members] = value
    return tuple(terms)


def witness_table(sets: list[IntervalSet]) -> np.ndarray:
    """Symmetric table S(A_i u reflected(A_j)) of half-line sets (x -> -x).

    Every set must lie strictly inside x > 0.  With t = +1 at a left and -1
    at a right endpoint, the union's separation sums split into each set's
    own and one quadratic form over the family's endpoints:
    S(A_i u R(A_j)) = S(A_i) + S(A_j) + (1/6) sum_{k in A_i, l in A_j} t_k t_l log(x_k + x_l).
    """
    return witness_tables([sets])[0]


def witness_tables(families: list[list[IntervalSet]]) -> list[np.ndarray]:
    """witness_table of every family, from one stacked quadratic form per
    family shape (the tuple of its sets' component counts).  The matrix
    products run per family inside the stack, so a table is the same in any
    stack."""
    by_shape, tables = defaultdict(list), [None] * len(families)
    for k, sets in enumerate(families):
        if not sets:
            raise IntervalError(f"witness family {k} is empty: a family needs an interval set")
        by_shape[tuple(s.num_intervals for s in sets)].append(k)
    for shape, members in by_shape.items():
        group = [families[k] for k in members]
        # row f: the lefts of family f's sets in order, then their rights
        x = np.concatenate([np.array([getattr(sets[i], end) for sets in group])
                            for end in ("lefts", "rights") for i in range(len(shape))], axis=1)
        if not x[:, :x.shape[1] // 2].min() >= MIN_SEPARATION:
            raise IntervalError("sets must lie strictly inside the positive half-line")
        if any(len({s.cutoff for s in sets}) > 1 for sets in group):
            raise IntervalError("cannot union interval sets with different cutoffs")
        counts = np.array(shape)
        owner = np.tile(np.repeat(np.arange(counts.size), counts), 2)
        # row i holds t_k on the endpoints of A_i and 0 elsewhere
        signed = (owner == np.arange(counts.size)[:, None]).astype(float)
        signed[:, x.shape[1] // 2:] *= -1.0
        cross = signed @ np.log(x[:, :, None] + x[:, None, :]) @ signed.T
        # 6 S(A_i): minus half the signed log-distances within A_i, minus p_i log eps
        within = signed @ _log_distances(x, owner[:, None] == owner)
        log_cutoffs = np.array([math.log(sets[0].cutoff) for sets in group])
        own = -0.5 * np.sum(within * signed, axis=-1) - counts * log_cutoffs[:, None]
        stacked = (0.5 * (cross + np.swapaxes(cross, -1, -2))
                   + (own[:, :, None] + own[:, None, :])) / 6.0
        for k, table in zip(members, stacked):
            tables[k] = table
    return tables


def witness_minimum(tables: list[np.ndarray], lams) -> float:
    """min over tables and lams of witness_record(table, lam)'s min_eigenvalue
    / scale (inf for no tables): one stacked Gram verdict per table size."""
    lams = np.array([_check_weight(lam, "lam") for lam in lams])
    by_size, worst = defaultdict(list), math.inf
    for table in tables:
        by_size[table.shape[0]].append(table)
    for group in by_size.values():
        _, scale, eigvals, _ = _gram_spectrum(np.exp(-lams[:, None, None, None] * np.array(group)))
        worst = min(worst, float(np.min(eigvals[..., 0] / scale)))
    return worst


def witness_record(table: np.ndarray, lam: float) -> GramRecord:
    """Gram record of e^{-lam S} over a witness_table.

    The vertex representation makes these matrices positive semidefinite for
    every lam > 0 (infinite divisibility of the fermion entropy).
    """
    lam = _check_weight(lam, "lam")
    return GramRecord(n=1, lam=lam, entries=np.exp(-lam * table), entropy_table=table)


def divisibility_witness(sets: list[IntervalSet], lam: float) -> GramRecord:
    """Gram record of e^{-lam S(A_i u reflected(A_j))} for half-line sets."""
    return witness_record(witness_table(sets), lam)
