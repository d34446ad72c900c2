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
from dataclasses import dataclass

import numpy as np

from .positivity import GramRecord

# below this separation the correlator singularities take over and the
# entropy is not defined; error out rather than regularize
MIN_SEPARATION = 1e-9
MAX_WICK_COMPONENTS = 8


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
        points = np.empty(2 * a.size)
        points[0::2] = a
        points[1::2] = b
        if np.any(np.diff(points) < MIN_SEPARATION):
            raise IntervalError(
                "endpoints must be strictly increasing with separation "
                f">= {MIN_SEPARATION:g} (coincident points are singular)")
        if not self.cutoff > 0:
            raise IntervalError("cutoff must be positive")
        object.__setattr__(self, "lefts", a)
        object.__setattr__(self, "rights", b)

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
        pts = np.empty(2 * self.lefts.size)
        pts[0::2] = self.lefts
        pts[1::2] = self.rights
        return pts

    def reflected(self) -> "IntervalSet":
        """Mirror image under x -> -x (the spatial wedge reflection)."""
        return IntervalSet(lefts=-self.rights[::-1], rights=-self.lefts[::-1],
                           cutoff=self.cutoff)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if abs(self.cutoff - other.cutoff) > 0:
            raise IntervalError("cannot union interval sets with different cutoffs")
        return IntervalSet.from_pairs(
            list(zip(self.lefts, self.rights)) + list(zip(other.lefts, other.rights)),
            cutoff=self.cutoff)


@functools.lru_cache(maxsize=None)
def _upper_triangle(p: int) -> tuple:
    """np.triu_indices(p, k=1), read-only because every caller shares it."""
    rows, cols = np.triu_indices(p, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _log_separations(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """(sum_{i,j} log|a_i - b_j|, sum_{i<j} log|a_i - a_j|, sum_{i<j} log|b_i - b_j|)."""
    iu = _upper_triangle(a.size)
    return (np.sum(np.log(np.abs(a[:, None] - b[None, :]))),
            np.sum(np.log(np.abs(a[:, None] - a[None, :])[iu])),
            np.sum(np.log(np.abs(b[:, None] - b[None, :])[iu])))


def _entropy_of(separations: tuple, p: int, cutoff: float) -> float:
    cross, same_a, same_b = separations
    return float((cross - same_a - same_b - p * math.log(cutoff)) / 6.0)


def _log_correlator_of(separations: tuple, p: int) -> float:
    cross, same_a, same_b = separations
    return float(same_a + same_b - cross - p * math.log(2.0 * math.pi))


def _entropy(a: np.ndarray, b: np.ndarray, cutoff: float) -> float:
    return _entropy_of(_log_separations(a, b), a.size, cutoff)


def entropy(intervals: IntervalSet) -> float:
    """Multi-interval entanglement entropy of the chiral massless fermion.

    S = (1/6) [ sum_{i,j} log|a_i - b_j| - sum_{i<j} log|a_i - a_j|
                - sum_{i<j} log|b_i - b_j| - p log(eps) ]
    """
    return _entropy(intervals.lefts, intervals.rights, intervals.cutoff)


def entropy_and_log_correlator(intervals: IntervalSet) -> tuple[float, float]:
    """(entropy(intervals), log_correlator_cauchy(intervals)), bit for bit,
    from one pass over the endpoint separations."""
    separations = _log_separations(intervals.lefts, intervals.rights)
    p = intervals.num_intervals
    return _entropy_of(separations, p, intervals.cutoff), _log_correlator_of(separations, p)


def renyi(intervals: IntervalSet, n: float) -> float:
    """Renyi entropy; every index is proportional to the same quantity."""
    if n < 1:
        raise ValueError("Renyi index must be >= 1")
    return (1.0 + n) / (2.0 * n) * entropy(intervals)


def log_correlator_cauchy(intervals: IntervalSet) -> float:
    """Log of the closed-form field correlator over the interval endpoints.

    log [ (2 pi)^{-p} prod_{i<j}|a_i-a_j| prod_{i<j}|b_i-b_j| / prod_{i,j}|a_i-b_j| ]
    """
    return _log_correlator_of(_log_separations(intervals.lefts, intervals.rights),
                              intervals.num_intervals)


def correlator_cauchy(intervals: IntervalSet) -> float:
    return math.exp(log_correlator_cauchy(intervals))


def correlator_wick(intervals: IntervalSet) -> float:
    """Permutation-sum (Wick) evaluation of the same correlator.

    (-1)^p (2 pi)^{-p} sum_P sign(P) prod_i 1/(a_i - b_{P(i)}).  Factorial
    cost; independent oracle for the product formula at small p.
    """
    p = intervals.num_intervals
    if p > MAX_WICK_COMPONENTS:
        raise IntervalError(f"permutation sum limited to {MAX_WICK_COMPONENTS} intervals")
    a, b = intervals.lefts, intervals.rights
    inv = (1.0 / (a[:, None] - b[None, :])).tolist()
    total = 0.0
    for perm, sign in _signed_permutations(p):
        term = sign
        for i, j in enumerate(perm):
            term *= inv[i][j]
        total += term
    return float((-1.0) ** p / (2.0 * math.pi) ** p * total)


@functools.lru_cache(maxsize=None)
def _signed_permutations(p: int) -> tuple:
    """Every permutation of range(p), in itertools order, with its sign."""
    return tuple((perm, _permutation_sign(perm)) for perm in itertools.permutations(range(p)))


def _permutation_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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
        _check_neutral(q)
        object.__setattr__(self, "points", x)
        object.__setattr__(self, "charges", q)

    @classmethod
    def from_intervals(cls, intervals: IntervalSet, lam: float) -> "ChargeConfiguration":
        """Charges +/- sqrt(2 pi lam / 3) at the left/right endpoints."""
        return cls(points=np.concatenate([intervals.lefts, intervals.rights]),
                   charges=_interval_charges(intervals.num_intervals, lam), lam=float(lam))


def _check_neutral(charges: np.ndarray) -> None:
    if abs(charges.sum()) > 1e-12:
        raise ValueError(f"configuration is not neutral: total charge {charges.sum():.3e}")


def _interval_charges(p: int, lam: float) -> np.ndarray:
    if lam <= 0:
        raise ValueError("lam must be positive")
    q = math.sqrt(2.0 * math.pi * lam / 3.0)
    return np.concatenate([np.full(p, q), np.full(p, -q)])


def _log_distances(x: np.ndarray) -> np.ndarray:
    """log|x_i - x_j| off the diagonal, 0 on it."""
    return np.log(np.abs(x[:, None] - x[None, :]), where=~np.eye(x.size, dtype=bool),
                  out=np.zeros((x.size, x.size)))


def _vertex_sum(charges: np.ndarray, logs: np.ndarray) -> float:
    return float(np.sum(np.outer(charges, charges) * logs) / (8.0 * math.pi))


def gaussian_vertex_correlator(cfg: ChargeConfiguration) -> float:
    """Log of the free-scalar expectation of normal-ordered vertex operators.

    (1/8 pi) sum_{i != j} q_i q_j log|x_i - x_j|; the divergent i = j
    self-energies are dropped (normal ordering) and absorbed into one
    multiplicative constant per insertion pair.
    """
    return _vertex_sum(cfg.charges, _log_distances(cfg.points))


def vertex_log_correlators(intervals: IntervalSet, lams) -> list[float]:
    """gaussian_vertex_correlator of ChargeConfiguration.from_intervals(intervals,
    lam) for each lam, bit for bit, from one log-distance matrix.

    An interval set's endpoints are at least MIN_SEPARATION apart already, so
    only each lam's charges are checked.
    """
    points = np.concatenate([intervals.lefts, intervals.rights])
    logs = _log_distances(points)
    values = []
    for lam in lams:
        charges = _interval_charges(intervals.num_intervals, lam)
        _check_neutral(charges)
        values.append(_vertex_sum(charges, logs))
    return values


def witness_table(sets: list[IntervalSet]) -> np.ndarray:
    """Table S(A_i u reflected(A_j)) of half-line sets, for every lam at once.

    Every set must lie strictly inside x > 0; the reflection is x -> -x.
    The table is symmetric, since reflecting A_j u reflected(A_i) gives
    A_i u reflected(A_j) and the entropy depends only on distances, so
    each pair i <= j is evaluated once.  The half-line check puts every
    reflected endpoint below every endpoint of A_i, at least
    2 MIN_SEPARATION apart, so each union's endpoint arrays are the two
    sets' arrays joined: no sort and no second validation.
    """
    for s in sets:
        if s.lefts.min() < MIN_SEPARATION:
            raise IntervalError("sets must lie strictly inside the positive half-line")
        if abs(s.cutoff - sets[0].cutoff) > 0:
            raise IntervalError("cannot union interval sets with different cutoffs")
    mirrored = [(-s.rights[::-1], -s.lefts[::-1]) for s in sets]
    m1 = len(sets)
    table = np.empty((m1, m1))
    for i, s in enumerate(sets):
        for j in range(i, m1):
            lefts, rights = mirrored[j]
            table[i, j] = table[j, i] = _entropy(np.concatenate([lefts, s.lefts]),
                                                 np.concatenate([rights, s.rights]),
                                                 s.cutoff)
    return table


def witness_record(table: np.ndarray, lam: float) -> GramRecord:
    """Gram record of e^{-lam S} over a witness_table.

    The vertex representation makes these matrices positive semidefinite for
    every lam > 0 (infinite divisibility of the fermion entropy).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return GramRecord(size=table.shape[0], n=1, lam=float(lam),
                      entries=np.exp(-lam * table), entropy_table=table)


def divisibility_witness(sets: list[IntervalSet], lam: float) -> GramRecord:
    """Gram record of e^{-lam S(A_i u reflected(A_j))} for half-line sets."""
    return witness_record(witness_table(sets), lam)
