import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpentropy import fermion
from rpentropy.fermion import (MIN_SEPARATION, ChargeConfiguration, IntervalError, IntervalSet,
                               correlator_cauchy, correlator_wick, divisibility_witness,
                               entropy, gaussian_vertex_correlator, identity_rows,
                               interval_sets, log_correlator_cauchy, random_endpoints,
                               witness_minimum, witness_record, witness_table, witness_tables)
from rpentropy.positivity import check_psd

from oracles import (plain_witness_table, reflected_set, three_set_inequality, union,
                     union_witness_table)


def random_set(rng, p, lo=0.0, hi=10.0, cutoff=1.0, min_gap=1e-3):
    pts = np.sort(rng.uniform(lo, hi, 2 * p))
    while np.min(np.diff(pts)) < min_gap:
        pts = np.sort(rng.uniform(lo, hi, 2 * p))
    return IntervalSet(lefts=pts[0::2], rights=pts[1::2], cutoff=cutoff)


class TestIntervalSet:

    def test_ordering_enforced(self):
        with pytest.raises(IntervalError):
            IntervalSet.from_pairs([(0, 2), (1, 3)])

    def test_coincident_points_rejected(self):
        with pytest.raises(IntervalError, match="separation"):
            IntervalSet.from_pairs([(0.0, 1.0), (1.0, 2.0)])

    def test_reflection(self):
        s = IntervalSet.from_pairs([(1, 2), (4, 5)])
        r = reflected_set(s)
        assert np.allclose(r.lefts, [-5, -2])
        assert np.allclose(r.rights, [-4, -1])

    def test_union_sorts(self):
        s = union(IntervalSet.from_pairs([(4, 5)]), IntervalSet.from_pairs([(1, 2)]))
        assert np.allclose(s.lefts, [1, 4])


def same_sets(got, want):
    return all(a.lefts.tobytes() == b.lefts.tobytes() and a.rights.tobytes() == b.rights.tobytes()
               and a.cutoff == b.cutoff for a, b in zip(got, want)) and len(got) == len(want)


class TestStackedDraws:
    """random_endpoints + interval_sets, the fermion CLI's draw, against one
    random_set per set interleaved with rng.integers as cmd_fermion calls it."""

    @pytest.mark.parametrize("components, lo, hi, gap", [
        ((1, 9), 0.0, 10.0, 1e-3),   # the identity sets, up to the Wick limit
        ((1, 3), 0.1, 20.0, 1e-2),   # the witness sets
        ((1, 9), 0.0, 10.0, 0.2)])   # frequent redraws
    def test_stream_identity(self, components, lo, hi, gap):
        for seed in range(4):
            stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
            got = interval_sets([random_endpoints(stacked, components, lo, hi, gap)
                                 for _ in range(40)], 0.7)
            want = [random_set(single, int(single.integers(*components)), lo, hi, 0.7, gap)
                    for _ in range(40)]
            assert same_sets(got, want)
            # witness families: a family size, then each set's component count
            draws = [[random_endpoints(stacked, components, lo, hi, gap)
                      for _ in range(int(stacked.integers(2, 4)))] for _ in range(20)]
            got = interval_sets([row for rows in draws for row in rows], 0.7)
            want = [s for _ in range(20) for s in
                    [random_set(single, int(single.integers(*components)), lo, hi, 0.7, gap)
                     for _ in range(int(single.integers(2, 4)))]]
            assert same_sets(got, want)
            assert stacked.bit_generator.state == single.bit_generator.state

    # gaps between neighbouring endpoints, around MIN_SEPARATION and out of order
    GAPS = st.sampled_from([0.0, 0.5 * MIN_SEPARATION, MIN_SEPARATION, 2 * MIN_SEPARATION,
                            0.25, 3.0, -0.5, math.inf, math.nan])

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")  # inf - inf
    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 4), count=st.integers(1, 4), start=st.floats(-5.0, 5.0),
           cutoff=st.sampled_from([1.0, 0.3, math.inf, 0.0, -1.0, math.nan]), data=st.data())
    def test_stacked_gate_matches_interval_set(self, p, count, start, cutoff, data):
        # one gate per stack raises what IntervalSet raises on its worst row:
        # a separation failure before a cutoff failure, as within one set
        rows = [(start + np.cumsum(data.draw(st.lists(self.GAPS, min_size=2 * p,
                                                      max_size=2 * p)))).tolist()
                for _ in range(count)]
        messages, singles = [], []
        for row in rows:
            try:
                singles.append(IntervalSet(lefts=row[0::2], rights=row[1::2], cutoff=cutoff))
            except IntervalError as exc:
                messages.append(str(exc))
        if not messages:
            assert same_sets(interval_sets(rows, cutoff), singles)
            return
        with pytest.raises(IntervalError) as raised:
            interval_sets(rows, cutoff)
        assert str(raised.value) == min(messages, key=lambda m: "cutoff" in m)

    def test_odd_or_empty_row_refused(self):
        for row in ([1.0, 2.0, 3.0], []):
            with pytest.raises(IntervalError, match="2p > 0 endpoints"):
                interval_sets([[0.5, 0.75], row])


class TestEntropy:

    def test_single_interval_log_length(self):
        assert entropy(IntervalSet.from_pairs([(0, math.e ** 6)])) == pytest.approx(1.0, abs=1e-12)

    def test_unit_interval_zero(self):
        assert entropy(IntervalSet.from_pairs([(0, 1)])) == pytest.approx(0.0, abs=1e-14)

    def test_two_intervals(self):
        val = entropy(IntervalSet.from_pairs([(0, 1), (2, 3)]))
        assert val == pytest.approx(math.log(3 / 4) / 6, abs=1e-14)

    def test_cutoff_dependence(self):
        s1 = IntervalSet.from_pairs([(0, 2)], cutoff=1.0)
        s2 = IntervalSet.from_pairs([(0, 2)], cutoff=0.5)
        assert entropy(s2) - entropy(s1) == pytest.approx(math.log(2) / 6, abs=1e-13)


class TestCorrelators:

    def test_single_interval(self):
        s = IntervalSet.from_pairs([(0, 1)])
        assert correlator_cauchy(s) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
        assert correlator_wick(s) == pytest.approx(1 / (2 * math.pi), rel=1e-14)

    def test_two_intervals(self):
        s = IntervalSet.from_pairs([(0, 1), (2, 3)])
        expected = 1 / (3 * math.pi ** 2)
        assert correlator_cauchy(s) == pytest.approx(expected, rel=1e-13)
        assert correlator_wick(s) == pytest.approx(expected, rel=1e-13)

    def test_wick_matches_cauchy_up_to_six(self):
        rng = np.random.default_rng(11)
        for p in range(1, 7):
            s = random_set(rng, p)
            cauchy = correlator_cauchy(s)
            assert abs(correlator_wick(s) - cauchy) <= 1e-10 * abs(cauchy)

    def test_wick_component_cap(self):
        rng = np.random.default_rng(2)
        s = random_set(rng, 9, hi=100.0)
        with pytest.raises(IntervalError, match="permutation"):
            correlator_wick(s)

    def test_wick_sum_unchanged_by_sign_table(self):
        # the plain permutation loop, with each sign counted by inversions
        rng = np.random.default_rng(12)
        for p in range(1, 7):
            s = random_set(rng, p)
            inv = 1.0 / (s.lefts[:, None] - s.rights[None, :])
            total = 0.0
            for perm in itertools.permutations(range(p)):
                term = (-1) ** sum(perm[i] > perm[j] for i in range(p) for j in range(i + 1, p))
                for i, j in enumerate(perm):
                    term *= inv[i, j]
                total += term
            assert correlator_wick(s) == float((-1.0) ** p / (2.0 * math.pi) ** p * total)

    def test_duality_identity(self):
        rng = np.random.default_rng(3)
        for p in (1, 2, 4):
            eps = float(rng.uniform(0.2, 2.0))
            s = random_set(rng, p, cutoff=eps)
            resid = log_correlator_cauchy(s) + 6 * entropy(s) \
                - p * math.log(1 / (2 * math.pi * eps))
            assert abs(resid) <= 1e-12


    def test_one_pass_matches_entropy_and_correlator_bit_for_bit(self):
        # the fermion CLI takes both duality terms from one pass over the
        # separations and the Wick comparison's correlator as their exp
        rng = np.random.default_rng(12)
        for t in range(200):
            s = random_set(rng, 1 + t % 8, cutoff=float(rng.uniform(0.2, 2.0)))
            s_val, log_c = (float(row[0]) for row in identity_rows([s], [1.0])[:2])
            assert s_val == entropy(s) and log_c == log_correlator_cauchy(s)
            assert math.exp(log_c) == correlator_cauchy(s)


class TestIdentityRows:
    """identity_rows stacks the sets by component count; each row must be
    its set's per-set entropy, log correlator, Wick sum and vertex sums."""

    def sets(self, seed, count):
        rng = np.random.default_rng(seed)
        return [random_set(rng, 1 + t % 8, hi=40.0, cutoff=float(rng.uniform(0.2, 2.0)))
                for t in range(count)]

    def test_rows_match_per_set_terms(self):
        sets, lams = self.sets(23, 48), [0.1, 1.0, 6.0, 10.0]
        # the six p = 8 sets span more than one Wick chunk
        assert 6 * math.factorial(8) * 8 > fermion.WICK_CHUNK_ENTRIES
        s_val, log_c, wick, log_v = identity_rows(sets, lams)
        eps = np.finfo(float).eps
        for k, s in enumerate(sets):
            p = s.num_intervals
            bound = 4 * (2 * p) ** 2 * eps
            single_s, single_log_c = entropy(s), log_correlator_cauchy(s)
            assert abs(s_val[k] - single_s) <= bound * max(1.0, abs(single_s))
            assert abs(log_c[k] - single_log_c) <= bound * max(1.0, abs(single_log_c))
            single_wick = correlator_wick(s)
            assert abs(wick[k] - single_wick) <= bound * math.factorial(p) * abs(single_wick)
            single_v = np.array([gaussian_vertex_correlator(
                ChargeConfiguration.from_intervals(s, lam)) for lam in lams])
            assert np.all(np.abs(log_v[k] - single_v)
                          <= bound * np.maximum(1.0, np.abs(single_v)))

    def test_wick_rows_ignore_chunking(self, monkeypatch):
        # each row's permutation terms are summed in one order, whatever the
        # chunks, so the Wick sums are the same to the last bit
        sets = self.sets(29, 24)
        wick = identity_rows(sets, [1.0])[2]
        for budget in (1, 5000, 1 << 22):
            monkeypatch.setattr(fermion, "WICK_CHUNK_ENTRIES", budget)
            assert identity_rows(sets, [1.0])[2].tobytes() == wick.tobytes()

    def test_eight_components_match_plain_permutation_loop(self):
        s = self.sets(31, 8)[7]
        inv = (1.0 / (s.lefts[:, None] - s.rights[None, :])).tolist()
        total = 0.0
        for perm in itertools.permutations(range(8)):
            term = (-1) ** sum(perm[i] > perm[j] for i in range(8) for j in range(i + 1, 8))
            for i, j in enumerate(perm):
                term *= inv[i][j]
            total += term
        assert identity_rows([s], [1.0])[2][0] == (-1.0) ** 8 / (2.0 * math.pi) ** 8 * total
        assert abs(correlator_wick(s) - correlator_cauchy(s)) <= 1e-10 * correlator_cauchy(s)

    def test_validation_kept(self):
        with pytest.raises(IntervalError, match="permutation"):
            identity_rows([random_set(np.random.default_rng(2), 9, hi=100.0)], [1.0])
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            identity_rows(self.sets(3, 2), [1.0, -1.0])
        # a NaN lam once gave NaN vertex sums, and a NaN witness Gram matrix
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            identity_rows(self.sets(3, 2), [1.0, float("nan")])
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            witness_minimum([witness_table([IntervalSet.from_pairs([(1, 2)]),
                                            IntervalSet.from_pairs([(3, 4)])])],
                            [float("nan")])


class TestVertexOperators:

    def test_two_charge_coefficient(self):
        lam, r = 2.3, 1.7
        q = math.sqrt(2 * math.pi * lam / 3)
        cfg = ChargeConfiguration(points=np.array([0.0, r]), charges=np.array([q, -q]))
        assert gaussian_vertex_correlator(cfg) == pytest.approx(-(lam / 6) * math.log(r),
                                                                abs=1e-13)

    def test_neutrality_required(self):
        with pytest.raises(ValueError, match="neutral"):
            ChargeConfiguration(points=np.array([0.0, 1.0]), charges=np.array([1.0, -0.5]))

    def test_distinct_points_required(self):
        with pytest.raises(IntervalError):
            ChargeConfiguration(points=np.array([1.0, 1.0]), charges=np.array([1.0, -1.0]))

    def test_reproduces_entropy_exponential(self):
        # one calibration point fixes the constant; other sets then match exactly
        rng = np.random.default_rng(8)
        calib = IntervalSet.from_pairs([(0.5, 2.5)], cutoff=0.7)
        for lam in (0.1, 1.0, 6.0, 10.0):
            const = gaussian_vertex_correlator(
                ChargeConfiguration.from_intervals(calib, lam)) + lam * entropy(calib)
            for p in (1, 2, 3):
                s = random_set(rng, p, cutoff=0.7)
                log_v = gaussian_vertex_correlator(
                    ChargeConfiguration.from_intervals(s, lam))
                assert abs(log_v + lam * entropy(s) - p * const) <= 1e-12

    def test_shared_log_matrix_matches_single_lam_bit_for_bit(self):
        rng = np.random.default_rng(21)
        lams = [0.1, 1.0, 2.5, 6.0, 10.0]
        for p in range(1, 7):
            s = random_set(rng, p, cutoff=0.4)
            assert identity_rows([s], lams)[3][0].tolist() == [
                gaussian_vertex_correlator(ChargeConfiguration.from_intervals(s, lam))
                for lam in lams]
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            identity_rows([s], [1.0, 0.0])

    def test_lambda_six_matches_correlator_scaling(self):
        # at lam = 6 the vertex expectation carries the same set dependence as
        # the field correlator
        s = IntervalSet.from_pairs([(0, 1), (2, 3)])
        log_v = gaussian_vertex_correlator(ChargeConfiguration.from_intervals(s, 6.0))
        diff = log_v - log_correlator_cauchy(s)
        single = IntervalSet.from_pairs([(0, 1)])
        log_v1 = gaussian_vertex_correlator(ChargeConfiguration.from_intervals(single, 6.0))
        diff1 = log_v1 - log_correlator_cauchy(single)
        assert diff == pytest.approx(2 * diff1, abs=1e-12)


class TestDivisibilityWitness:

    def test_linear_inequality_from_formulas(self):
        a = IntervalSet.from_pairs([(1, 2)])
        b = IntervalSet.from_pairs([(3, 4)])
        record = divisibility_witness([a, b], lam=1.0)
        table = record.entropy_table
        assert 2 * table[0, 1] - table[0, 0] - table[1, 1] >= 0
        assert check_psd(record).passed

    def test_identical_sets_degenerate(self):
        a = IntervalSet.from_pairs([(1, 2)])
        record = divisibility_witness([a, a], lam=0.7)
        assert abs(np.linalg.det(record.entries)) <= 1e-12

    def test_origin_guard(self):
        with pytest.raises(IntervalError, match="half-line"):
            divisibility_witness([IntervalSet.from_pairs([(0.0, 1.0)])], lam=1.0)

    def test_table_matches_union_path_within_roundoff(self):
        # the table is one quadratic form in log(x_k + x_l) plus each set's
        # own entropy, so it differs from the union entropies by roundoff:
        # at most k^2 eps max(1, |S|), k the union's endpoint count
        rng = np.random.default_rng(31)
        eps = np.finfo(float).eps
        for _ in range(200):
            sets = [random_set(rng, int(rng.integers(1, 4)), lo=1e-3, hi=20.0,
                               cutoff=0.8, min_gap=1e-2)
                    for _ in range(int(rng.integers(1, 5)))]
            table, union = witness_table(sets), union_witness_table(sets)
            ends = 2 * np.array([s.num_intervals for s in sets])
            k = ends[:, None] + ends[None, :]
            assert np.all(np.abs(table - union) <= k ** 2 * eps * np.maximum(1.0, np.abs(union)))
            assert np.array_equal(table, table.T)

    def test_shared_endpoints_across_sets(self):
        # sets of one family may share an endpoint; only distances within a
        # set enter its entropy, so no log(0) reaches the table
        sets = [IntervalSet.from_pairs([(1, 2)]), IntervalSet.from_pairs([(2, 3), (4, 5)])]
        assert np.allclose(witness_table(sets), union_witness_table(sets), rtol=1e-14, atol=1e-14)

    def test_stacked_minimum_matches_witness_records(self):
        # one Gram verdict per table size, stacked over tables and lams, is
        # the minimum of the single-table records at eps scale
        rng = np.random.default_rng(41)
        lams = [0.1, 1.0, 6.0, 10.0]
        tables = [witness_table([random_set(rng, int(rng.integers(1, 3)), lo=0.1, hi=20.0,
                                            min_gap=1e-2)
                                 for _ in range(int(rng.integers(2, 5)))])
                  for _ in range(60)]
        records = [witness_record(t, lam) for t in tables for lam in lams]
        expected = min(r.min_eigenvalue / r.scale for r in records)
        assert abs(witness_minimum(tables, lams) - expected) <= 8 * np.finfo(float).eps
        assert witness_minimum([], lams) == math.inf
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            witness_minimum(tables, [1.0, 0.0])

    def test_stacked_tables_equal_single_tables(self):
        # one quadratic form per family shape, stacked over families of
        # mixed component counts and cutoffs, is bit for bit each family's
        # alone and the one-family 2-D products
        rng = np.random.default_rng(23)
        families = []
        for _ in range(150):
            cutoff = float(rng.choice([1.0, 0.6, 2.5]))
            families.append([random_set(rng, int(rng.integers(1, 4)), lo=0.1, hi=20.0,
                                        cutoff=cutoff, min_gap=1e-2)
                             for _ in range(int(rng.integers(1, 5)))])
        tables = witness_tables(families)
        assert len({tuple(s.num_intervals for s in f) for f in families}) > 20
        assert [t.tobytes() for t in tables] == [witness_table(f).tobytes() for f in families]
        assert [t.tobytes() for t in tables] == [plain_witness_table(f).tobytes()
                                                 for f in families]
        assert witness_tables([]) == []

    def test_empty_family_refused(self):
        # numpy's "need at least one array to concatenate" once surfaced here
        a = IntervalSet.from_pairs([(1, 2)])
        with pytest.raises(IntervalError, match="witness family 0 is empty"):
            witness_table([])
        with pytest.raises(IntervalError, match="witness family 0 is empty"):
            divisibility_witness([], lam=1.0)
        with pytest.raises(IntervalError, match="witness family 1 is empty"):
            witness_tables([[a], [], [a, a]])

    def test_mixed_cutoffs_refused(self):
        sets = [IntervalSet.from_pairs([(1, 2)]), IntervalSet.from_pairs([(3, 4)], cutoff=0.5)]
        with pytest.raises(IntervalError, match="cutoffs"):
            witness_table(sets)

    def test_lambda_sweep_stays_psd(self):
        rng = np.random.default_rng(19)
        for trial in range(40):
            sets = [random_set(rng, int(rng.integers(1, 3)), lo=0.1, hi=20.0,
                               min_gap=1e-2) for _ in range(3)]
            for lam in (0.1, 1.0, 10.0):
                record = divisibility_witness(sets, lam)
                assert check_psd(record).passed

    def test_three_set_slack_nonnegative_on_intervals(self):
        # nested single intervals in the half line
        sets = [IntervalSet.from_pairs([(1, 8)]), IntervalSet.from_pairs([(2, 6)]),
                IntervalSet.from_pairs([(3, 5)])]
        record = divisibility_witness(sets, lam=1.0)
        t = record.entropy_table
        slack = three_set_inequality(t[0, 1], t[0, 2], t[1, 2], t[0, 0], t[1, 1], t[2, 2])
        assert slack >= -1e-10
