import functools
import itertools
import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpentropy import positivity
from rpentropy.modular import DensityMatrix, InvalidStateError, PurifiedState, purify
from rpentropy.positivity import (GramRecord, SearchConfig, check_psd,
                                  counterexample_search, divisibility_matrix,
                                  divisibility_over_orderings, entropy_table,
                                  gram_matrix, schur_power, theorem_sweep,
                                  theorem_sweep_parallel, three_set_inequality,
                                  verify_witness)
from rpentropy.positivity import _draw_block, _evaluate_block, trial_rng, unitary_from_ginibre
from rpentropy.reflected import SubsystemSplit, pair_spectrum, von_neumann
from rpentropy.sampling import (ginibre, haar_unitary, random_density, simplex_eigenvalues,
                                trial_rngs)

import oracles
from oracles import (b_from_mutual, brute_force_reflected, draw_one, sequential_refine,
                     svd_spectrum)


def block_instances(cfg: SearchConfig):
    """(Schmidt values (trials, d), split unitaries (trials, m, d, d)) of
    the search's trials, from one `_draw_block` call."""
    schmidt, z, _ = _draw_block(cfg.master_seed, range(cfg.trials), [cfg.dims] * cfg.trials)
    z = z.reshape(cfg.trials, len(cfg.dims) + 1, cfg.dim, cfg.dim)
    return schmidt, unitary_from_ginibre(z[:, 1:])


@pytest.fixture
def serial_pools(monkeypatch):
    """A stand-in executor: records the worker count of each pool built and
    runs each submitted call in this process, so no process starts."""
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def random_gram(seed, m1=3, n=2, d_a=2, d_b=2):
    rng = np.random.default_rng(seed)
    d = d_a * d_b
    psi = purify(DensityMatrix.from_matrix(random_density(d, rng)))
    splits = [SubsystemSplit.haar(d_a, d_b, rng, label=f"A{k}") for k in range(m1)]
    return gram_matrix(psi, splits, n=n), psi, splits


class TestGramMatrix:

    def test_repeated_subsystem_degenerate(self):
        rng = np.random.default_rng(0)
        psi = purify(DensityMatrix.from_matrix(random_density(4, rng)))
        split = SubsystemSplit.haar(2, 2, rng)
        record = gram_matrix(psi, [split, split], n=2)
        assert np.allclose(record.entries[0], record.entries[1], atol=1e-12)
        assert abs(np.linalg.det(record.entries)) <= 1e-10 * np.abs(record.entries).max()

    def test_two_subsystem_linear_inequality(self):
        record, _, _ = random_gram(5, m1=2, n=2)
        scale = np.linalg.norm(record.entries, 2)
        assert np.linalg.det(record.entries) >= -1e-10 * scale ** 2
        table = record.entropy_table
        assert 2 * table[0, 1] >= table[0, 0] + table[1, 1] - 1e-9

    def test_entries_in_unit_interval(self):
        record, _, _ = random_gram(9, m1=3, n=3)
        assert np.all(record.entries > 0) and np.all(record.entries <= 1 + 1e-12)

    def test_mini_theorem_sweep(self):
        # broader statistics live in the acceptance suite
        for seed in range(60):
            n = 2 + seed % 3
            record, _, _ = random_gram(seed, m1=2 + seed % 2, n=n)
            scale = np.linalg.norm(record.entries, 2)
            assert record.min_eigenvalue >= -1e-10 * scale

    def test_lam_defaults_to_trace_power(self):
        record, psi, splits = random_gram(3, m1=2, n=3)
        explicit = gram_matrix(psi, splits, n=3, lam=2.0)
        assert np.allclose(record.entries, explicit.entries, atol=1e-14)

    def test_n1_requires_lam(self):
        _, psi, splits = random_gram(4, m1=2)
        with pytest.raises(ValueError, match="lam"):
            gram_matrix(psi, splits, n=1)

    def test_entries_match_matrix_power_trace(self):
        # trace-power route (the power ladder of the smaller pair Gram matrix)
        # vs literal matrix powers of the brute-force oracle's density, also
        # where the splits' dim_a differ, so that the pairs j < i filled by
        # symmetry come from a density of another shape
        _, psi, splits = random_gram(41, m1=2, n=3)
        rng = np.random.default_rng(43)
        mixed = [SubsystemSplit.haar(da, db, rng) for da, db in ((2, 3), (3, 2), (2, 3))]
        for psi, splits in ((psi, splits),
                            (purify(DensityMatrix.from_matrix(random_density(6, rng))), mixed)):
            record = gram_matrix(psi, splits, n=3)
            for i in range(len(splits)):
                for j in range(len(splits)):
                    rho = brute_force_reflected(psi, splits[i], splits[j]).matrix
                    direct = float(np.trace(np.linalg.matrix_power(rho, 3)).real)
                    assert record.entries[i, j] == pytest.approx(direct, rel=1e-11)

    def test_draw_instance_matches_single_draws(self):
        # one stacked Haar step must reproduce the eigenbasis and the splits
        # drawn one matrix at a time, so search trials stay the same
        from rpentropy.positivity import _draw_instance
        from rpentropy.sampling import haar_unitary, simplex_eigenvalues, trial_rng
        dims = [(2, 3), (3, 2), (2, 3)]
        cfg = SearchConfig(dims=dims, trials=1, master_seed=17, trial_offset=40)
        psi, splits = _draw_instance(cfg, 2)
        rng = trial_rng(17, 42)
        lam = simplex_eigenvalues(6, rng)
        assert np.array_equal(psi.schmidt_values, np.sort(lam)[::-1])
        assert np.array_equal(psi.eigenbasis, haar_unitary(6, rng))
        for k, split in enumerate(splits):
            single = SubsystemSplit.haar(*dims[k], rng)
            assert split.label == f"A{k+1}" and np.array_equal(split.coeffs, single.coeffs)

    def test_sweep_matches_gram_matrix(self):
        # the sweep and gram_matrix share the trace-power kernel, so on the
        # instance drawn from the same trial stream the Gram matrices agree
        # entrywise up to gram_matrix's exp(-(n-1) S) round trip; tol = -1
        # records the sweep's Gram
        from rpentropy.positivity import _draw_instance
        seed, dims = 91, [(2, 3)] * 3
        sweep = theorem_sweep([dims], [4], master_seed=seed, tol=-1.0)
        cfg = SearchConfig(dims=dims, trials=1, master_seed=seed,
                           target="integer_n", n=4)
        psi, splits = _draw_instance(cfg, 0)
        record = gram_matrix(psi, splits, n=4)
        [violation] = sweep.violations
        assert np.asarray(violation["gram"]) == pytest.approx(record.entries, rel=1e-12)
        assert violation["min_eigenvalue"] == pytest.approx(
            record.min_eigenvalue, rel=1e-12, abs=1e-12)


class TestCheckPsd:

    def test_identity_passes(self):
        verdict = check_psd(np.eye(3))
        assert verdict.passed and verdict.min_eigenvalue == pytest.approx(1.0)

    def test_known_indefinite_matrix(self):
        verdict = check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not verdict.passed
        assert verdict.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(abs(verdict.witness @ expected) - 1.0) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidStateError, match="asymmetric"):
            check_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN Gram matrix once passed the symmetry check and reached eigh
        for entry in ((0, 0), (0, 1)):
            gram = np.eye(3)
            gram[entry] = bad
            with pytest.raises(InvalidStateError, match="asymmetric"):
                check_psd(gram)

    def test_schur_square_of_pass_passes(self):
        record, _, _ = random_gram(11, m1=3, n=2)
        assert check_psd(record).passed
        assert check_psd(schur_power(record, 2)).passed

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.sampled_from(["psd", "near_singular", "indefinite"]),
           st.integers(0, 2 ** 32 - 1))
    def test_verdict_is_the_minimum_eigenvalue_gate(self, m, kind, seed):
        # no leading-minor gate: the verdict is the eigenvalue gate alone,
        # and a failure's witness is the minimum eigenvalue's eigenvector
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        eigs = rng.uniform(0.0, 1.0, m) * 10.0 ** rng.uniform(-3, 3)
        if kind == "near_singular":
            # within a few eps of the gate, on either side of it
            eigs[0] = rng.uniform(-3, 3) * positivity.PSD_RELATIVE_TOL * eigs.max()
        elif kind == "indefinite":
            eigs[: rng.integers(1, m)] *= -1
        g = q @ np.diag(eigs) @ q.T
        g = 0.5 * (g + g.T)
        verdict = check_psd(g)
        exact = np.linalg.eigh(g)[0]
        scale = max(np.abs(exact).max(), np.finfo(float).tiny)
        assert verdict.min_eigenvalue == exact[0] and verdict.scale == scale
        assert verdict.passed == (exact[0] >= -positivity.PSD_RELATIVE_TOL * scale)
        if verdict.passed:
            assert verdict.witness is None
        else:
            witness = verdict.witness
            assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(g @ witness - exact[0] * witness).max() <= 1e-12 * scale


class TestGramSpectrum:

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((4, 3, 5, 5))
        stack = raw + raw.swapaxes(-1, -2)
        g, scale, eigvals, eigvecs = positivity._gram_spectrum(stack)
        assert scale.shape == (4, 3) and eigvals.shape == (4, 3, 5)
        for k in range(4):
            for c in range(3):
                one = positivity._gram_spectrum(stack[k, c])
                assert np.array_equal(g[k, c], one[0]) and scale[k, c] == one[1]
                assert np.array_equal(eigvals[k, c], one[2])
                assert np.array_equal(eigvecs[k, c], one[3])

    def test_scale_is_the_spectral_norm(self):
        rng = np.random.default_rng(9)
        for m in (2, 3, 5):
            raw = rng.standard_normal((m, m))
            g = raw + raw.T
            _, scale, _, _ = positivity._gram_spectrum(g)
            assert scale == pytest.approx(np.linalg.norm(g, 2), rel=1e-14)
        assert positivity._gram_spectrum(np.zeros((2, 2)))[1] == np.finfo(float).tiny

    def test_one_asymmetric_matrix_in_a_stack_raises(self):
        stack = np.array([np.eye(3)] * 4)
        stack[3, 0, 1] = 1e-3
        with pytest.raises(InvalidStateError, match="asymmetric"):
            positivity._gram_spectrum(stack)


class TestSchurPower:

    def test_s_one_is_identity_map(self):
        record, _, _ = random_gram(13, m1=2)
        powered = schur_power(record, 1)
        assert np.allclose(powered.entries, record.entries)

    def test_small_example(self):
        record = GramRecord(size=2, n=2, lam=1.0,
                            entries=np.array([[1.0, 0.5], [0.5, 1.0]]),
                            entropy_table=np.zeros((2, 2)))
        powered = schur_power(record, 2)
        assert np.allclose(powered.entries, [[1.0, 0.25], [0.25, 1.0]])
        assert check_psd(powered).passed

    def test_integer_powers_stay_psd(self):
        for seed in (17, 23):
            record, _, _ = random_gram(seed, m1=3, n=2)
            for s in (2, 3):
                assert check_psd(schur_power(record, s)).passed

    def test_rejects_fractional(self):
        record, _, _ = random_gram(29, m1=2)
        with pytest.raises(ValueError):
            schur_power(record, 0.5)


class TestDivisibility:

    def test_equal_entropies_give_zero(self):
        table = np.full((3, 3), 1.7)
        record = divisibility_matrix(table)
        assert np.allclose(record.b_matrix, 0.0)
        assert record.det_b == pytest.approx(0.0, abs=1e-15)

    def test_m1_is_linear_combination(self):
        table = np.array([[0.4, 1.1], [1.1, 0.9]])
        record = divisibility_matrix(table)
        expected = 2 * 1.1 - 0.4 - 0.9
        assert record.det_b == pytest.approx(expected, abs=1e-14)

    def test_mutual_information_route_agrees(self):
        rng = np.random.default_rng(31)
        raw = rng.uniform(0.1, 2.0, size=(4, 4))
        table = 0.5 * (raw + raw.T)
        marg_i = rng.uniform(0.1, 1.0, 4)
        marg_j = rng.uniform(0.1, 1.0, 4)
        b_mutual = b_from_mutual(table, marg_i, marg_j)
        assert np.max(np.abs(divisibility_matrix(table).b_matrix - b_mutual)) <= 1e-10

    def test_rejects_asymmetric_table(self):
        table = np.array([[0.4, 1.1], [0.3, 0.9]])
        with pytest.raises(InvalidStateError):
            divisibility_matrix(table)

    def test_orderings_report(self):
        rng = np.random.default_rng(37)
        raw = rng.uniform(0.1, 2.0, size=(3, 3))
        table = 0.5 * (raw + raw.T)
        worst, ordering, results = divisibility_over_orderings(table)
        assert len(results) == 6
        assert worst == min(det for _, det in results)
        assert worst <= divisibility_matrix(table).det_b + 1e-15

    def test_orderings_equal_per_ordering_records(self):
        rng = np.random.default_rng(41)
        for size in (2, 3, 4):
            raw = rng.uniform(0.1, 2.0, size=(size, size))
            table = 0.5 * (raw + raw.T)
            worst, ordering, results = divisibility_over_orderings(table)
            assert [perm for perm, _ in results] == list(itertools.permutations(range(size)))
            for perm, det_b in results:
                assert det_b == divisibility_matrix(table[np.ix_(perm, perm)]).det_b
            assert (worst, ordering) == min(((d, p) for p, d in results), key=lambda x: x[0])

    def test_orderings_validate_the_table(self):
        with pytest.raises(InvalidStateError):
            divisibility_over_orderings(np.array([[0.4, 1.1], [0.3, 0.9]]))
        with pytest.raises(ValueError, match="square"):
            divisibility_over_orderings(np.ones((1, 1)))
        with pytest.raises(ValueError, match="up to 4"):
            divisibility_over_orderings(np.ones((5, 5)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.05, 3.0), min_size=6, max_size=6))
    def test_three_set_slack_equals_det_b(self, vals):
        s_ab, s_ac, s_bc, s_aa, s_bb, s_cc = vals
        table = np.array([[s_aa, s_ab, s_ac],
                          [s_ab, s_bb, s_bc],
                          [s_ac, s_bc, s_cc]])
        det_b = divisibility_matrix(table).det_b
        slack = three_set_inequality(s_ab, s_ac, s_bc, s_aa, s_bb, s_cc)
        assert slack == pytest.approx(det_b, rel=1e-10, abs=1e-10)

    def test_three_set_fully_degenerate(self):
        assert three_set_inequality(1.3, 1.3, 1.3, 1.3, 1.3, 1.3) == pytest.approx(0.0, abs=1e-12)


class TestSearch:

    def test_integer_control_finds_nothing(self):
        cfg = SearchConfig(dims=[(2, 2)] * 2, trials=150, master_seed=5,
                           target="integer_n", n=2)
        report = counterexample_search(cfg)
        assert not report.found
        assert report.min_slack > 0

    def test_entropy_mode_finds_witness(self):
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=3000, master_seed=2024,
                           target="entropy_n1", lam=1.0)
        report = counterexample_search(cfg)
        assert report.found
        witness = report.violations[0]
        slack = verify_witness(witness, target="entropy_n1", lam=1.0)
        assert slack == pytest.approx(witness["slack"], rel=1e-12)
        assert slack < -10 * cfg.tolerance

    def test_detb_mode_with_refinement(self):
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=500, master_seed=7,
                           target="schur_s_fraction", n=1, refine_iterations=20000)
        report = counterexample_search(cfg)
        assert report.found
        witness = report.violations[0]
        assert witness.get("refined")
        slack = verify_witness(witness, target="schur_s_fraction", n=1)
        assert slack < -10 * cfg.tolerance

    def test_deterministic_replay(self):
        cfg = SearchConfig(dims=[(2, 2)] * 2, trials=40, master_seed=12,
                           target="entropy_n1", lam=1.0)
        first = counterexample_search(cfg).to_dict()
        second = counterexample_search(cfg).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_parallel_matches_serial(self):
        cfg = SearchConfig(dims=[(2, 2)] * 2, trials=60, master_seed=3,
                           target="entropy_n1", lam=1.0)
        serial = counterexample_search(cfg, jobs=1).to_dict()
        parallel = counterexample_search(cfg, jobs=3).to_dict()
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_literal_fractional_power_reported(self):
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=3, master_seed=1,
                           target="schur_s_fraction", n=2, literal_s=0.25)
        from rpentropy.positivity import _draw_instance, _evaluate_target
        result = _evaluate_target(cfg, *_draw_instance(cfg, 0))
        assert "literal_s_min_eigenvalue" in result

    def test_detb_witness_breaks_literal_fractional_powers(self):
        # det B < 0 is the s -> 0 limit; the stored witness must therefore
        # also fail PSD under literal small entrywise powers of e^{-S}
        import os
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "detb_witness.json")
        with open(fixture) as handle:
            data = json.load(handle)
        from rpentropy.positivity import _instance_from_dict
        psi, splits = _instance_from_dict(data["violation"]["instance"])
        table = entropy_table(psi, splits, n=1)
        mins = []
        for s in (0.1, 0.01):
            powered = np.exp(-s * table)
            mins.append(np.linalg.eigvalsh(0.5 * (powered + powered.T)).min())
        assert mins[0] < -1e-7 and mins[1] < -1e-8
        # linear-in-s scaling of the defect near the limit
        assert mins[0] / mins[1] == pytest.approx(10.0, rel=0.3)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="same total dimension"):
            SearchConfig(dims=[(2, 2), (2, 3)], trials=1, master_seed=0)
        with pytest.raises(ValueError, match="unknown target"):
            SearchConfig(dims=[(2, 2)] * 2, trials=1, master_seed=0, target="bogus")
        with pytest.raises(ValueError, match="trials"):
            SearchConfig(dims=[(2, 2)] * 2, trials=0, master_seed=0)


class TestBatchedSearch:
    """The search evaluates blocks of trials as one stack; every trial must
    come out exactly as its own N = 1 evaluation."""

    CASES = {
        "entropy-mixed": dict(dims=[(2, 3), (3, 2), (2, 3)], target="entropy_n1", lam=0.7),
        "integer-mixed": dict(dims=[(2, 3), (3, 2), (2, 3)], target="integer_n", n=3),
        "detb-mixed": dict(dims=[(2, 3), (3, 2), (2, 3)], target="schur_s_fraction", n=1),
        "literal-s": dict(dims=[(2, 4), (4, 2), (2, 4)], target="schur_s_fraction", n=2,
                          literal_s=0.5),
        "entropy-8x2": dict(dims=[(8, 2)] * 3, target="entropy_n1"),
        "detb-8x2": dict(dims=[(8, 2)] * 3, target="schur_s_fraction", n=2),
        "detb-five": dict(dims=[(2, 2)] * 5, target="schur_s_fraction", n=1),
        "entropy-five": dict(dims=[(2, 2)] * 5, target="entropy_n1"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_search_equals_per_trial_evaluation(self, name):
        # a tolerance of -10 counts every trial as a violation, so every
        # payload is compared
        from rpentropy.positivity import _draw_instance, _evaluate_target, _instance_from_dict
        cfg = SearchConfig(trials=9, master_seed=31, trial_offset=5, tolerance=-10.0,
                           **self.CASES[name])
        report = counterexample_search(cfg)
        assert len(report.violations) == cfg.trials
        for t, result in enumerate(report.violations):
            psi, splits = _draw_instance(cfg, t)
            expected = _evaluate_target(cfg, psi, splits)
            expected["trial"] = cfg.trial_offset + t
            instance = result.pop("instance")
            assert result == expected
            stored_psi, stored_splits = _instance_from_dict(instance)
            assert np.array_equal(stored_psi.schmidt_values, psi.schmidt_values)
            assert np.array_equal(stored_psi.eigenbasis, psi.eigenbasis)
            for stored, split in zip(stored_splits, splits):
                assert np.array_equal(stored.matrix, split.matrix)
            if len(cfg.dims) > 4 and cfg.target == "schur_s_fraction":
                # past four subsystems the orderings report is skipped
                assert result["best_ordering"] == list(range(5))
                assert result["det_b_best"] == result["det_b"]
        slacks = [r["slack"] for r in report.violations]
        assert report.min_slack == min(slacks)
        assert report.min_slack_trial == cfg.trial_offset + slacks.index(min(slacks))

    @pytest.mark.parametrize("target,n", [("entropy_n1", 1), ("integer_n", 2),
                                          ("schur_s_fraction", 1), ("schur_s_fraction", 3)])
    def test_block_equals_single_instances_on_exact_zero_spectra(self, target, n):
        # identity splits make 8x2/8x2 pair spectra with exact zeros, which
        # the stacked entropies mask
        from rpentropy.positivity import (_draw_instance, _evaluate_block, _evaluate_target,
                                          _payload)
        cfg = SearchConfig(dims=[(8, 2)] * 3, trials=4, master_seed=8, target=target, n=n,
                           literal_s=0.3 if target == "schur_s_fraction" else None)
        axis = SubsystemSplit.axis(8, 2)
        instances = [_draw_instance(cfg, t) for t in range(cfg.trials)]
        instances = [(psi, [axis, splits[1], axis]) for psi, splits in instances]
        assert (pair_spectrum(instances[0][0], axis, axis) == 0).any()
        fields = _evaluate_block(cfg, np.array([psi.schmidt_values for psi, _ in instances]),
                                 np.array([[s.matrix for s in splits] for _, splits in instances]))
        for k, (psi, splits) in enumerate(instances):
            assert _payload(fields, k) == _evaluate_target(cfg, psi, splits)

    def test_report_exact_across_jobs_and_blocks(self, monkeypatch):
        # trials 2960..2999 of seed 2024 hold the entropy witness at 2985
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=40, master_seed=2024, trial_offset=2960)
        reference = json.dumps(counterexample_search(cfg).to_dict(), sort_keys=True)
        assert [v["trial"] for v in json.loads(reference)["violations"]] == [2985]
        # a 3 x 2x2 trial has 6 pairs of 16 entries: the default budget holds
        # 42 trials in a block, 1 gives blocks of one trial and one pair per
        # call, 500 blocks of five trials
        for entries in (positivity.STACK_ENTRIES, 1, 500):
            monkeypatch.setattr(positivity, "STACK_ENTRIES", entries)
            for jobs in (1, 2, 3):
                report = counterexample_search(cfg, jobs=jobs).to_dict()
                assert json.dumps(report, sort_keys=True) == reference

    def test_blocks_stay_within_the_budget(self, monkeypatch):
        sizes = []
        evaluate = positivity._evaluate_block

        def recording(cfg, schmidt, mats):
            sizes.append(len(schmidt))
            return evaluate(cfg, schmidt, mats)

        monkeypatch.setattr(positivity, "_evaluate_block", recording)
        monkeypatch.setattr(positivity, "STACK_ENTRIES", 1000)
        # 96 entries per 3 x 2x2 trial: 10 trials per block
        counterexample_search(SearchConfig(dims=[(2, 2)] * 3, trials=45, master_seed=1))
        assert sizes == [10, 10, 10, 10, 5]
        # a trial over the whole budget still runs, one per block
        sizes.clear()
        counterexample_search(SearchConfig(dims=[(4, 4)] * 3, trials=3, master_seed=1))
        assert sizes == [1, 1, 1]

    def test_non_unitary_draws_raise(self, monkeypatch):
        make = positivity.unitary_from_ginibre
        monkeypatch.setattr(positivity, "unitary_from_ginibre", lambda z: make(z) * (1 + 1e-6))
        with pytest.raises(InvalidStateError, match="orthonormality"):
            counterexample_search(SearchConfig(dims=[(2, 2)] * 3, trials=5, master_seed=1))

    def test_every_refine_rotation_is_checked(self, monkeypatch):
        # every split matrix an evaluator call sees has passed _check_unitary
        # before it: the search block's splits, the descent's start, and the
        # rotated split of each rotation proposal, checked as stacked slices
        shapes, checked = [], set()
        check, evaluate = positivity._check_unitary, positivity._evaluate_block

        def recording_check(mat):
            check(mat)
            shapes.append(mat.shape)
            checked.update(m.tobytes() for m in mat.reshape(-1, *mat.shape[-2:]))

        def recording_evaluate(cfg, schmidt, mats):
            assert all(m.tobytes() in checked for m in mats.reshape(-1, *mats.shape[-2:]))
            return evaluate(cfg, schmidt, mats)

        monkeypatch.setattr(positivity, "_check_unitary", recording_check)
        monkeypatch.setattr(positivity, "_evaluate_block", recording_evaluate)
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=20, master_seed=7,
                           target="schur_s_fraction", refine_iterations=50)
        counters = counterexample_search(cfg).refine_counters
        # the block's splits (no eigenbasis), the descent's start, then one
        # stack of rotated splits per block that holds a rotation
        assert shapes[:2] == [(20, 3, 4, 4), (3, 4, 4)]
        rotations = shapes[2:]
        assert len(rotations) > 5 and {shape[1:] for shape in rotations} == {(4, 4)}
        assert max(shape[0] for shape in rotations) > 1
        assert sum(shape[0] for shape in rotations) <= counters["evaluated"]

    def test_violation_instance_is_the_whole_stack_draw(self):
        # the search builds only the splits' unitaries and a violating
        # trial's eigenbasis on its own; both equal the QR of the whole
        # (trials, m + 1, d, d) stack to the last bit.  tolerance = -10
        # makes every trial a violation
        from rpentropy.positivity import _instance_from_dict
        cfg = SearchConfig(dims=[(2, 3), (3, 2), (2, 3)], trials=12, master_seed=17,
                           tolerance=-10.0)
        report = counterexample_search(cfg)
        z = np.array([draw_one(cfg.master_seed, t, cfg.dims)[1] for t in range(cfg.trials)])
        u = unitary_from_ginibre(z)
        assert len(report.violations) == cfg.trials
        for k, violation in enumerate(report.violations):
            psi, splits = _instance_from_dict(violation["instance"])
            assert np.array_equal(psi.eigenbasis, u[k, 0])
            assert all(np.array_equal(split.matrix, u[k, 1 + i]) for i, split in enumerate(splits))

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_detb_slack_independent_of_the_layout_of_b(self, monkeypatch, layout):
        # ||B||_F must not depend on how B lies in memory: a Fortran-ordered
        # B, or one whose last axis has stride 2, gives the fresh
        # C-contiguous B's slack to the last bit, with and without orderings
        def strided(b):
            out = np.zeros(b.shape[:-1] + (2 * b.shape[-1],))[..., ::2]
            out[...] = b
            return out

        second_differences = positivity._second_differences
        relaid = np.asfortranarray if layout == "fortran" else strided
        assert not relaid(np.ones((2, 3, 3))).flags.c_contiguous
        for dims in ([(2, 2)] * 3, [(2, 3), (3, 2), (2, 3), (3, 2)], [(2, 2)] * 6):
            cfg = SearchConfig(dims=dims, trials=40, master_seed=29, target="schur_s_fraction")
            schmidt, mats = block_instances(cfg)
            monkeypatch.setattr(positivity, "_second_differences", second_differences)
            reference = _evaluate_block(cfg, schmidt, mats)
            monkeypatch.setattr(positivity, "_second_differences",
                                lambda s: relaid(second_differences(s)))
            fields = _evaluate_block(cfg, schmidt, mats)
            for key in ("slack", "det_b", "det_b_best"):
                assert np.array_equal(fields[key], reference[key])

    def test_detb_fixed_ordering_is_the_identity_ordering(self):
        # det_b is read from the identity column of the ordering dets; it
        # must equal a det of the fixed-ordering B of its own, stacked and
        # one instance at a time
        from rpentropy.positivity import _second_differences
        for dims in ([(2, 2)] * 3, [(2, 3), (3, 2), (2, 3), (3, 2)], [(2, 2)] * 2):
            cfg = SearchConfig(dims=dims, trials=60, master_seed=23, target="schur_s_fraction")
            fields = _evaluate_block(cfg, *block_instances(cfg))
            b = _second_differences(fields["entropy_table"])
            assert np.array_equal(fields["det_b"], np.linalg.det(b))
            for k in range(cfg.trials):
                assert fields["det_b"][k] == np.linalg.det(b[k])

    def test_shared_index_caches_are_read_only(self):
        from rpentropy.positivity import _orderings, _pair_plan
        plan = _pair_plan((((2, 3), (3, 2), (2, 3)),), 2)
        assert _pair_plan((((2, 3), (3, 2), (2, 3)),), 2) is plan
        perms, index = _orderings(4)
        assert _orderings(4)[1] is index and perms[0] == (0, 1, 2, 3)
        for array in [index] + [a for _, *arrays in plan for a in arrays]:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_pair_plan_layout(self):
        # splits stack flat in instance order and the m x m tables lie flat,
        # row-major; every pair i <= j of every instance is in one run, runs
        # are single-shape and come in first-seen shape order
        from rpentropy.positivity import _pair_plan
        dims = (((2, 3), (3, 2)), ((3, 2), (3, 2), (2, 3)), ((2, 3),) * 4)
        plan = _pair_plan(dims, 4)
        first_split, first_entry, seen = [0, 2, 5], [0, 4, 13], set()
        for (dims_i, dims_j), inst, i, j, ij, ji in plan:
            assert 1 <= len(inst) <= 4
            for k, a, b, at_ij, at_ji in zip(inst, i, j, ij, ji):
                m, a0, b0 = len(dims[k]), a - first_split[k], b - first_split[k]
                assert 0 <= a0 <= b0 < m
                assert (dims[k][a0], dims[k][b0]) == (dims_i, dims_j)
                assert (at_ij, at_ji) == (first_entry[k] + a0 * m + b0,
                                          first_entry[k] + b0 * m + a0)
                seen.add((int(k), int(a0), int(b0)))
        assert seen == {(k, a, b) for k, splits in enumerate(dims)
                        for a in range(len(splits)) for b in range(a, len(splits))}
        a, b = (2, 3), (3, 2)
        assert [(shapes, len(inst)) for shapes, inst, *_ in plan] == [
            ((a, a), 4), ((a, a), 4), ((a, a), 4), ((a, b), 1), ((b, b), 4), ((b, a), 2)]

    def test_verify_witness_defaults_to_the_search_n(self):
        # the stored det-B witness was found at the search's default n = 1
        import os
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "detb_witness.json")
        with open(fixture) as handle:
            data = json.load(handle)
        assert data["n"] == 1
        witness = data["violation"]
        slack = verify_witness(witness, target="schur_s_fraction")
        # the fixture predates the singular-value kernel: agreement to 1e-9
        assert slack == pytest.approx(witness["slack"], rel=1e-9)
        assert slack == verify_witness(witness, target="schur_s_fraction", n=1)
        assert (verify_witness(witness, target="integer_n")
                == verify_witness(witness, target="integer_n", n=2))

    def test_entropy_tables_exact_across_call_sizes(self, monkeypatch):
        # one call per pair, runs of a few pairs and whole shape groups give
        # the same tables, through either pair kernel; the 3 x 8x8 instance
        # reduces one pair per call
        from rpentropy.positivity import _draw_instance, _entropy_tables, _pair_plan
        assert [len(i) for _, _, i, *_ in _pair_plan((((8, 8),) * 3,), 1)] == [1] * 6
        for dims in ([(2, 3), (3, 2), (2, 3), (3, 2)], [(8, 8)] * 3):
            cfg = SearchConfig(dims=dims, trials=3, master_seed=4)
            drawn = [_draw_instance(cfg, t) for t in range(cfg.trials)]
            schmidt = np.array([psi.schmidt_values for psi, _ in drawn])
            mats = np.array([[s.matrix for s in splits] for _, splits in drawn])
            reference = {n: _entropy_tables(schmidt, mats, dims, n) for n in (1, 2)}
            for entries in (1, 100, 1 << 20):
                monkeypatch.setattr(positivity, "STACK_ENTRIES", entries)
                for n, table in reference.items():
                    assert np.array_equal(_entropy_tables(schmidt, mats, dims, n), table)
                    assert np.array_equal(_entropy_tables(schmidt[1], mats[1], dims, n),
                                          table[1])
            monkeypatch.undo()
        # at the default budget, one 8x8 pair matrix fills a call: of the
        # trace-power kernel for n = 2, of the spectrum kernel for n = 1
        for n, name in ((2, "_pair_traces"), (1, "_pair_spectrum")):
            calls, kernel = [], getattr(positivity, name)

            def recording(schmidt_values, mat_i, *rest, kernel=kernel, calls=calls):
                calls.append(mat_i.shape)
                return kernel(schmidt_values, mat_i, *rest)

            monkeypatch.setattr(positivity, name, recording)
            assert np.array_equal(_entropy_tables(schmidt[1], mats[1], dims, n),
                                  reference[n][1])
            assert calls == [(1, 64, 64)] * 6

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([[(2, 2)] * 3, [(2, 3), (3, 2), (2, 3)], [(8, 2)] * 2,
                            [(4, 4), (2, 8), (8, 2)], [(8, 8), (16, 4)],
                            # a flat stack of instances that differ in split
                            # shapes and counts, as a sweep block holds them
                            (((2, 3), (3, 2)), ((3, 2), (3, 2), (2, 3)), ((2, 3),) * 4)]),
           st.floats(0.0, 12.0), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    def test_entropy_tables_equal_per_pair_entropies(self, dims, decades, seed, n):
        # Schmidt spectra spread over up to 12 decades, below the sampler's
        # 1e-6 redraw floor; a stack of three instances against per-pair
        # spectra, and each pair j < i is its reflection's entry.  n = 1
        # shares the spectrum kernel, so it matches to the last bit; n >= 2
        # comes from trace powers, whose exp(-(n-1) S) matches the power sum
        # of the test-only SVD oracle within the kernel tolerance of
        # tests/test_reflected.py
        import functools
        from rpentropy.positivity import _entropy_tables, _pair_entropies, _pair_tables
        per_instance = dims if isinstance(dims, tuple) else [dims] * 3
        rng = np.random.default_rng(seed)
        d = per_instance[0][0][0] * per_instance[0][0][1]
        schmidt = np.sort(np.logspace(0, -decades, d) * rng.uniform(0.5, 1.0, (3, d)))[:, ::-1]
        schmidt /= schmidt.sum(axis=-1, keepdims=True)
        mats = [np.array([haar_unitary(d, rng) for _ in splits]) for splits in per_instance]
        if isinstance(dims, tuple):
            flat = _pair_tables(schmidt, np.concatenate(mats), dims,
                                functools.partial(_pair_entropies, n=n),
                                positivity.STACK_ENTRIES)
            ends = np.cumsum([len(splits) ** 2 for splits in dims])
            tables = [t.reshape(len(splits), -1)
                      for t, splits in zip(np.split(flat, ends[:-1]), dims)]
        else:
            tables = _entropy_tables(schmidt, np.array(mats), dims, n)
        for k, splits_k in enumerate(per_instance):
            psi = PurifiedState(dim=d, schmidt_values=schmidt[k], eigenbasis=np.eye(d))
            splits = [SubsystemSplit(dim_a=a, dim_b=b, coeffs=mat)
                      for (a, b), mat in zip(splits_k, mats[k])]
            for i in range(len(splits)):
                for j in range(i, len(splits)):
                    assert tables[k][i, j] == tables[k][j, i]
                    if n == 1:
                        eigs = pair_spectrum(psi, splits[i], splits[j])
                        assert tables[k][i, j] == von_neumann(eigs)
                    else:
                        eigs = svd_spectrum(psi, splits[i], splits[j])
                        assert np.exp(-(n - 1) * tables[k][i, j]) == pytest.approx(
                            np.sum(eigs ** n), rel=8 * n * d * np.finfo(float).eps)

    def test_integer_index_tables_take_no_svd(self, monkeypatch, tmp_path):
        # S_n for n >= 2 is -log(tr rho^n) / (n - 1): Gram records, the
        # integer_n and det-B n = 2 searches (with the refine descent) and
        # witness re-verification run with the spectrum kernel disabled
        import os
        from rpentropy.cli import main

        def no_svd(*args):
            raise AssertionError("an integer-index table took a pair spectrum")

        monkeypatch.setattr(positivity, "_pair_spectrum", no_svd)
        rng = np.random.default_rng(12)
        for dims in ([(8, 8)] * 3, [(2, 3), (3, 2), (2, 3)]):
            d = dims[0][0] * dims[0][1]
            psi = purify(DensityMatrix.from_matrix(random_density(d, rng)))
            splits = [SubsystemSplit.haar(a, b, rng) for a, b in dims]
            for n in range(2, 6):
                assert check_psd(gram_matrix(psi, splits, n)).passed
        assert main(["search", "--target", "integer_n", "--trials", "40", "--n", "3",
                     "--out", str(tmp_path)]) == 0
        assert main(["search", "--target", "schur_s_fraction", "--n", "2", "--trials", "50",
                     "--seed", "3", "--refine", "300", "--out", str(tmp_path)]) == 0
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "detb_witness.json")
        with open(fixture) as handle:
            witness = json.load(handle)["violation"]
        assert verify_witness(witness, target="integer_n") > 0
        with pytest.raises(AssertionError, match="pair spectrum"):
            entropy_table(psi, splits, 1)

    def test_von_neumann_tables_take_no_svd(self, monkeypatch, tmp_path):
        # S_1 takes eigvalsh of the pair Gram matrix: the entropy_n1 search
        # (its witness at trial 2985 of seed 2024 included), a det-B n = 1
        # search with its descent and witness re-verification run with
        # np.linalg.svd disabled
        from rpentropy.cli import main

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=40, master_seed=2024, trial_offset=2960)
        report = counterexample_search(cfg)
        assert [v["trial"] for v in report.violations] == [2985]
        assert verify_witness(report.violations[0], target="entropy_n1") < -cfg.tolerance
        assert main(["search", "--target", "schur_s_fraction", "--trials", "30", "--seed", "7",
                     "--dims", "2x3,3x2,2x3", "--refine", "200", "--out", str(tmp_path)]) == 0
        with pytest.raises(AssertionError, match="svd was called"):
            np.linalg.svd(np.eye(2))


class TestBlockDraws:
    """`_draw_block` owns stream order: every instance of a block is its own
    stream's one-at-a-time draw (`draw_one`), to the last bit."""

    # at seed 5, instance 55195's first flat Dirichlet draw, at d = 4 and at
    # d = 6, has an entry below EIGENVALUE_REDRAW_FLOOR and is redrawn
    REDRAWN = (5, 55195)

    @pytest.mark.parametrize("dims_list", [
        # 2, 3 and 4 subsystems at d = 6, 2x3 and 3x2 mixed
        [[(2, 3), (3, 2)], [(3, 2), (3, 2), (2, 3)], [(2, 3)] * 4, [(3, 2)] * 2],
        [[(2, 2)] * 3, [(2, 2)] * 4, [(2, 2)] * 2, [(2, 2)] * 3]])
    def test_block_equals_the_one_at_a_time_stream(self, dims_list):
        from rpentropy.sampling import EIGENVALUE_REDRAW_FLOOR
        seed, redrawn = self.REDRAWN
        d = dims_list[0][0][0] * dims_list[0][0][1]
        assert trial_rng(seed, redrawn).dirichlet(np.ones(d)).min() < EIGENVALUE_REDRAW_FLOOR
        indices = [3, redrawn, 0, 17]
        schmidt, z, first = _draw_block(seed, indices, dims_list)
        rows = np.array([1 + len(dims) for dims in dims_list])
        assert first.tolist() == (np.cumsum(rows) - rows).tolist()
        assert schmidt.shape == (4, d) and z.shape == (rows.sum(), d, d)
        assert schmidt.min() >= EIGENVALUE_REDRAW_FLOOR
        for k, (index, dims) in enumerate(zip(indices, dims_list)):
            lam, single = draw_one(seed, index, dims)
            assert schmidt[k].tobytes() == lam.tobytes()
            assert z[first[k]:first[k] + rows[k]].tobytes() == single.tobytes()
            # a one-row block is the same instance
            alone = _draw_block(seed, [index], [dims])
            assert alone[0].tobytes() == lam.tobytes() and alone[1].tobytes() == single.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 9])
    def test_block_seeding_gives_the_default_rng_streams(self, seed):
        # indices of one to four uint32 words (on both sides of 2^32, 2^64
        # and 2^96) put four entropy lengths in one block
        indices = [0, 7, 2**32 - 1, 2**32, 5, 2**32 + 9, 2**64 - 1, 2**64, 2**64 + 11,
                   2**96 + 1, np.int64(3)]
        states = [rng.bit_generator.state for rng in trial_rngs(seed, indices)]
        assert states == [np.random.default_rng((seed, int(k))).bit_generator.state
                          for k in indices]
        assert trial_rngs(seed, range(3))[2].random() == trial_rng(seed, 2).random()

    def test_block_seeding_refuses_negative_values(self):
        # as SeedSequence does
        for seed, indices in ((-1, [0, 1]), (3, [2, -4, 5]), (-(2**40), [2**40])):
            with pytest.raises(ValueError, match="non-negative"):
                trial_rngs(seed, indices)
            with pytest.raises(ValueError, match="non-negative"):
                np.random.default_rng((seed, min(indices)))

    @pytest.mark.parametrize("dims", [[(1, 2), (2, 1)], [(2, 2)] * 3, [(2, 3), (3, 2), (2, 3)],
                                      [(4, 4), (2, 8)], [(8, 8), (4, 16)]])
    @pytest.mark.parametrize("seed", [7373, 2**32 + 1])
    def test_block_equals_per_trial_draws(self, dims, seed):
        # d = 2, 4, 6, 16 and 64: the exponential fill, normalized once per
        # block by its running sum, is each stream's Dirichlet draw
        indices = [4, 2**32 + 1, 0, 99, 12]
        schmidt, z, first = _draw_block(seed, indices, [dims] * len(indices))
        for k, index in enumerate(indices):
            lam, single = draw_one(seed, index, dims)
            assert schmidt[k].tobytes() == lam.tobytes()
            assert z[first[k]:first[k] + len(dims) + 1].tobytes() == single.tobytes()

    def test_redraws_follow_the_one_at_a_time_stream(self, monkeypatch):
        # at a floor of 0.1 about 4 in 5 flat Dirichlet draws at d = 4 have
        # an entry below it, so most instances of the block take the redraw
        # branch, some of them more than once
        floor, seed, dims = 0.1, 11, [(2, 2)] * 3
        monkeypatch.setattr(positivity, "EIGENVALUE_REDRAW_FLOOR", floor)
        monkeypatch.setattr(positivity, "simplex_eigenvalues",
                            functools.partial(simplex_eigenvalues, floor=floor))
        indices = list(range(30, 70))
        schmidt, z, first = _draw_block(seed, indices, [dims] * len(indices))
        first_draws = [trial_rng(seed, k).dirichlet(np.ones(4)).min() for k in indices]
        assert 20 <= sum(m < floor for m in first_draws) < len(indices)
        assert schmidt.min() >= floor
        for k, index in enumerate(indices):
            rng = trial_rng(seed, index)
            lam = np.sort(simplex_eigenvalues(4, rng, floor))[::-1]
            assert schmidt[k].tobytes() == lam.tobytes()
            assert z[first[k]:first[k] + 4].tobytes() == ginibre(4, rng, (4,)).tobytes()

    def test_ginibre_parts_keep_the_stacked_layout(self):
        # `draw_one` and `_draw_block` share sampling's layout, so it is
        # pinned here against a plain standard-normal draw: real parts, then
        # imaginary parts, matrix after matrix, also into a buffer's slice
        from rpentropy.sampling import ginibre_from_parts, ginibre_parts
        raw = np.random.default_rng(9).standard_normal((3, 2, 4, 4))
        stacked = ginibre(4, np.random.default_rng(9), (3,))
        assert stacked.tobytes() == (raw[:, 0] + 1j * raw[:, 1]).tobytes()
        rng = np.random.default_rng(9)
        assert np.array([ginibre(4, rng) for _ in range(3)]).tobytes() == stacked.tobytes()
        buffer = np.zeros((5, 2, 4, 4))
        ginibre_parts(np.random.default_rng(9), buffer[1:4])
        assert buffer[1:4].tobytes() == raw.tobytes() and not buffer[[0, 4]].any()
        assert ginibre_from_parts(buffer[1:4]).tobytes() == stacked.tobytes()

    def test_sweep_and_search_take_the_redrawn_instance(self):
        # both callers read the redrawn spectrum: the Gram matrix the sweep
        # records for that instance is gram_matrix's of the search instance
        from rpentropy.positivity import _draw_instance
        seed, redrawn = self.REDRAWN
        dims = [(2, 3), (3, 2), (2, 3)]
        cfg = SearchConfig(dims=dims, trials=1, master_seed=seed, target="integer_n", n=2,
                           trial_offset=redrawn)
        psi, splits = _draw_instance(cfg, 0)
        assert psi.schmidt_values.tobytes() == draw_one(seed, redrawn, dims)[0].tobytes()
        sweep = theorem_sweep([[(2, 2)] * 2, dims], [2], master_seed=seed, tol=-1.0,
                              trial_offset=redrawn - 1)
        [violation] = [v for v in sweep.violations if v["instance"] == redrawn]
        assert np.asarray(violation["gram"]) == pytest.approx(
            gram_matrix(psi, splits, 2).entries, rel=1e-12)


class TestTheoremSweep:

    def test_small_sweep_passes(self):
        plan = [[(2, 2)] * 2, [(2, 2)] * 3, [(2, 3)] * 2, [(3, 2)] * 3] * 10
        result = theorem_sweep(plan, [2, 3], master_seed=77)
        assert result.instances == len(plan)
        assert result.checks == 2 * len(plan)
        assert not result.violations
        assert result.min_normalized_eig >= -1e-10

    def test_parallel_merge_matches_serial(self):
        plan = [[(2, 2)] * 2, [(2, 3)] * 3] * 6
        serial = theorem_sweep(plan, [2, 4], master_seed=13)
        parallel = theorem_sweep(plan, [2, 4], master_seed=13, jobs=3)
        assert serial.min_normalized_eig == pytest.approx(
            parallel.min_normalized_eig, rel=1e-14)
        assert serial.checks == parallel.checks

    def test_result_exact_across_jobs_and_blocks(self, monkeypatch):
        # tol = -0.5 counts most checks as violations, so their order and
        # their Gram entries are compared as well
        plan = [[(2, 2)] * 2, [(2, 3), (3, 2), (2, 3)], [(4, 4), (2, 8)], [(3, 3)] * 4] * 8
        reference = asdict(theorem_sweep(plan, [2, 3, 5], master_seed=21, tol=-0.5))
        assert reference["instances"] == 32 and reference["checks"] == 96
        assert 0 < len(reference["violations"]) < 96
        # the default budget holds the plan in one block; 1 puts every
        # instance in a block of its own, 2000 about two instances
        for entries in (positivity.SWEEP_BLOCK_ENTRIES, 1, 2000):
            monkeypatch.setattr(positivity, "SWEEP_BLOCK_ENTRIES", entries)
            assert asdict(theorem_sweep(plan, [2, 3, 5], master_seed=21, tol=-0.5)) == reference
            for jobs in (1, 2, 3):
                parallel = theorem_sweep(plan, [2, 3, 5], master_seed=21, tol=-0.5, jobs=jobs)
                assert asdict(parallel) == reference

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_blocks_partition_the_plan_at_equal_cost(self, monkeypatch, jobs):
        # a d-sorted mix of 2-4 subsystems at d = 4, 6, 8, 9 and 16, as in
        # criterion 1: instance costs differ by a factor of 7
        rng = np.random.default_rng(jobs)
        pools = [[(2, 2)], [(2, 3), (3, 2)], [(2, 4), (4, 2)], [(3, 3)], [(4, 4), (2, 8)]]
        plan = [tuple(pool[k % len(pool)] for k in range(m))
                for pool in pools for m in rng.integers(2, 5, 40).tolist()]
        entries = np.array([len(dims) * (len(dims) + 1) // 2 * (dims[0][0] * dims[0][1]) ** 2
                            for dims in plan])
        cost = entries + positivity.SWEEP_INSTANCE_ENTRIES
        for budget in (1 << 17, 20000, 4000):
            monkeypatch.setattr(positivity, "SWEEP_BLOCK_ENTRIES", budget)
            blocks = positivity._sweep_blocks([list(dims) for dims in plan], jobs)
            starts = [start for start, _ in blocks]
            stops = starts[1:] + [len(plan)]
            # contiguous and in order, and together the whole plan
            assert starts[0] == 0 and all(start < stop for start, stop in zip(starts, stops))
            assert [dims for _, block in blocks for dims in block] == plan
            # the least multiple of jobs that can hold the entries, or more
            least = jobs * -(-int(entries.sum()) // (jobs * budget))
            assert len(blocks) % jobs == 0 and len(blocks) >= least
            assert len(blocks) == least or budget < 1 << 17
            assert max(entries[a:b].sum() for a, b in zip(starts, stops)) <= budget
            costs = np.array([cost[a:b].sum() for a, b in zip(starts, stops)])
            assert np.abs(costs - cost.sum() / len(blocks)).max() <= cost.max()

    def test_a_plan_under_the_floor_is_one_block(self):
        # a 2 x 2x2 instance costs 48 entries plus the fixed 320: 44 of them
        # stay under SWEEP_BLOCK_ENTRIES // 8, and 45 do not
        per = 48 + positivity.SWEEP_INSTANCE_ENTRIES
        under = positivity.SWEEP_BLOCK_ENTRIES // 8 // per
        assert under == 44
        for jobs in (1, 2, 4):
            assert len(positivity._sweep_blocks([[(2, 2)] * 2] * under, jobs)) == 1
            assert len(positivity._sweep_blocks([[(2, 2)] * 2] * (under + 1), jobs)) == jobs
        # one instance over the budget is a block of its own
        big = [[(16, 16)] * 3]
        assert [start for start, _ in positivity._sweep_blocks(big * 3, 2)] == [0, 1, 2]

    def test_sweep_draws_the_search_instance(self):
        # the stacked sweep must give exactly the Gram of per-pair trace
        # powers on the search's instance, also in the second slot of a
        # block; tol = -1 records every check.  The power sums of the
        # test-only SVD oracle agree within the kernel tolerance of
        # tests/test_reflected.py
        from rpentropy.positivity import _draw_instance, _gram_spectrum
        from rpentropy.reflected import _pair_traces
        seed, dims, n_values = 91, [(2, 3), (3, 2), (2, 3)], [2, 3, 4]
        sweep = theorem_sweep([[(2, 2)] * 2, dims], n_values, master_seed=seed,
                              tol=-1.0, trial_offset=4)
        cfg = SearchConfig(dims=dims, trials=1, master_seed=seed, target="integer_n", n=2,
                           trial_offset=5)
        psi, splits = _draw_instance(cfg, 0)
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        traces = {(i, j): _pair_traces(psi.schmidt_values, splits[i].matrix,
                                       splits[j].matrix, dims[i], dims[j], n_values)
                  for i, j in pairs}
        spectra = {(i, j): svd_spectrum(psi, splits[i], splits[j]) for i, j in pairs}
        recorded = [v for v in sweep.violations if v["instance"] == 5]
        assert [v["n"] for v in recorded] == n_values
        for k, (n, violation) in enumerate(zip(n_values, recorded)):
            g = np.empty((3, 3))
            for (i, j), values in traces.items():
                g[i, j] = g[j, i] = values[k]
                power_sum = np.sum(spectra[i, j] ** n)
                assert values[k] == pytest.approx(
                    power_sum, rel=8 * n * psi.dim * np.finfo(float).eps)
            g, _, eigvals, _ = _gram_spectrum(g)
            assert violation["gram"] == g.tolist()
            assert violation["min_eigenvalue"] == eigvals[0]

    def test_sweep_takes_no_svd(self, monkeypatch):
        # integer-index Gram entries are trace powers of the pair matrix:
        # the sweep runs to completion with the spectrum kernel disabled
        def no_svd(*args):
            raise AssertionError("the theorem sweep took a pair spectrum")

        monkeypatch.setattr(positivity, "_pair_spectrum", no_svd)
        plan = [[(2, 2)] * 2, [(2, 3), (3, 2), (2, 3)], [(4, 4), (2, 8)]] * 3
        result = theorem_sweep(plan, [1, 2, 3, 5], master_seed=3)
        assert result.checks == 4 * len(plan) and not result.violations

    def test_renyi_indices_below_one_raise(self):
        # n = 0 would count zero-padded eigenvalues; no trace power exists there
        for n_values in ([0], [-1], [2, 0, 3], [2.5]):
            with pytest.raises(ValueError, match="integers >= 1"):
                theorem_sweep([[(2, 2)] * 2], n_values, master_seed=1)

    def test_invalid_plans_raise(self):
        with pytest.raises(ValueError, match="same total dimension"):
            theorem_sweep([[(2, 2)] * 2, [(2, 2), (2, 3)]], [2], master_seed=1)
        with pytest.raises(ValueError, match="at least two subsystems"):
            theorem_sweep([[(2, 2)] * 2, [(2, 3)]], [2], master_seed=1)

    def test_pool_keeps_jobs_minus_one_workers(self, serial_pools, monkeypatch):
        # the plan is validated once, before the pool; a stand-in executor
        # records each pool's size and runs its tasks in this process
        validated = []
        validate = positivity._validated_dims

        def recording(dims):
            validated.append(dims)
            return validate(dims)

        # 416 entries of cost per 3 x 2x2 instance: 200 are over the floor
        plan = [[(2, 2)] * 3] * 200
        reference = asdict(theorem_sweep(plan, [2, 3], master_seed=5))
        assert serial_pools == []
        monkeypatch.setattr(positivity, "_validated_dims", recording)
        for _ in range(2):
            assert asdict(theorem_sweep(plan, [2, 3], master_seed=5, jobs=4)) == reference
        assert serial_pools == [3] and len(validated) == 2 * len(plan)
        # 48 entries per 2 x 2x2 trial: three trials are three blocks, and
        # five jobs replace the pool of three workers
        monkeypatch.setattr(positivity, "STACK_ENTRIES", 48)
        counterexample_search(SearchConfig(dims=[(2, 2)] * 2, trials=3, master_seed=1), jobs=5)
        assert serial_pools == [3, 4]
        # a plan under the floor runs in this process at any jobs
        theorem_sweep([[(2, 2)] * 2] * 44, [2, 3], master_seed=5, jobs=3)
        assert serial_pools == [3, 4] and list(positivity._POOL) == [5]

    def test_empty_plan_and_empty_n(self):
        # a plan of no instances has no minimum to report (it once returned
        # inf, which a JSON report cannot hold)
        with pytest.raises(ValueError, match="empty"):
            theorem_sweep([], [2], 1)
        with pytest.raises(ValueError, match="empty"):
            theorem_sweep([], [2, 3], master_seed=1, jobs=2)
        no_n = theorem_sweep([[(2, 2)] * 2] * 3, [], master_seed=1)
        assert (no_n.instances, no_n.checks, no_n.violations) == (3, 0, [])


class TestPoolMap:
    """`_pool_map` is the one merge of block results.  It runs the first
    run of blocks in this process and the others on a pool of jobs - 1
    worker processes that lives until jobs changes, the pool breaks or the
    interpreter exits."""

    @staticmethod
    def worker(k, tag):
        # outputs of k rows: a (k, 2) array, a (k,) array, a k-item list and
        # the process that ran it, k times
        rows = 10 * k + np.arange(k)
        return (np.stack((rows, -rows), axis=-1), rows.astype(float), [f"{tag}{k}"] * k,
                [os.getpid()] * k)

    def test_caller_runs_the_first_run_and_the_pool_stays(self):
        blocks = [(3,), (0,), (1,), (4,)]
        rows = np.array([30, 31, 32, 10, 40, 41, 42, 43])
        labels = ["b3"] * 3 + ["b1"] + ["b4"] * 4
        pools = []
        # the first run is ceil(4 / jobs) blocks: all 8 rows at jobs = 1,
        # else the 3 rows of block (3,) and the empty (0,)
        for jobs, first in ((1, 8), (2, 3), (2, 3), (3, 3), (5, 3)):
            pairs, values, names, pids = positivity._pool_map(self.worker, blocks, jobs, "b")
            assert np.array_equal(pairs, np.stack((rows, -rows), axis=-1))
            assert np.array_equal(values, rows) and values.dtype == float
            assert names == labels
            assert pids[:first] == [os.getpid()] * first and os.getpid() not in pids[first:]
            pools.append(positivity._POOL.get(jobs))
        assert pools[0] is None and pools[1] is pools[2]
        assert len({id(pool) for pool in pools[1:]}) == 3 and list(positivity._POOL) == [5]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_killed_worker_is_replaced(self, monkeypatch, jobs):
        # one pool task per worker: the replacement pool is built once and
        # runs every pool task of the call
        import concurrent.futures
        built = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        plan = [[(2, 2)] * 3] * 200
        reference = asdict(theorem_sweep(plan, [2, 3], master_seed=8))
        assert len(positivity._sweep_blocks(plan, jobs)) == jobs
        assert asdict(theorem_sweep(plan, [2, 3], master_seed=8, jobs=jobs)) == reference
        pool = positivity._POOL[jobs]
        os.kill(pool.submit(os.getpid).result(), signal.SIGKILL)
        assert asdict(theorem_sweep(plan, [2, 3], master_seed=8, jobs=jobs)) == reference
        assert positivity._POOL[jobs] is not pool and built == [jobs - 1] * 2

    def test_interpreter_exit_joins_the_workers(self):
        # the pool is shut down at exit: the child exits 0 with nothing on
        # stderr, and its worker is gone when it has exited
        script = ("import os\nfrom rpentropy import positivity\n"
                  "positivity.theorem_sweep([[(2, 2)] * 3] * 200, [2, 3], 1, jobs=2)\n"
                  "print(positivity._POOL[2].submit(os.getpid).result())\n")
        src = str(Path(positivity.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0 and out.stderr == ""
        with pytest.raises(ProcessLookupError):
            os.kill(int(out.stdout), 0)

    def test_one_block_builds_no_pool(self, serial_pools):
        # 3 x 2x2 search trials: 42 to a block; a 2 x 2x2 sweep instance
        # has 48 of the sweep block's 2^17 entries
        report = counterexample_search(SearchConfig(dims=[(2, 2)] * 3, trials=42,
                                                    master_seed=1), jobs=4)
        sweep = theorem_sweep([[(2, 2)] * 2] * 20, [2, 3], master_seed=1, jobs=4)
        assert report.trials_run == 42 and sweep.checks == 40
        assert serial_pools == []

    def test_one_sweep_function(self):
        assert theorem_sweep_parallel is theorem_sweep


class TestPrefetchedRefine:
    """`_refine` evaluates blocks of proposals drawn as if each were rejected
    and rewinds to the first accepted one; its (payload, steps) must be the
    sequential descent's, bit for bit."""

    DETB = dict(dims=[(2, 2)] * 3, target="schur_s_fraction", n=1)
    CASES = {
        # the search workload's descent: 138 steps to the witness
        "detb-seed7": (dict(DETB, trials=200, master_seed=7, refine_iterations=20000), 138),
        # the budget runs out mid-block without a witness
        "budget-ends": (dict(DETB, trials=200, master_seed=7, refine_iterations=50), 50),
        # an unreachable target: the descent stalls past 300 rejections and
        # shrinks its scale, with refine_floor skips on the way
        "stall-shrink": (dict(dims=[(2, 2)] * 2, target="entropy_n1", trials=1, master_seed=3,
                              tolerance=10.0, refine_iterations=700, refine_scale=2.0), 700),
        # large moves: many spectra fall below refine_floor and are skipped
        "floor-skips": (dict(DETB, trials=1, master_seed=5, refine_iterations=400,
                             refine_scale=3.0, refine_floor=1e-3), 170),
        # past four subsystems det-B skips the orderings
        "five-subsystems": (dict(DETB, dims=[(2, 2)] * 5, trials=400, master_seed=3,
                                 refine_iterations=500), 115),
        "entropy-n1": (dict(dims=[(2, 2)] * 3, target="entropy_n1", trials=1, master_seed=3,
                            refine_iterations=300), 300),
        "literal-s": (dict(DETB, n=2, literal_s=0.5, trials=1, master_seed=3,
                           refine_iterations=300), 300),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_trajectory_equals_the_sequential_descent(self, name):
        kwargs, steps = self.CASES[name]
        cfg = SearchConfig(**kwargs)
        start = counterexample_search(SearchConfig(**dict(kwargs, refine_iterations=0)))
        expected = sequential_refine(cfg, start.min_slack_trial)
        payload, used, counters = positivity._refine(cfg, start.min_slack_trial)
        assert (payload, used) == expected
        assert used == steps
        assert (payload is None) == (steps == cfg.refine_iterations)
        # proposals evaluated in sequence order, before each accepted one and
        # in fully rejected blocks, plus skips make up the steps
        committed = counters["evaluated"] - counters["discarded"]
        assert committed <= used and counters["accepted"] <= counters["blocks"]
        if name == "stall-shrink":
            assert counters["shrinks"] >= 1 and committed < used
        if name == "floor-skips":
            assert committed < used

    def test_rewinds_under_long_stalls(self, monkeypatch):
        # a stand-in evaluator whose slack is a fixed pseudo-random number in
        # [0, 1) per proposal: improvements get rarer as the descent goes on,
        # so stalls pass 300 again and again (a shrink each time), and large
        # moves make skips.  Every proposal the sequential descent evaluates
        # must be evaluated, bit for bit and in the same order, up to each
        # block's first improvement
        calls = []

        def fake(cfg, schmidt, mats):
            slack = np.mod(1e4 * (schmidt[:, 0] + mats[:, :, 0, 0].real.sum(-1)), 1.0)
            calls.append(list(zip(schmidt.copy(), mats.copy(), slack)))
            return {"slack": slack}

        def sequence():
            (_, _, best), = calls[0]
            evaluated = []
            for block in calls[1:]:
                for schmidt, mats, slack in block:
                    evaluated.append((schmidt, mats))
                    if slack < best:
                        best = slack
                        break
            calls.clear()
            return evaluated

        monkeypatch.setattr(positivity, "_evaluate_block", fake)
        # the oracle below calls its own module's reference
        monkeypatch.setattr(oracles, "_evaluate_block", fake)
        # blocks of up to 682 proposals, so that an accept and a shrink the
        # rewind must undo often share a block
        monkeypatch.setattr(positivity, "STACK_ENTRIES", 1 << 16)
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=1, master_seed=2, tolerance=-2e-5,
                           refine_iterations=3000, refine_scale=2.0, refine_floor=1e-3)
        expected = sequential_refine(cfg, 0)
        expected_sequence = sequence()
        payload, used, counters = positivity._refine(cfg, 0)
        assert (payload, used) == expected
        assert counters["shrinks"] >= 3
        evaluated = sequence()
        # the proposals before each accepted one and in fully rejected
        # blocks; the skipped iterations make up the rest
        assert len(evaluated) == len(expected_sequence) == (counters["evaluated"]
                                                            - counters["discarded"]) < used
        for (schmidt, mats), (schmidt_0, mats_0) in zip(evaluated, expected_sequence):
            assert np.array_equal(schmidt, schmidt_0) and np.array_equal(mats, mats_0)

    def test_blocks_stay_within_the_stack_budget(self, monkeypatch):
        # a 3 x 4x4 proposal has 6 pairs of 256 entries: two per block at
        # the default budget; a budget of one instance is the sequential
        # descent, one call per proposal
        sizes = []
        evaluate = positivity._evaluate_block

        def recording(cfg, schmidt, mats):
            sizes.append(len(schmidt))
            return evaluate(cfg, schmidt, mats)

        monkeypatch.setattr(positivity, "_evaluate_block", recording)
        cfg = SearchConfig(dims=[(4, 4)] * 3, trials=1, master_seed=1,
                           target="schur_s_fraction", refine_iterations=60)
        reference = sequential_refine(cfg, 0)
        sizes.clear()
        assert positivity._refine(cfg, 0)[:2] == reference
        assert max(sizes) == 2 and sizes[0] == 1
        monkeypatch.setattr(positivity, "STACK_ENTRIES", 1)
        sizes.clear()
        payload, used, counters = positivity._refine(cfg, 0)
        assert (payload, used) == reference
        assert set(sizes) == {1} and counters["discarded"] == 0
