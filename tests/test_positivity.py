import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpentropy.modular import DensityMatrix, InvalidStateError, purify
from rpentropy.positivity import (GramRecord, SearchConfig, check_psd,
                                  counterexample_search, divisibility_matrix,
                                  divisibility_over_orderings, entropy_table,
                                  gram_matrix, schur_power, theorem_sweep,
                                  theorem_sweep_parallel, three_set_inequality,
                                  verify_witness)
from rpentropy.reflected import SubsystemSplit
from rpentropy.sampling import random_density


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
        # singular-value entropy route vs literal matrix powers of the
        # brute-force oracle, also where the splits' dim_a differ, so that the
        # pairs j < i filled by symmetry come from a density of another shape
        from rpentropy.reflected import brute_force_reflected
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

    def test_sweep_matches_gram_matrix(self):
        # the sweep's inline trace-power path must agree with gram_matrix on
        # the instance drawn from the same trial stream
        from rpentropy.positivity import _draw_instance
        seed, dims = 91, [(2, 3)] * 3
        sweep = theorem_sweep([dims], [4], master_seed=seed)
        cfg = SearchConfig(dims=dims, trials=1, master_seed=seed,
                           target="integer_n", n=4)
        psi, splits = _draw_instance(cfg, 0)
        record = gram_matrix(psi, splits, n=4)
        assert sweep.worst["min_eigenvalue"] == pytest.approx(
            record.min_eigenvalue, rel=1e-9, abs=1e-12)


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

    def test_schur_square_of_pass_passes(self):
        record, _, _ = random_gram(11, m1=3, n=2)
        assert check_psd(record).passed
        assert check_psd(schur_power(record, 2)).passed


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
        record = divisibility_matrix(table, marginals_i=marg_i, marginals_j=marg_j)
        assert record.cross_check_dev <= 1e-10

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
        from rpentropy.positivity import run_trial
        result = run_trial(cfg, 0)
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
        parallel = theorem_sweep_parallel(plan, [2, 4], master_seed=13, jobs=3)
        assert serial.min_normalized_eig == pytest.approx(
            parallel.min_normalized_eig, rel=1e-14)
        assert serial.checks == parallel.checks
