import functools
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpentropy import positivity, sampling
from rpentropy.modular import DensityMatrix, InvalidStateError, PurifiedState, purify
from rpentropy.positivity import (GramRecord, SearchConfig, check_psd,
                                  counterexample_search, divisibility_matrix, entropy_table,
                                  gram_matrix, theorem_sweep, theorem_sweep_parallel,
                                  verify_witness)
from rpentropy.positivity import _draw_block, _evaluate_block, trial_rng, unitary_from_ginibre
from rpentropy.reflected import (SubsystemSplit, _gram_eigenvalues, _pair_gram, _pair_operands,
                                 von_neumann)
from rpentropy.sampling import (ginibre, ginibre_from_parts, haar_unitary, random_density,
                                simplex_eigenvalues, trial_rngs)
from rpentropy.spectral import EntropyCurve, SpectralDensity, fit_grid, fit_power_density

import oracles
from oracles import (b_from_mutual, brute_force_reflected, draw_one, replica_factor,
                     sequential_refine, svd_spectrum, three_set_inequality)


def kernel_spectrum(psi, split_i, split_j):
    """Spectrum of rho_{A_i Abar_j} as the tables take it: the eigenvalues
    of the pair Gram matrix (`_pair_gram`, `_gram_eigenvalues`)."""
    m = _pair_gram(*_pair_operands(psi.schmidt_values, split_i.matrix, split_j.matrix),
                   (split_i.dim_a, split_i.dim_b), (split_j.dim_a, split_j.dim_b))
    return _gram_eigenvalues(m)


def block_instances(cfg: SearchConfig):
    """(Schmidt values (trials, d), split unitaries (trials, m, d, d)) of
    the search's trials, from one `_draw_block` call."""
    schmidt, u, _ = _draw_block(cfg.master_seed, range(cfg.trials), [cfg.dims] * cfg.trials)
    return schmidt, u.reshape(cfg.trials, len(cfg.dims), cfg.dim, cfg.dim)


@pytest.fixture
def serial_pools(monkeypatch):
    """A stand-in executor: records the worker count of each pool built and
    runs each submitted call in this process as it is submitted, so no
    process starts and no initializer runs."""
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def die_once(marker: str) -> tuple:
    """A pool worker for `_pool_map`: ([the pid that ran it],), except that
    a process that finds the file `marker` removes it and kills itself."""
    if os.path.exists(marker):
        os.unlink(marker)
        os.kill(os.getpid(), signal.SIGKILL)
    return ([os.getpid()],)


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
        cfg = SearchConfig(dims=dims, trials=1, master_seed=17)
        psi, splits = _draw_instance(cfg, 42)
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


@pytest.mark.parametrize("call", [
    lambda: check_psd(np.eye(2), tol=1e-10),
    lambda: theorem_sweep([[(2, 2)] * 2], [2], 1, trial_offset=0),
    lambda: SearchConfig(dims=[(2, 2)] * 2, trials=1, master_seed=0, trial_offset=0),
    lambda: simplex_eigenvalues(4, np.random.default_rng(0), floor=1e-6),
    lambda: fit_grid(np.array([1.0, 2.0]), 10, margins=(0.03, 40.0)),
    lambda: fit_power_density(EntropyCurve(x=np.array([1.0, 2.0]), s=np.array([0.1, 0.2]),
                                           lam=1.0), margins=(0.03, 40.0)),
    lambda: SpectralDensity(p2_grid=np.array([1.0]), weights=np.array([1.0]), delta_p0=1e-8)],
    ids=["check_psd-tol", "theorem_sweep-trial_offset", "SearchConfig-trial_offset",
         "simplex_eigenvalues-floor", "fit_grid-margins", "fit_power_density-margins",
         "SpectralDensity-delta_p0"])
def test_retired_keywords_raise(call):
    # each of these values has one setting, a module constant, and no keyword
    with pytest.raises(TypeError, match="unexpected keyword"):
        call()


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

    @pytest.mark.parametrize("entries", [[[1.0, 0.5], [0.5, 1.0]], [[1.0, 2.0], [2.0, 1.0]]])
    def test_record_verdict_reads_the_record_spectrum(self, entries, monkeypatch):
        # a record's one `_gram_spectrum` is the verdict's: no eigh runs,
        # and the verdict is the matrix's own, witness included
        record = GramRecord(n=2, lam=1.0, entries=np.array(entries),
                            entropy_table=np.zeros((2, 2)))
        reference = check_psd(record.entries)

        def no_eigh(*args, **kwargs):
            raise AssertionError("check_psd of a record took a spectrum")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        verdict = check_psd(record)
        assert (verdict.passed, verdict.min_eigenvalue, verdict.scale) == (
            reference.passed, reference.min_eigenvalue, reference.scale)
        assert verdict.passed == (entries[0][1] < 1.0)
        if verdict.passed:
            assert verdict.witness is None and reference.witness is None
        else:
            assert np.array_equal(verdict.witness, reference.witness)

    def test_record_is_frozen(self):
        import dataclasses
        record, _, _ = random_gram(11, m1=3, n=2)
        for name in ("n", "lam", "entries", "entropy_table", "min_eigenvalue", "scale",
                     "eigenvectors"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))

    def test_schur_square_of_pass_passes(self):
        # the entrywise square of tr rho^2 entries is the Gram record at lam = 2 (n - 1)
        record, psi, splits = random_gram(11, m1=3, n=2)
        assert check_psd(record).passed
        assert check_psd(gram_matrix(psi, splits, 2, lam=2 * (2 - 1))).passed

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
    # the entrywise s-th power of a Gram record of n is the record at
    # lam = s (n - 1), and stays PSD for integer s (Schur product theorem)

    def test_size_is_the_split_count(self):
        # the size is read off the entries and cannot be passed
        record, _, splits = random_gram(13, m1=3)
        assert record.size == record.entries.shape[0] == len(splits)
        with pytest.raises(TypeError):
            GramRecord(n=2, lam=1.0, entries=record.entries,
                       entropy_table=record.entropy_table, size=3)

    def test_integer_powers_stay_psd(self):
        for seed in (17, 23):
            record, psi, splits = random_gram(seed, m1=3, n=2)
            for s in (2, 3):
                powered = gram_matrix(psi, splits, 2, lam=s * (2 - 1))
                assert np.allclose(powered.entries, record.entries ** s, rtol=1e-13, atol=0)
                assert check_psd(powered).passed


class TestRenyiIndex:
    # one gate for every entry point that takes n: an integral number >= 1
    # runs as an int, and a bool, a non-integer or n < 1 is refused.  2.5 and
    # 2.0 once failed deep in the trace-power ladder with a TypeError, and
    # True ran as n = 1

    BAD = [2.5, 0, -1, True, np.True_, math.nan, math.inf, "2"]
    MESSAGE = "Renyi index must be >= 1 and an integer"

    @pytest.mark.parametrize("n", BAD, ids=repr)
    def test_gram_matrix_and_entropy_table_refuse(self, n):
        _, psi, splits = random_gram(5, m1=2)
        with pytest.raises(ValueError, match=self.MESSAGE):
            gram_matrix(psi, splits, n, lam=1.0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            entropy_table(psi, splits, n)

    @pytest.mark.parametrize("n", BAD, ids=repr)
    def test_search_witness_and_sweep_refuse(self, n):
        for target in positivity.TARGETS:
            with pytest.raises(ValueError, match=self.MESSAGE):
                SearchConfig(dims=[(2, 2)] * 2, trials=1, master_seed=0, target=target, n=n)
        with open(Path(__file__).parent / "fixtures" / "detb_witness.json") as handle:
            witness = json.load(handle)["violation"]
        with pytest.raises(ValueError, match=self.MESSAGE):
            verify_witness(witness, target="schur_s_fraction", n=n)
        with pytest.raises(ValueError, match=self.MESSAGE):
            theorem_sweep([[(2, 2)] * 2], [2, n], master_seed=1)

    def test_integral_numbers_run_as_ints(self):
        from rpentropy.serialize import canonical_dumps
        _, psi, splits = random_gram(5, m1=3)
        for n in (2.0, np.int64(2), np.float64(2.0)):
            record = gram_matrix(psi, splits, n)
            assert type(record.n) is int and record.n == 2
            assert np.array_equal(record.entries, gram_matrix(psi, splits, 2).entries)
            assert np.array_equal(entropy_table(psi, splits, n), entropy_table(psi, splits, 2))
        base = dict(dims=[(2, 2)] * 3, trials=30, master_seed=3, target="schur_s_fraction")
        cfg = SearchConfig(**base, n=3.0)
        assert type(cfg.n) is int and cfg.n == 3
        assert canonical_dumps(counterexample_search(cfg).to_dict()) \
            == canonical_dumps(counterexample_search(SearchConfig(**base, n=3)).to_dict())
        plan = [[(2, 2)] * 2, [(2, 3)] * 3]
        assert theorem_sweep(plan, [2.0, np.int64(3)], 1) == theorem_sweep(plan, [2, 3], 1)


class TestReplicaFactor:
    # the paper's proof as an oracle: tr rho_{A_i Abar_j}^n is the inner
    # product of one vector per split, so the integer-index Gram matrix is
    # W W^dag (`replica_factor`), built without a reflected density

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.sampled_from([2, 3]), st.integers(2, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_gram_is_the_replica_factor_square(self, d, n, m, seed):
        rng = np.random.default_rng(seed)
        shapes = [(a, d // a) for a in range(1, d + 1) if d % a == 0]
        dims = [shapes[k] for k in rng.integers(len(shapes), size=m)]
        schmidt = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        mats = np.array([haar_unitary(d, rng) for _ in dims])
        w = replica_factor(schmidt, mats, dims, n)
        gram = np.exp(-(n - 1) * positivity._entropy_tables(schmidt, mats, dims, n))
        assert np.max(np.abs(w @ w.conj().T - gram) / gram) <= 1e-13


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

    def test_b_of_a_table_within_the_symmetry_gate_takes_the_verdict(self):
        # an asymmetry of 1e-7 in entries of 1000 passes the table's gate;
        # its B, of entries near 1, once failed the verdict's own gate
        table = np.full((3, 3), 1000.0) + np.diag([0.0, 1.0, 0.0])
        table[0, 1] += 1e-7
        b = divisibility_matrix(table).b_matrix
        assert np.array_equal(b, b.T)
        assert not check_psd(b).passed

    def test_rejects_a_table_below_two_splits(self):
        with pytest.raises(ValueError, match="square with size >= 2"):
            divisibility_matrix(np.ones((1, 1)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def test_det_b_is_the_same_under_every_ordering(self, size, seed):
        # reordering the subsystems by P maps B to M B M^T with D P = M D,
        # M integral and unimodular, so one det serves every ordering.  Each
        # ordering sums B's entries from S in its own order, which rounds at
        # eps max|S|, however small B is: the bound carries max|S| too
        raw = np.random.default_rng(seed).uniform(0.05, 3.0, size=(size, size))
        table = 0.5 * (raw + raw.T)
        perms = np.array(list(itertools.permutations(range(size))))
        b = positivity._second_differences(table[perms[:, :, None], perms[:, None, :]])
        dets = np.linalg.det(b)
        scale = np.max(np.linalg.norm(b, axis=(-2, -1))) + np.abs(table).max()
        bound = 64 * np.finfo(float).eps * scale ** (size - 1)
        assert dets[0] == divisibility_matrix(table).det_b
        assert np.max(np.abs(dets - dets[0])) <= bound

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

    @pytest.mark.parametrize("part", ["premise", "verdict"])
    def test_det_b_misses_a_b_with_negative_eigenvalues(self, part):
        # infinite divisibility needs B >= 0 (Schoenberg).  det B passed a B
        # with an even number of negative eigenvalues, and |det B| / ||B||_F^m
        # cannot clear COUNTEREXAMPLE_TOL from m = 13 splits on: at 24 2x2
        # splits and seed 7, 45 of 100 instances have lambda_min(B) < -1e-6
        # ||B||_2, and the det slack reported none of them.  The search must
        # report exactly those
        cfg = SearchConfig(dims=[(2, 2)] * 24, trials=100, master_seed=7,
                           target="schur_s_fraction")
        schmidt, u = block_instances(cfg)
        eigs = np.linalg.eigvalsh(positivity._second_differences(
            positivity._entropy_tables(schmidt, u, cfg.dims, cfg.n)))
        negative = np.flatnonzero(eigs[:, 0] < -cfg.tolerance * np.abs(eigs).max(axis=1))
        if part == "premise":
            assert negative.size >= 1
        else:
            reported = [v["trial"] for v in counterexample_search(cfg).violations]
            assert reported == negative.tolist()

    def test_two_negative_eigenvalues_fail_the_verdict(self, monkeypatch):
        # B = diag(-1, -1, 2) has det B = 2 > 0, and det B / ||B||_F^3 =
        # 0.136 passed it.  S_ij = c + a_i + a_j - sum_{k<i, l<j} B_kl has
        # that B: the sum inverts the second differences, and c + a_i + a_j
        # is in their kernel
        b = np.diag([-1.0, -1.0, 2.0])
        cumulative = np.tril(np.ones((4, 3)), -1)
        a = np.array([0.3, 0.1, 0.4, 0.2])
        table = 2.0 + a[:, None] + a[None, :] - cumulative @ b @ cumulative.T
        record = divisibility_matrix(table)
        assert np.allclose(record.b_matrix, b, atol=1e-14) and record.det_b > 0
        assert record.det_b / np.linalg.norm(record.b_matrix) ** 3 > positivity.COUNTEREXAMPLE_TOL
        verdict = check_psd(record.b_matrix)
        assert not verdict.passed
        assert verdict.min_eigenvalue / verdict.scale == pytest.approx(-0.5, rel=1e-14)
        cfg = SearchConfig(dims=[(2, 2)] * 4, trials=1, master_seed=0, target="schur_s_fraction")
        monkeypatch.setattr(positivity, "_entropy_tables", lambda *args: table[None])
        fields = _evaluate_block(cfg, *block_instances(cfg))
        assert fields["slack"][0] == pytest.approx(-0.5, rel=1e-14)
        assert fields["det_b"][0] == record.det_b

    def test_slack_sign_is_det_b_sign_at_three_subsystems(self):
        # a 2 x 2 B has one negative eigenvalue exactly where det B < 0;
        # with two it would fail the slack alone.  None of 5,000 seeded
        # instances violates, and the stored descent witness does, by both
        from rpentropy.positivity import _evaluate_target, _instance_from_dict
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=5000, master_seed=3,
                           target="schur_s_fraction")
        fields = _evaluate_block(cfg, *block_instances(cfg))
        assert np.array_equal(fields["slack"] < 0, fields["det_b"] < 0)
        with open(Path(__file__).parent / "fixtures" / "detb_witness.json") as handle:
            witness = _evaluate_target(cfg, *_instance_from_dict(
                json.load(handle)["violation"]["instance"]))
        assert witness["slack"] < -10 * cfg.tolerance and witness["det_b"] < 0

    def test_slack_sign_is_the_same_under_reordering(self):
        # reordering the subsystems maps B to M B M^T with M unimodular, so
        # B keeps its inertia (Sylvester) while lambda_min(B) / ||B||_2 may
        # move: every slack keeps its sign, at 24 2x2 splits too
        cfg = SearchConfig(dims=[(2, 2)] * 24, trials=40, master_seed=7,
                           target="schur_s_fraction")
        schmidt, mats = block_instances(cfg)
        slack = _evaluate_block(cfg, schmidt, mats)["slack"]
        assert np.any(slack < -cfg.tolerance) and np.all(np.abs(slack) > 1e-9)
        rng = np.random.default_rng(24)
        for _ in range(3):
            permuted = _evaluate_block(cfg, schmidt, mats[:, rng.permutation(24)])["slack"]
            assert np.array_equal(np.sign(permuted), np.sign(slack))


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
        # B not PSD is the s -> 0 limit; the stored witness must therefore
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

    @pytest.mark.parametrize("n", [1, 3])
    def test_literal_power_at_each_n(self, n):
        # the literal power is exp(-s S_1) at n = 1, the hand computation
        # of the test above (exp(-s (n - 1) S_1) is all ones there and
        # checks nothing); for n >= 2 it is exp(-s (n - 1) S_n)
        from rpentropy.positivity import _evaluate_target, _instance_from_dict
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "detb_witness.json")
        with open(fixture) as handle:
            psi, splits = _instance_from_dict(json.load(handle)["violation"]["instance"])
        cfg = SearchConfig(dims=[(s.dim_a, s.dim_b) for s in splits], trials=1, master_seed=0,
                           target="schur_s_fraction", n=n, literal_s=0.1)
        result = _evaluate_target(cfg, psi, splits)
        powered = np.exp(-0.1 * max(n - 1, 1) * entropy_table(psi, splits, n=n))
        expected = np.linalg.eigvalsh(0.5 * (powered + powered.T)).min()
        assert result["literal_s_min_eigenvalue"] == pytest.approx(expected, rel=1e-9)
        if n == 1:
            assert result["literal_s_min_eigenvalue"] < -1e-7

    @pytest.mark.parametrize("dims", [[(1, 4)] * 2, [(4, 1)] * 2, [(1, 9)] * 2, [(1, 4)] * 3])
    def test_detb_on_trivial_splits_finds_nothing(self, dims):
        # every entropy of a 1 x d split is 0 in exact arithmetic, so B is
        # roundoff, and lambda_min(B) / ||B||_2 of roundoff is of order 1:
        # without the zero-B rule, 1x4 at two splits and seed 42 makes 74
        # violations of slack -1.  The slack is exactly 0; det B stays as
        # computed
        cfg = SearchConfig(dims=dims, trials=200, master_seed=42, target="schur_s_fraction")
        report = counterexample_search(cfg)
        assert not report.found and report.min_slack == 0.0
        fields = _evaluate_block(cfg, *block_instances(cfg))
        assert np.all(fields["slack"] == 0.0) and np.any(fields["det_b"] != 0.0)
        assert np.abs(fields["entropy_table"]).max() <= 1e-14

    def test_config_validation(self):
        with pytest.raises(ValueError, match="same total dimension"):
            SearchConfig(dims=[(2, 2), (2, 3)], trials=1, master_seed=0)
        with pytest.raises(ValueError, match="unknown target"):
            SearchConfig(dims=[(2, 2)] * 2, trials=1, master_seed=0, target="bogus")
        with pytest.raises(ValueError, match="trials"):
            SearchConfig(dims=[(2, 2)] * 2, trials=0, master_seed=0)

    @pytest.mark.parametrize("lam", [-1.0, 0.0, -0.0, math.nan, math.inf])
    def test_config_refuses_a_weight_not_positive_and_finite(self, lam):
        # e^{-lam S} at lam <= 0 is no entropy-weighted Gram matrix: a
        # search at lam = -1 once found a violation in every trial.  The
        # API, as the CLI, refuses it for any target, and so does
        # verify_witness, which builds the same config
        for target in positivity.TARGETS:
            with pytest.raises(ValueError, match="lam must be > 0 and finite"):
                SearchConfig(dims=[(2, 2)] * 2, trials=1, master_seed=0, target=target,
                             n=2, lam=lam)
        with open(Path(__file__).parent / "fixtures" / "detb_witness.json") as handle:
            witness = json.load(handle)["violation"]
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            verify_witness(witness, target="entropy_n1", lam=lam)

    @pytest.mark.parametrize("target,n", [("entropy_n1", 1), ("integer_n", 2)])
    def test_config_refuses_settings_no_target_runs(self, target, n):
        # a literal power is checked by the det-B target alone, and the integer_n
        # control mode runs no descent: either would be reported but not run
        base = dict(dims=[(2, 2)] * 3, trials=1, master_seed=0, target=target, n=n)
        with pytest.raises(ValueError, match="literal_s is checked only"):
            SearchConfig(**base, literal_s=0.5)
        if target == "integer_n":
            with pytest.raises(ValueError, match="takes no refine descent"):
                SearchConfig(**base, refine_iterations=500)
        else:
            assert SearchConfig(**base, refine_iterations=500).refine_iterations == 500
            # entropy_n1 takes von Neumann entropies: n = 3 once ran n = 1 and reported 3
            with pytest.raises(ValueError, match="entropy_n1 takes von Neumann entropies"):
                SearchConfig(**dict(base, n=3))
        SearchConfig(**base, refine_iterations=0)
        SearchConfig(**dict(base, target="schur_s_fraction"), literal_s=0.5, refine_iterations=5)

    @pytest.mark.parametrize("literal_s", [0.0, -0.1, math.nan, math.inf])
    def test_config_refuses_a_literal_power_not_positive_and_finite(self, literal_s):
        # s = 0 checked the all-ones matrix's roundoff, and s < 0 the Gram
        # matrix of exp(+|s| S), which is no fractional power
        with pytest.raises(ValueError, match="literal_s must be > 0 and finite"):
            SearchConfig(dims=[(2, 2)] * 3, trials=1, master_seed=0,
                         target="schur_s_fraction", literal_s=literal_s)


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
        cfg = SearchConfig(trials=9, master_seed=31, tolerance=-10.0,
                           **self.CASES[name])
        report = counterexample_search(cfg)
        assert len(report.violations) == cfg.trials
        for t, result in enumerate(report.violations):
            psi, splits = _draw_instance(cfg, t)
            expected = _evaluate_target(cfg, psi, splits)
            expected["trial"] = t
            instance = result.pop("instance")
            assert result == expected
            stored_psi, stored_splits = _instance_from_dict(instance)
            assert np.array_equal(stored_psi.schmidt_values, psi.schmidt_values)
            assert np.array_equal(stored_psi.eigenbasis, psi.eigenbasis)
            for stored, split in zip(stored_splits, splits):
                assert np.array_equal(stored.matrix, split.matrix)
        slacks = [r["slack"] for r in report.violations]
        assert report.min_slack == min(slacks)
        assert report.min_slack_trial == slacks.index(min(slacks))

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
        assert (kernel_spectrum(instances[0][0], axis, axis) == 0).any()
        fields = _evaluate_block(cfg, np.array([psi.schmidt_values for psi, _ in instances]),
                                 np.array([[s.matrix for s in splits] for _, splits in instances]))
        for k, (psi, splits) in enumerate(instances):
            assert _payload(fields, k) == _evaluate_target(cfg, psi, splits)

    def test_report_exact_across_jobs_and_blocks(self, monkeypatch):
        # a tolerance of -0.1 counts the five of seed 2024's first 40
        # trials whose slack is below 0.1 as violations, so their payloads
        # are compared as well
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=40, master_seed=2024, tolerance=-0.1)
        reference = json.dumps(counterexample_search(cfg).to_dict(), sort_keys=True)
        assert [v["trial"] for v in json.loads(reference)["violations"]] == [11, 15, 30, 35, 36]
        # a 3 x 2x2 trial has 6 pairs of 16 entries.  Blocks: the default
        # plan is one block, 1 puts every trial in a block of its own, 500
        # about five trials.  Kernel runs: the default holds 256 pairs, 1 one
        # pair, 100 six pairs, one trial's worth
        for block_entries, stack_entries in itertools.product(
                (positivity.SWEEP_BLOCK_ENTRIES, 1, 500), (positivity.STACK_ENTRIES, 1, 100)):
            monkeypatch.setattr(positivity, "SWEEP_BLOCK_ENTRIES", block_entries)
            monkeypatch.setattr(positivity, "STACK_ENTRIES", stack_entries)
            for jobs in (1, 2, 3):
                report = counterexample_search(cfg, jobs=jobs).to_dict()
                assert json.dumps(report, sort_keys=True) == reference

    def test_kernel_calls_stay_within_the_stack_budget(self, monkeypatch):
        # every pair Gram build run (d x d split matrices per pair), every
        # pooled reduction (k x k pair Gram matrices) and every Haar-step
        # run (d x d Ginibre matrices) of the sweep, the search and the
        # descent holds at most STACK_ENTRIES entries, or a single matrix
        # whose entries exceed it alone
        calls = {"build": [], "reduce": [], "haar": []}

        def recording(kind, function, stack, *rest, **options):
            calls[kind].append(stack.shape)
            return function(stack, *rest, **options)

        def recording_build(left, *rest, build=positivity._pair_gram):
            calls["build"].append(left.shape)
            return build(left, *rest)

        monkeypatch.setattr(positivity, "_pair_gram", recording_build)
        for kind, name in (("reduce", "_gram_traces"), ("reduce", "_gram_eigenvalues"),
                           ("haar", "unitary_from_ginibre")):
            monkeypatch.setattr(positivity, name,
                                functools.partial(recording, kind, getattr(positivity, name)))
        mixed = [[(2, 2)] * 3, [(2, 3), (3, 2)], [(8, 8)] * 3, [(4, 4), (2, 8)], [(8, 8), (4, 16)]]
        theorem_sweep(mixed * 4, [2, 3], master_seed=3)
        # 39 pairs of 2x8 splits, whose M is 4 x 4: build runs of 16, 16
        # and 7 pairs, and one pooled reduction of all 39
        theorem_sweep([[(2, 8)] * 2] * 13, [2], master_seed=3)
        counterexample_search(SearchConfig(dims=[(2, 2)] * 3, trials=400, master_seed=1))
        counterexample_search(SearchConfig(dims=[(8, 8)] * 3, trials=4, master_seed=1))
        counterexample_search(SearchConfig(dims=[(2, 2)] * 3, trials=20, master_seed=7,
                                           target="schur_s_fraction", n=2,
                                           refine_iterations=300))
        counterexample_search(SearchConfig(dims=[(4, 4)] * 3, trials=2, master_seed=7,
                                           target="schur_s_fraction", refine_iterations=100))
        runs = {kind: defaultdict(list) for kind in calls}
        for kind, shapes in calls.items():
            for shape in shapes:
                runs[kind][shape[-1]].append(math.prod(shape[:-2]))
        for kind, by_size in runs.items():
            for size, counts in by_size.items():
                assert all(count * size * size <= positivity.STACK_ENTRIES or count == 1
                           for count in counts), (kind, size)
        assert set(runs["build"]) == set(runs["haar"]) == {4, 6, 16, 64}
        # the budget binds: full 256-matrix runs at d = 4, one matrix at d = 64
        for kind in ("build", "haar"):
            assert max(runs[kind][4]) == 256 and set(runs[kind][64]) == {1}
        # M of a pair of 8x8 splits is 64 x 64, one to a reduction; the Ms
        # of one size pool across build runs and shape pairs
        assert set(runs["reduce"][64]) == {1}
        assert max(runs["reduce"][4]) == 256 and 39 in runs["reduce"][4]
        assert max(runs["build"][16]) == 16

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_search_blocks_are_the_sweep_planners(self, serial_pools, monkeypatch, jobs):
        # the search hands `_pool_map` the blocks `_sweep_blocks` cuts from
        # its trials, numbered from 0; the stand-in executor runs
        # the pool's blocks in this process as they are submitted, where
        # they are recorded
        seen = []

        def recording(first, block, cfg):
            seen.append((first, block))
            return np.zeros(len(block)), []

        monkeypatch.setattr(positivity, "_search_block", recording)
        # block counts at jobs = 1: one block under the floor, two 700-trial
        # blocks at 3 x 2x2, and three blocks of 3 x 8x8 trials, whose 24576
        # pair entries each allow at most five to a block
        for dims, trials, count in (([(2, 2)] * 2, 30, 1), ([(2, 2)] * 3, 1400, 2),
                                    ([(8, 8)] * 3, 12, 3)):
            seen.clear()
            counterexample_search(SearchConfig(dims=dims, trials=trials, master_seed=1),
                                  jobs=jobs)
            assert sorted(seen) == positivity._sweep_blocks([dims] * trials, jobs)
            assert len(seen) == (1 if count == 1 else jobs * -(-count // jobs))

    def test_non_unitary_draws_raise(self, monkeypatch):
        make = positivity.unitary_from_ginibre
        monkeypatch.setattr(positivity, "unitary_from_ginibre",
                            lambda z: make(z) * (1 + 1e-6))
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
        # the block draw's flat stack of splits (no eigenbasis), the
        # descent's start draw, then one stack of rotated splits per block
        # that holds a rotation
        assert shapes[:2] == [(60, 4, 4), (3, 4, 4)]
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
        # the slack must not depend on how B lies in memory: a Fortran-ordered
        # B, or one whose last axis has stride 2, gives the fresh
        # C-contiguous B's slack to the last bit, at 3, 4 and 6 subsystems
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
            for key in ("slack", "det_b"):
                assert np.array_equal(fields[key], reference[key])

    def test_detb_fixed_ordering_is_the_identity_ordering(self):
        # det_b is the det of the table's own B (the identity ordering),
        # stacked and one instance at a time
        from rpentropy.positivity import _second_differences
        for dims in ([(2, 2)] * 3, [(2, 3), (3, 2), (2, 3), (3, 2)], [(2, 2)] * 2):
            cfg = SearchConfig(dims=dims, trials=60, master_seed=23, target="schur_s_fraction")
            fields = _evaluate_block(cfg, *block_instances(cfg))
            b = _second_differences(fields["entropy_table"])
            assert np.array_equal(fields["det_b"], np.linalg.det(b))
            for k in range(cfg.trials):
                assert fields["det_b"][k] == np.linalg.det(b[k])

    def test_shared_index_caches_are_read_only(self):
        from rpentropy.positivity import _pair_plan
        plan = _pair_plan((((2, 3), (3, 2), (2, 3)),), 2)
        assert _pair_plan((((2, 3), (3, 2), (2, 3)),), 2) is plan
        # an evenly stepped index is held as a slice, which cannot be
        # written to; every index array is read-only
        held = [a for _, *arrays in plan for a in arrays]
        assert any(isinstance(a, slice) for a in held)
        for array in [a for a in held if not isinstance(a, slice)]:
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
        runs = []
        for (dims_i, dims_j), *held, ij, ji in plan:
            # a split index may be a slice (`_as_slice`): the indices it
            # selects of the 9 splits; a one-pair run's always are slices
            i, j = (np.arange(9)[index] for index in held)
            if len(ij) == 1:
                assert all(isinstance(index, slice) for index in held)
            runs.append(((dims_i, dims_j), len(ij)))
            assert 1 <= len(ij) <= 4 and len(i) == len(j) == len(ij)
            for a, b, at_ij, at_ji in zip(i, j, ij, ji):
                k = int(np.searchsorted(first_split, a, side="right")) - 1
                m, a0, b0 = len(dims[k]), a - first_split[k], b - first_split[k]
                assert 0 <= a0 <= b0 < m
                assert (dims[k][a0], dims[k][b0]) == (dims_i, dims_j)
                assert (at_ij, at_ji) == (first_entry[k] + a0 * m + b0,
                                          first_entry[k] + b0 * m + a0)
                seen.add((int(k), int(a0), int(b0)))
        assert seen == {(k, a, b) for k, splits in enumerate(dims)
                        for a in range(len(splits)) for b in range(a, len(splits))}
        a, b = (2, 3), (3, 2)
        assert runs == [
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
        assert [len(ij) for *_, ij, _ in _pair_plan((((8, 8),) * 3,), 1)] == [1] * 6
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
        # at the default budget, one 8x8 pair matrix fills a build run, and
        # its 64 x 64 pair Gram matrix a reduction: of the trace powers for
        # n = 2, of the spectrum for n = 1
        builds, build = [], positivity._pair_gram

        def recording_build(left, *rest):
            builds.append(left.shape)
            return build(left, *rest)

        monkeypatch.setattr(positivity, "_pair_gram", recording_build)
        for n, name in ((2, "_gram_traces"), (1, "_gram_eigenvalues")):
            builds.clear()
            reductions, reduce = [], getattr(positivity, name)

            def recording(m, *rest, reduce=reduce, reductions=reductions):
                reductions.append(m.shape)
                return reduce(m, *rest)

            monkeypatch.setattr(positivity, name, recording)
            assert np.array_equal(_entropy_tables(schmidt[1], mats[1], dims, n),
                                  reference[n][1])
            assert builds == reductions == [(1, 64, 64)] * 6

    def test_one_pair_runs_build_from_views(self, monkeypatch):
        # at d = 64 every build run holds one pair, whose plan indices are
        # slices: both operands reach `_pair_gram` as views of the call's
        # two stacks, the weighted splits and their conjugate, not as
        # copies, and the table is the same as from copies
        from rpentropy.positivity import _entropy_tables
        cfg = SearchConfig(dims=[(8, 8)] * 3, trials=2, master_seed=4)
        schmidt, mats = block_instances(cfg)
        reference = _entropy_tables(schmidt.copy(), mats.copy(), cfg.dims, 2)
        buffers, calls = [], []
        tables, build = positivity._weighted_pair_tables, positivity._pair_gram

        def recording_tables(ops, *rest):
            buffers.append(ops)
            return tables(ops, *rest)

        def recording(left, right, *rest):
            calls.append((left, right))
            return build(np.array(left), np.array(right), *rest)

        monkeypatch.setattr(positivity, "_weighted_pair_tables", recording_tables)
        monkeypatch.setattr(positivity, "_pair_gram", recording)
        assert np.array_equal(_entropy_tables(schmidt, mats, cfg.dims, 2), reference)
        assert len(buffers) == 1 and len(calls) == 12
        weighted, conjugate = buffers[0]
        assert weighted.shape == (6, 64, 64) and not np.shares_memory(buffers[0], mats)
        assert np.array_equal(conjugate, weighted.conj())
        for left, right in calls:
            assert left.shape == right.shape == (1, 64, 64)
            assert np.shares_memory(left, weighted) and not np.shares_memory(left, conjugate)
            assert np.shares_memory(right, conjugate) and not np.shares_memory(right, weighted)

    @pytest.mark.parametrize("dims", [[(2, 2)] * 4, [(8, 8)] * 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_trace_gate_fires_once_per_table(self, dims, n):
        # the unit-trace gate checks every M of a table at once and names
        # the first offender in plan order: Schmidt rows scaled by 1 + 1e-6
        # and 1 + 2e-6 raise with the first, through a stacked d = 4 call
        # (runs of many pairs) and a d = 64 call (runs of one pair)
        from rpentropy.positivity import _entropy_tables
        cfg = SearchConfig(dims=dims, trials=3, master_seed=6)
        schmidt, mats = block_instances(cfg)
        _entropy_tables(schmidt, mats, dims, n)
        tampered = schmidt * np.array([[1.0], [1 + 1e-6], [1 + 2e-6]])
        with pytest.raises(InvalidStateError, match="pair spectrum sums to 1.000001"):
            _entropy_tables(tampered, mats, dims, n)
        psi = PurifiedState(dim=cfg.dim, schmidt_values=tampered[1],
                            eigenbasis=np.eye(cfg.dim, dtype=complex))
        splits = [SubsystemSplit(dim_a=a, dim_b=b, coeffs=mat) for (a, b), mat in zip(dims, mats[1])]
        with pytest.raises(InvalidStateError, match="pair spectrum sums to 1.000001"):
            entropy_table(psi, splits, n)

    @pytest.mark.parametrize("dims", [[(2, 2), (1, 4), (4, 1), (2, 2)],
                                      [(8, 8), (4, 16), (16, 4)]])
    def test_entropy_table_is_the_stacked_table(self, dims):
        # entropy_table writes its weighted stack straight from the splits;
        # the table is the flat-stack kernel's to the last bit, every n
        from rpentropy.positivity import _draw_instance, _entropy_tables
        cfg = SearchConfig(dims=dims, trials=2, master_seed=11)
        schmidt, mats = block_instances(cfg)
        for trial in range(cfg.trials):
            psi, splits = _draw_instance(cfg, trial)
            assert np.array_equal(psi.schmidt_values, schmidt[trial])
            for n in range(1, 6):
                assert np.array_equal(entropy_table(psi, splits, n),
                                      _entropy_tables(schmidt[trial], mats[trial], dims, n))

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
                                functools.partial(_pair_entropies, n=n))
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
                        eigs = kernel_spectrum(psi, splits[i], splits[j])
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

        monkeypatch.setattr(positivity, "_gram_eigenvalues", no_svd)
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
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=3000, master_seed=2024)
        report = counterexample_search(cfg)
        assert [v["trial"] for v in report.violations] == [2985]
        assert verify_witness(report.violations[0], target="entropy_n1") < -cfg.tolerance
        assert main(["search", "--target", "schur_s_fraction", "--trials", "30", "--seed", "7",
                     "--dims", "2x3,3x2,2x3", "--refine", "200", "--out", str(tmp_path)]) == 0
        with pytest.raises(AssertionError, match="svd was called"):
            np.linalg.svd(np.eye(2))


class TestBlockDraws:
    """`_draw_block` owns stream order: every instance of a block is its own
    stream's one-at-a-time draw (`draw_one`), to the last bit, with its
    splits' Ginibre matrices through the Haar step."""

    @staticmethod
    def assert_instance(draw, k, first, lam, single):
        """Instance k of a `_draw_block` output, its splits from split row
        `first` on, is `draw_one`'s (lam, single) to the last bit."""
        schmidt, u, eigenbases = draw
        splits = unitary_from_ginibre(single[1:])
        assert schmidt[k].tobytes() == lam.tobytes()
        assert ginibre_from_parts(eigenbases[k]).tobytes() == single[0].tobytes()
        assert u[first:first + len(splits)].tobytes() == splits.tobytes()

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
        draw = _draw_block(seed, indices, dims_list)
        splits = np.array([len(dims) for dims in dims_list])
        schmidt, u, eigenbases = draw
        assert schmidt.shape == (4, d) and eigenbases.shape == (4, 2, d, d)
        assert u.shape == (splits.sum(), d, d)
        assert schmidt.min() >= EIGENVALUE_REDRAW_FLOOR
        for k, (index, dims, first) in enumerate(zip(indices, dims_list,
                                                     np.cumsum(splits) - splits)):
            lam, single = draw_one(seed, index, dims)
            self.assert_instance(draw, k, first, lam, single)
            # a one-row block is the same instance
            self.assert_instance(_draw_block(seed, [index], [dims]), 0, 0, lam, single)

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
        draw = _draw_block(seed, indices, [dims] * len(indices))
        for k, index in enumerate(indices):
            self.assert_instance(draw, k, k * len(dims), *draw_one(seed, index, dims))

    def test_redraws_follow_the_one_at_a_time_stream(self, monkeypatch):
        # at a floor of 0.1 about 4 in 5 flat Dirichlet draws at d = 4 have
        # an entry below it, so most instances of the block take the redraw
        # branch, some of them more than once.  The block and its redraws
        # (`simplex_eigenvalues`) read the one floor, sampling's, when called
        floor, seed, dims = 0.1, 11, [(2, 2)] * 3
        monkeypatch.setattr(sampling, "EIGENVALUE_REDRAW_FLOOR", floor)
        indices = list(range(30, 70))
        draw = _draw_block(seed, indices, [dims] * len(indices))
        first_draws = [trial_rng(seed, k).dirichlet(np.ones(4)).min() for k in indices]
        assert 20 <= sum(m < floor for m in first_draws) < len(indices)
        assert draw[0].min() >= floor
        for k, index in enumerate(indices):
            rng = trial_rng(seed, index)
            lam = np.sort(simplex_eigenvalues(4, rng))[::-1]
            self.assert_instance(draw, k, 3 * k, lam, ginibre(4, rng, (4,)))

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
        # both callers read the redrawn spectrum: the Gram matrix a sweep
        # block records for that instance, in its second slot, is
        # gram_matrix's of the search instance
        from rpentropy.positivity import _draw_instance, _sweep_block
        seed, redrawn = self.REDRAWN
        dims = [(2, 3), (3, 2), (2, 3)]
        cfg = SearchConfig(dims=dims, trials=1, master_seed=seed, target="integer_n", n=2)
        psi, splits = _draw_instance(cfg, redrawn)
        assert psi.schmidt_values.tobytes() == draw_one(seed, redrawn, dims)[0].tobytes()
        _, _, violations = _sweep_block(redrawn - 1, [((2, 2),) * 2, tuple(dims)], [2],
                                        seed, -1.0)
        [violation] = [v for v in violations if v["instance"] == redrawn]
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
        from rpentropy.positivity import _draw_instance, _gram_spectrum, _sweep_block
        from rpentropy.reflected import _gram_traces, _pair_gram, _pair_operands
        seed, dims, n_values = 91, [(2, 3), (3, 2), (2, 3)], [2, 3, 4]
        _, _, violations = _sweep_block(4, [((2, 2),) * 2, tuple(dims)], n_values, seed, -1.0)
        cfg = SearchConfig(dims=dims, trials=1, master_seed=seed, target="integer_n", n=2)
        psi, splits = _draw_instance(cfg, 5)
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        operands = {(i, j): _pair_operands(psi.schmidt_values, splits[i].matrix, splits[j].matrix)
                    for i, j in pairs}
        traces = {(i, j): _gram_traces(_pair_gram(*operands[i, j], dims[i], dims[j]), n_values)
                  for i, j in pairs}
        spectra = {(i, j): svd_spectrum(psi, splits[i], splits[j]) for i, j in pairs}
        recorded = [v for v in violations if v["instance"] == 5]
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

        monkeypatch.setattr(positivity, "_gram_eigenvalues", no_svd)
        plan = [[(2, 2)] * 2, [(2, 3), (3, 2), (2, 3)], [(4, 4), (2, 8)]] * 3
        result = theorem_sweep(plan, [1, 2, 3, 5], master_seed=3)
        assert result.checks == 4 * len(plan) and not result.violations

    def test_renyi_indices_below_one_raise(self):
        # n = 0 would count zero-padded eigenvalues; no trace power exists there
        for n_values in ([0], [-1], [2, 0, 3], [2.5]):
            with pytest.raises(ValueError, match="Renyi index must be >= 1 and an integer"):
                theorem_sweep([[(2, 2)] * 2], n_values, master_seed=1)

    def test_invalid_plans_raise(self):
        with pytest.raises(ValueError, match="same total dimension"):
            theorem_sweep([[(2, 2)] * 2, [(2, 2), (2, 3)]], [2], master_seed=1)
        with pytest.raises(ValueError, match="at least two subsystems"):
            theorem_sweep([[(2, 2)] * 2, [(2, 3)]], [2], master_seed=1)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_raise(self, jobs, serial_pools):
        # the one planner of the sweep and the search refuses them; they
        # once reached a division by zero in the planner or in `_pool_map`
        cfg = SearchConfig(dims=[(2, 2)] * 2, trials=3, master_seed=1)
        for call in (lambda: theorem_sweep([[(2, 2)] * 2] * 3, [2], master_seed=1, jobs=jobs),
                     lambda: counterexample_search(cfg, jobs=jobs),
                     lambda: positivity._sweep_blocks([[(2, 2)] * 2], jobs)):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                call()
        assert serial_pools == []

    def test_pool_keeps_jobs_workers(self, serial_pools, monkeypatch):
        # the plan is validated once, before the pool; the stand-in executor
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
        # each call validates the plan's one distinct dims once
        assert serial_pools == [4] and validated == [[(2, 2)] * 3] * 2
        # a plan under the floor runs in this process at any jobs
        theorem_sweep([[(2, 2)] * 2] * 44, [2, 3], master_seed=5, jobs=3)
        assert serial_pools == [4] and list(positivity._POOL) == [4]
        # 48 entries per 2 x 2x2 trial: at a block budget of 48, three
        # trials are three blocks, and five jobs replace the pool of four
        # workers
        monkeypatch.setattr(positivity, "SWEEP_BLOCK_ENTRIES", 48)
        counterexample_search(SearchConfig(dims=[(2, 2)] * 2, trials=3, master_seed=1), jobs=5)
        assert serial_pools == [4, 5] and list(positivity._POOL) == [5]

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
    """`_pool_map` is the one merge of block results.  One run of blocks
    runs in this process; more run on a kept executor of jobs worker
    processes, each pinned to one CPU, while this process waits.  The
    executor is built anew when jobs changes or it breaks (a worker died),
    and shut down when the interpreter exits."""

    PLAN = [[(2, 2)] * 3] * 200  # two blocks at jobs = 2, three at jobs = 3

    @staticmethod
    def worker(k, tag):
        # outputs of k rows: a (k, 2) array, a (k,) array, a k-item list and
        # the process that ran it, k times
        rows = 10 * k + np.arange(k)
        return (np.stack((rows, -rows), axis=-1), rows.astype(float), [f"{tag}{k}"] * k,
                [os.getpid()] * k)

    @staticmethod
    def gone(pid, timeout=30.0):
        """Whether process `pid` has exited and been reaped within `timeout` s."""
        for _ in range(int(timeout / 0.01)):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            time.sleep(0.01)
        return False

    def test_workers_run_every_run_and_the_pool_stays(self):
        blocks = [(3,), (0,), (1,), (4,)]
        rows = np.array([30, 31, 32, 10, 40, 41, 42, 43])
        labels = ["b3"] * 3 + ["b1"] + ["b4"] * 4
        pools, workers = [], []
        # at jobs = 1 the one run of all 8 rows is this process's; else
        # every run of ceil(4 / jobs) blocks ran on the executor's workers,
        # jobs at most, kept from call to call
        for jobs in (1, 2, 2, 3, 5):
            pairs, values, names, pids = positivity._pool_map(self.worker, blocks, jobs, "b")
            assert np.array_equal(pairs, np.stack((rows, -rows), axis=-1))
            assert np.array_equal(values, rows) and values.dtype == float
            assert names == labels
            if jobs == 1:
                assert pids == [os.getpid()] * 8
            else:
                assert os.getpid() not in pids and len(set(pids)) <= jobs
            pools.append(positivity._POOL.get(jobs))
            workers.append(set(pids))
        # the same executor, and its two workers, serve both jobs = 2 calls
        assert pools[0] is None and pools[1] is pools[2] and len(workers[1] | workers[2]) <= 2
        # another jobs builds another executor and stops the last one's workers
        assert len({id(pool) for pool in pools[1:]}) == 3 and list(positivity._POOL) == [5]
        for pid in workers[1] | workers[3]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_killed_worker_is_replaced(self, tmp_path, jobs):
        # a worker killed while idle, or one that dies running a task, breaks
        # the executor; a new one runs the call's pool tasks again, and the
        # result is the serial one
        reference = asdict(theorem_sweep(self.PLAN, [2, 3], master_seed=8))
        assert len(positivity._sweep_blocks(self.PLAN, jobs)) == jobs
        missing = [(str(tmp_path / "missing"),)] * jobs
        (ran,) = positivity._pool_map(die_once, missing, jobs)
        pool = positivity._POOL[jobs]
        os.kill(ran[-1], signal.SIGKILL)
        assert self.gone(ran[-1])  # the executor reaped it: it is broken
        assert asdict(theorem_sweep(self.PLAN, [2, 3], master_seed=8, jobs=jobs)) == reference
        assert positivity._POOL[jobs] is not pool
        (again,) = positivity._pool_map(die_once, missing, jobs)
        assert os.getpid() not in again and ran[-1] not in again
        # the last task kills its worker once, then runs on a new executor
        pool, marker = positivity._POOL[jobs], tmp_path / "die"
        marker.touch()
        (ran,) = positivity._pool_map(die_once, missing[1:] + [(str(marker),)], jobs)
        assert not marker.exists() and os.getpid() not in ran
        assert positivity._POOL[jobs] is not pool and not set(ran) & set(again)
        assert asdict(theorem_sweep(self.PLAN, [2, 3], master_seed=8, jobs=jobs)) == reference

    @pytest.mark.parametrize("bad", [0, 2])
    def test_an_exception_leaves_no_stale_reply(self, bad):
        # a non-unitary split in the first task (bad = 0) or the last
        # (bad = 2), each on a worker while the others run theirs, raises here
        # with its type and message once every task has ended: the next
        # calls on the same executor give the serial results
        reference = asdict(theorem_sweep(self.PLAN, [2, 3], master_seed=12))
        assert asdict(theorem_sweep(self.PLAN, [2, 3], master_seed=12, jobs=3)) == reference
        pool = positivity._POOL[3]
        splits = [(np.eye(4),)] * 3
        splits[bad] = (1.01 * np.eye(4),)
        with pytest.raises(InvalidStateError,
                           match="^matrix not unitary: rows violate orthonormality$"):
            positivity._pool_map(positivity._check_unitary, splits, 3)
        for _ in range(2):
            assert asdict(theorem_sweep(self.PLAN, [2, 3], master_seed=12, jobs=3)) == reference
        assert positivity._POOL[3] is pool

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_each_worker_runs_on_one_cpu_of_the_callers_mask(self):
        # worker k of an executor runs on cpus[k % len(cpus)] alone, cpus
        # being the caller's mask when the executor is built: distinct CPUs
        # while jobs <= len(cpus), round robin beyond.  The caller is held
        # to at most two CPUs here, so three jobs wrap on any machine; its
        # own mask is left as it was
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)[:2]
        os.sched_setaffinity(0, cpus)
        try:
            for jobs in (2, 3):
                positivity._pool_map(self.worker, [(1,)] * jobs, jobs, "b")
                assert os.sched_getaffinity(0) == set(cpus)
                # the executor's processes, polled until each has run its
                # initializer (a worker started on demand may not have yet)
                for _ in range(3000):
                    pinned = [os.sched_getaffinity(pid) for pid in positivity._POOL[jobs]._processes]
                    if all(len(cpu) == 1 for cpu in pinned):
                        break
                    time.sleep(0.01)
                assert all(len(cpu) == 1 for cpu in pinned)
                assert sorted(min(cpu) for cpu in pinned) == sorted(cpus[k % len(cpus)]
                                                                     for k in range(jobs))
        finally:
            os.sched_setaffinity(0, mask)
        assert os.sched_getaffinity(0) == mask

    def test_an_interrupt_waits_for_the_running_tasks(self):
        # SIGINT in the caller while its pooled sweep runs: the tasks not
        # started are cancelled and the running ones waited for, then
        # KeyboardInterrupt is raised.  The same executor then gives the
        # serial result, and the child exits 0 with every worker reaped
        script = ("import signal\nfrom dataclasses import asdict\n"
                  "from rpentropy import positivity\n"
                  "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                  "plan = [[(2, 2)] * 3] * 200\n"
                  "reference = asdict(positivity.theorem_sweep(plan, [2, 3], 4))\n"
                  "assert asdict(positivity.theorem_sweep(plan, [2, 3], 4, jobs=2)) == reference\n"
                  "pool = positivity._POOL[2]\n"
                  "print('go', flush=True)\n"
                  "try:\n"
                  "    positivity.theorem_sweep(plan * 600, [2, 3], 4, jobs=2)\n"
                  "except KeyboardInterrupt:\n"
                  "    print('interrupted', flush=True)\n"
                  "assert not pool._pending_work_items  # nothing left running\n"
                  "assert positivity._POOL[2] is pool\n"
                  "assert asdict(positivity.theorem_sweep(plan, [2, 3], 4, jobs=2)) == reference\n"
                  "print(*pool._processes, flush=True)\n")
        with subprocess.Popen([sys.executable, "-c", script], env=self.child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
            assert child.stdout.readline() == "go\n"
            time.sleep(0.25)  # after the submit, well before the sweep ends
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=120)
        assert child.returncode == 0 and err == ""
        interrupted, pids = out.splitlines()
        assert interrupted == "interrupted" and len(pids.split()) == 2
        for pid in pids.split():
            with pytest.raises(ProcessLookupError):
                os.kill(int(pid), 0)

    @staticmethod
    def child_env() -> dict:
        src = str(Path(positivity.__file__).resolve().parents[1])
        return dict(os.environ, PYTHONPATH=os.pathsep.join((src, str(Path(__file__).parent))),
                    OPENBLAS_NUM_THREADS="1")

    @classmethod
    def run_child(cls, script: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", script], env=cls.child_env(),
                              capture_output=True, text=True, timeout=120)

    ENDINGS = (
        "",
        # a worker's exception, a non-unitary split, caught by the script
        "try:\n"
        "    positivity._pool_map(positivity._check_unitary,\n"
        "                         [(np.eye(2),), (2 * np.eye(2),)], 2)\n"
        "except InvalidStateError:\n"
        "    sweep(2)\n",
        # a worker killed while idle; the next call builds a new executor
        "os.kill(pids[0], signal.SIGKILL)\nsweep(2)\n")

    def test_interpreter_exit_joins_the_workers(self, tmp_path):
        # the executor is shut down at exit, after a normal run, a worker's
        # exception or a killed worker: the child exits 0 with nothing on
        # stderr, and every worker it had is gone when it has exited
        missing = str(tmp_path / "missing")
        for ending, replaced in zip(self.ENDINGS, (False, False, True)):
            script = ("import os, signal\nimport numpy as np\nfrom rpentropy import positivity\n"
                      "from rpentropy.modular import InvalidStateError\n"
                      "from test_positivity import die_once\n"
                      "def sweep(jobs):\n"
                      "    positivity.theorem_sweep([[(2, 2)] * 3] * 200, [2, 3], 1, jobs=jobs)\n"
                      f"    (ran,) = positivity._pool_map(die_once, [({missing!r},)] * jobs, jobs)\n"
                      "    print(*ran, flush=True)\n"
                      "    return ran\n"
                      "pids = sweep(2)\n" + ending)
            out = self.run_child(script)
            assert out.returncode == 0 and out.stderr == ""
            pids = [int(pid) for pid in out.stdout.split()]
            # either of an executor's two workers may run either task; a
            # killed worker's executor is replaced by one of new workers
            assert len(pids) == (4 if ending else 2)
            if replaced:
                assert not set(pids[:2]) & set(pids[2:])
            else:
                assert len(set(pids)) <= 2
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    def test_spawned_workers_give_the_serial_result(self):
        # under the spawn start method each worker imports the package and
        # receives its task by pickle: the sweep's result is the serial one
        plan = self.PLAN + [[(2, 3), (3, 2)]] * 100
        reference = asdict(theorem_sweep(plan, [2, 3], master_seed=21))
        script = ("import json, multiprocessing\nfrom dataclasses import asdict\n"
                  "from rpentropy import positivity\n"
                  "multiprocessing.set_start_method('spawn')\n"
                  f"plan = {plan!r}\n"
                  "print(json.dumps(asdict(positivity.theorem_sweep(plan, [2, 3], 21, jobs=2))))\n"
                  "print(multiprocessing.get_start_method())\n")
        assert len(positivity._sweep_blocks(plan, 2)) >= 2
        out = self.run_child(script)
        assert out.returncode == 0 and out.stderr == ""
        result, method = out.stdout.splitlines()
        assert method == "spawn" and json.loads(result) == json.loads(json.dumps(reference))

    def test_one_block_builds_no_pool(self, serial_pools):
        # both plans stay under the one-block floor of SWEEP_BLOCK_ENTRIES // 8
        # (16384) entries of cost: 39 3 x 2x2 search trials at 96 + 320
        # each, and 20 2 x 2x2 sweep instances at 48 + 320
        report = counterexample_search(SearchConfig(dims=[(2, 2)] * 3, trials=39,
                                                    master_seed=1), jobs=4)
        sweep = theorem_sweep([[(2, 2)] * 2] * 20, [2, 3], master_seed=1, jobs=4)
        assert report.trials_run == 39 and sweep.checks == 40
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
        # shrinks its scale, with REFINE_FLOOR skips on the way
        "stall-shrink": (dict(dims=[(2, 2)] * 2, target="entropy_n1", trials=1, master_seed=3,
                              tolerance=10.0, refine_iterations=700), 700),
        # large moves: many spectra fall below REFINE_FLOOR and are skipped
        "floor-skips": (dict(DETB, trials=1, master_seed=5, refine_iterations=400), 170),
        # five subsystems: a 4 x 4 B, whose least eigenvalue the descent lowers
        "five-subsystems": (dict(DETB, dims=[(2, 2)] * 5, trials=400, master_seed=3,
                                 refine_iterations=500), 99),
        "entropy-n1": (dict(dims=[(2, 2)] * 3, target="entropy_n1", trials=1, master_seed=3,
                            refine_iterations=300), 300),
        "literal-s": (dict(DETB, n=2, literal_s=0.5, trials=1, master_seed=3,
                           refine_iterations=300), 300),
    }

    # the cases' step scale and floor, patched into the module, where both
    # descents read them
    CONSTANTS = {"stall-shrink": dict(REFINE_SCALE=2.0),
                 "floor-skips": dict(REFINE_SCALE=3.0, REFINE_FLOOR=1e-3)}

    @pytest.mark.parametrize("name", list(CASES))
    def test_trajectory_equals_the_sequential_descent(self, name, monkeypatch):
        kwargs, steps = self.CASES[name]
        for constant, value in self.CONSTANTS.get(name, {}).items():
            monkeypatch.setattr(positivity, constant, value)
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
        # blocks of 682 proposals, so that an accept and a shrink the rewind
        # must undo often share a block
        monkeypatch.setattr(positivity, "STACK_ENTRIES", 1 << 16)
        monkeypatch.setattr(positivity, "REFINE_BLOCK", 1 << 16)
        monkeypatch.setattr(positivity, "REFINE_SCALE", 2.0)
        monkeypatch.setattr(positivity, "REFINE_FLOOR", 1e-3)
        cfg = SearchConfig(dims=[(2, 2)] * 3, trials=1, master_seed=2, tolerance=-2e-5,
                           refine_iterations=3000)
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

    @pytest.mark.parametrize("name,kwargs", [
        # 3 x 2x2: 42 proposals fit the stack budget, so REFINE_BLOCK rules
        ("detb-seed7", dict(DETB, trials=200, master_seed=7, refine_iterations=20000)),
        ("budget-ends", dict(DETB, trials=200, master_seed=7, refine_iterations=50)),
        # 3 x 4x4: two proposals fit
        ("stack-budget", dict(DETB, dims=[(4, 4)] * 3, trials=1, master_seed=1,
                              refine_iterations=60))])
    def test_every_block_holds_the_constant_size(self, monkeypatch, name, kwargs):
        # after the start's one-instance call, every evaluator call holds
        # min(REFINE_BLOCK, _block_trials) proposals, until one runs into the
        # end of the budget; that call and any after it (an accept in it
        # rewinds to before the end) hold fewer
        cfg = SearchConfig(**kwargs)
        start = counterexample_search(SearchConfig(**dict(kwargs, refine_iterations=0)))
        size = min(positivity.REFINE_BLOCK, positivity._block_trials(cfg))
        sizes = []
        evaluate = positivity._evaluate_block

        def recording(cfg, schmidt, mats):
            sizes.append(len(schmidt))
            return evaluate(cfg, schmidt, mats)

        monkeypatch.setattr(positivity, "_evaluate_block", recording)
        payload, used, counters = positivity._refine(cfg, start.min_slack_trial)
        assert sizes[0] == 1 and len(sizes) == 1 + counters["blocks"] >= 3
        full = sizes[1:]
        tail = next((k for k, n in enumerate(full) if n != size), len(full))
        assert all(n < size for n in full[tail:])
        # the seed-7 descent ends at its witness, in a full block; the other
        # two run out of budget in a short one
        assert (payload is None) == (tail < len(full)) == (name != "detb-seed7")
        assert size == {"stack-budget": 2}.get(name, positivity.REFINE_BLOCK)

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
