"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; the full suite takes a couple of minutes, dominated by the
10^4-instance positivity sweep.
"""

import json
import math
import os

import numpy as np
import pytest

from rpentropy import fermion
from rpentropy.cft import (CrossRatioFunction, check_derivative_inequality,
                           check_midpoint_inequality, z_point)
from rpentropy.modular import (DensityMatrix, check_tomita_relation, modular_operators,
                               purify)
from rpentropy.positivity import (SearchConfig, counterexample_search,
                                  theorem_sweep_parallel, verify_witness)
from rpentropy.reflected import SubsystemSplit, reflected_density, renyi_entropy
from rpentropy.sampling import haar_unitary, random_density
from rpentropy.spectral import (EntropyCurve, SpectralDensity, decay_rate,
                                derivative_checks, fit_power_density, fit_spectral,
                                forward)

from oracles import brute_force_reflected, conjugation_matrix, delta_matrix

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_theorem_sweep():
    """10^4 random instances across d in {4,6,8,9,16}: every integer-index
    Gram matrix PSD within -1e-10 * ||G||."""
    pools = {4: [(2, 2)], 6: [(2, 3), (3, 2)], 8: [(2, 4), (4, 2)],
             9: [(3, 3)], 16: [(4, 4), (2, 8), (8, 2)]}
    rng = np.random.default_rng(1234)
    plan = []
    for d in (4, 6, 8, 9, 16):
        pool = pools[d]
        for i in range(2000):
            m1 = 2 + (i % 3)  # 2..4 subsystems, m in {1,2,3}
            plan.append([pool[int(rng.integers(len(pool)))] for _ in range(m1)])
    result = theorem_sweep_parallel(plan, [2, 3, 4, 5], master_seed=20260809,
                                    tol=1e-10, jobs=min(4, os.cpu_count() or 1))
    report(1, result.instances == 10_000 and result.checks == 40_000
           and not result.violations,
           f"{result.checks} Gram checks over {result.instances} instances, "
           f"min normalized eigenvalue {result.min_normalized_eig:.3e} "
           f"(threshold -1e-10), violations {len(result.violations)}")


def test_criterion_2_oracle_equivalence():
    """reflected_density vs brute_force_reflected: 200 random instances,
    d <= 12, Frobenius distance <= 1e-10."""
    pool = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (2, 6), (3, 4), (4, 3)]
    worst = 0.0
    rng = np.random.default_rng(77)
    for _ in range(200):
        d_a, d_b = pool[int(rng.integers(len(pool)))]
        d = d_a * d_b
        psi = purify(DensityMatrix.from_matrix(random_density(d, rng)))
        same_product = [c for c in pool if c[0] * c[1] == d]
        si = SubsystemSplit.haar(*same_product[int(rng.integers(len(same_product)))], rng)
        sj = SubsystemSplit.haar(*same_product[int(rng.integers(len(same_product)))], rng)
        dist = np.linalg.norm(reflected_density(psi, si, sj).matrix
                              - brute_force_reflected(psi, si, sj).matrix)
        worst = max(worst, dist)
    report(2, worst <= 1e-10,
           f"200 instances, worst Frobenius distance {worst:.3e} (limit 1e-10)")


def test_criterion_3_purification_independence():
    """Entropies invariant under random re-choice of the purifying basis,
    100 instances, <= 1e-9."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        d_a, d_b = [(2, 2), (2, 3), (3, 3)][int(rng.integers(3))]
        d = d_a * d_b
        psi = purify(DensityMatrix.from_matrix(random_density(d, rng)))
        si = SubsystemSplit.haar(d_a, d_b, rng)
        sj = SubsystemSplit.haar(d_a, d_b, rng)
        base = brute_force_reflected(psi, si, sj)
        rotated = brute_force_reflected(psi, si, sj, h2_basis=haar_unitary(d, rng))
        for n in (1, 2, 3, 4):
            worst = max(worst, abs(renyi_entropy(base, n) - renyi_entropy(rotated, n)))
    report(3, worst <= 1e-9,
           f"100 instances x n in 1..4, worst entropy shift {worst:.3e} (limit 1e-9)")


def test_criterion_4_modular_identities():
    """Delta|0> = |0>, J|0> = |0>, J Delta J = Delta^{-1}, and the modular
    relation on 100 random operators per instance, residuals <= 1e-10."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for instance in range(10):
        d = int(rng.integers(3, 9))
        psi = purify(DensityMatrix.from_matrix(random_density(d, rng)))
        md = modular_operators(psi)
        v0 = psi.vector()
        worst = max(worst, np.linalg.norm(md.apply_delta(v0) - v0))
        worst = max(worst, np.linalg.norm(md.apply_conjugation(v0) - v0))
        delta = delta_matrix(md)
        mj = conjugation_matrix(md)
        # matrix of the antilinear sandwich J Delta J is M conj(Delta) conj(M)
        jdj = mj @ delta.conj() @ mj.conj()
        inv = np.linalg.inv(delta)
        worst = max(worst, np.linalg.norm(jdj - inv) / np.linalg.norm(inv))
        tomita = check_tomita_relation(psi, md, trials=100, rng=rng, tol=1e-10)
        worst = max(worst, tomita.max_residual)
    report(4, worst <= 1e-10,
           f"10 instances x 100 operators, worst residual {worst:.3e} (limit 1e-10)")


def test_criterion_5_fermion_identities():
    """Wick sum = product formula = c^p e^{-6S} to 1e-10 relative; Renyi
    factor exact; vertex representation reproduces -lam S to 1e-12 after one
    calibrated constant, lam in {0.1, 1, 6, 10}."""
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    worst_factor = 0.0
    worst_vertex = 0.0
    calib = fermion.IntervalSet.from_pairs([(0.5, 2.0)], cutoff=0.73)
    consts = {}
    for lam in (0.1, 1.0, 6.0, 10.0):
        consts[lam] = fermion.gaussian_vertex_correlator(
            fermion.ChargeConfiguration.from_intervals(calib, lam)) \
            + lam * fermion.entropy(calib)
    for _ in range(200):
        p = int(rng.integers(1, 7))
        pts = np.sort(rng.uniform(0.0, 10.0, 2 * p))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(0.0, 10.0, 2 * p))
        ivs = fermion.IntervalSet(lefts=pts[0::2], rights=pts[1::2], cutoff=0.73)
        s_val = fermion.entropy(ivs)
        wick = fermion.correlator_wick(ivs)
        cauchy = fermion.correlator_cauchy(ivs)
        dual = (1.0 / (2 * math.pi * 0.73)) ** p * math.exp(-6 * s_val)
        worst_rel = max(worst_rel, abs(wick - cauchy) / abs(cauchy),
                        abs(cauchy - dual) / abs(dual))
        for n in (2, 3, 5):
            factor = fermion.renyi(ivs, n) - (1 + n) / (2 * n) * s_val
            worst_factor = max(worst_factor, abs(factor))
        for lam in (0.1, 1.0, 6.0, 10.0):
            log_v = fermion.gaussian_vertex_correlator(
                fermion.ChargeConfiguration.from_intervals(ivs, lam))
            worst_vertex = max(worst_vertex, abs(log_v + lam * s_val - p * consts[lam]))
    report(5, worst_rel <= 1e-10 and worst_factor == 0.0 and worst_vertex <= 1e-12,
           f"200 sets p<=6: correlator identity rel {worst_rel:.3e} (limit 1e-10), "
           f"Renyi factor deviation {worst_factor:.1e} (exact), "
           f"vertex residual {worst_vertex:.3e} (limit 1e-12)")


def test_criterion_6_fermion_infinite_divisibility():
    """Gram records of e^{-lam S} for reflected half-line configurations stay
    PSD for every tested lam > 0, 10^3 random configurations, m <= 3."""
    rng = np.random.default_rng(606)
    worst = np.inf
    for _ in range(1000):
        num_sets = int(rng.integers(2, 5))
        sets = []
        for _ in range(num_sets):
            p = int(rng.integers(1, 3))
            pts = np.sort(rng.uniform(0.05, 25.0, 2 * p))
            while np.min(np.diff(pts)) < 1e-2:
                pts = np.sort(rng.uniform(0.05, 25.0, 2 * p))
            sets.append(fermion.IntervalSet(lefts=pts[0::2], rights=pts[1::2]))
        table = fermion.witness_table(sets)
        for lam in (0.1, 1.0, 10.0):
            record = fermion.witness_record(table, lam)
            scale = max(np.linalg.norm(record.entries, 2), np.finfo(float).tiny)
            worst = min(worst, record.min_eigenvalue / scale)
    report(6, worst >= -1e-10,
           f"1000 configurations x lam in {{0.1,1,10}}, min normalized eigenvalue "
           f"{worst:.3e} (threshold -1e-10)")


def test_criterion_7_counterexample_reproduction():
    """Documented budgets reproduce violations of the entropy (n->1) and
    det-B (s->0) inequalities; stored witnesses re-verify below -10 tol.

    Budgets: entropy mode, 3000 plain trials at seed 2024 (three 2x2-split
    subsystems, lam = 1); det-B mode, 500 plain trials at seed 7 plus a
    20000-step seeded descent (same geometry, entropy table).
    """
    cfg_e = SearchConfig(dims=[(2, 2)] * 3, trials=3000, master_seed=2024,
                         target="entropy_n1", lam=1.0)
    rep_e = counterexample_search(cfg_e)
    cfg_d = SearchConfig(dims=[(2, 2)] * 3, trials=500, master_seed=7,
                         target="schur_s_fraction", n=1, refine_iterations=20000)
    rep_d = counterexample_search(cfg_d)
    live_ok = rep_e.found and rep_d.found
    # regression fixtures re-verify
    with open(os.path.join(FIXTURE_DIR, "entropy_n1_witness.json")) as handle:
        fix_e = json.load(handle)
    with open(os.path.join(FIXTURE_DIR, "detb_witness.json")) as handle:
        fix_d = json.load(handle)
    slack_e = verify_witness(fix_e["violation"], target="entropy_n1", lam=fix_e["lam"])
    slack_d = verify_witness(fix_d["violation"], target="schur_s_fraction", n=fix_d["n"])
    fixtures_ok = (slack_e < -10 * fix_e["tolerance"] and slack_d < -10 * fix_d["tolerance"])
    report(7, live_ok and fixtures_ok,
           f"entropy mode: {len(rep_e.violations)} witness(es) in 3000 trials "
           f"(slack {rep_e.min_slack:.2e}); det-B mode: {len(rep_d.violations)} "
           f"witness(es) after {rep_d.refine_used} descent steps "
           f"(slack {rep_d.min_slack:.2e}); stored fixtures re-verify at "
           f"{slack_e:.2e} / {slack_d:.2e} (need < -1e-5)")


def test_criterion_8_spectral_representation():
    """Round-trip fit <= 1e-6; gapped decay rate within 2% of twice the mass;
    derivative report: representable curves increasing+concave, the linear
    curve flagged c-theorem-violating but representation-compatible."""
    grid = np.logspace(-2, 2, 60)
    truth = SpectralDensity(p2_grid=grid[[20, 30]], weights=np.array([0.5, 0.3]))
    xs = np.logspace(-1, 0.7, 40)
    curve = EntropyCurve(x=xs, s=-np.log(forward(truth, xs)), lam=1.0)
    _, fit_report = fit_spectral(curve, grid)
    round_trip_ok = fit_report.residual_relative <= 1e-6

    mass = 0.7
    gapped = SpectralDensity(p2_grid=np.array([4 * mass ** 2, 9 * mass ** 2]),
                             weights=np.array([1.0, 0.5]))
    rate = decay_rate(gapped, (25.0 / (2 * mass), 50.0 / (2 * mass)))
    decay_ok = abs(rate - 2 * mass) <= 0.02 * 2 * mass

    xs_d = np.logspace(-0.4, 0.9, 300)
    rp_curves = [
        EntropyCurve(x=xs_d, s=np.log(xs_d) / 6 + 1.0, lam=1.0),
        EntropyCurve(x=xs_d, s=-np.log(forward(truth, xs_d)) / 2, lam=2.0),
        EntropyCurve(x=xs_d, s=np.full_like(xs_d, 0.4), lam=1.0),
    ]
    rp_ok = all(r.increasing and r.concave
                for r in (derivative_checks(c, tol=1e-6) for c in rp_curves))
    linear = derivative_checks(EntropyCurve(x=xs_d, s=xs_d.copy(), lam=1.0), tol=1e-6)
    linear_ok = linear.increasing and linear.concave and not linear.c_theorem
    report(8, round_trip_ok and decay_ok and rp_ok and linear_ok,
           f"round-trip residual {fit_report.residual_relative:.2e} (limit 1e-6); "
           f"decay rate {rate:.4f} vs {2 * mass} (within 2%); representable curves "
           f"increasing+concave: {rp_ok}; linear curve flagged "
           f"c-theorem-violating: {linear_ok}")


def test_criterion_9_power_law_exponent():
    """Fitted spectral power matches the short-distance exponent relation
    within 5% for three coefficient triples."""
    details = []
    ok = True
    for lam, n, c_charge in ((6.0, 2.0, 2.0), (12.0, 1.0, 1.0), (3.0, 2.0, 2.0)):
        alpha = lam * (n + 1) * c_charge / (6 * n)
        gamma_true = alpha - 2
        xs = np.logspace(math.log10(0.3), math.log10(3.0), 60)
        curve = EntropyCurve(x=xs, s=alpha * np.log(xs) / lam, lam=lam)
        fit = fit_power_density(curve)
        rel = abs(fit.gamma - gamma_true) / abs(gamma_true)
        ok = ok and rel <= 0.05
        details.append(f"(lam={lam},n={n},C={c_charge}): gamma {fit.gamma:+.4f} "
                       f"vs {gamma_true:+.1f} ({rel:.2%})")
    report(9, ok, "; ".join(details) + " (limit 5%)")


def test_criterion_10_cft_inequalities():
    """F = 1 with q > 0 passes both inequalities on 10^3-point sweeps with
    slack >= -1e-10; the degenerate pair is exact; the synthetic violator is
    flagged FAIL."""
    func = CrossRatioFunction.ones()
    q = 0.25
    grid = np.linspace(0.005, 0.995, 1000)
    deriv = check_derivative_inequality(func, q, grid, tol=1e-10)
    rng = np.random.default_rng(1010)
    pairs = rng.uniform(0.005, 0.995, size=(1000, 2))
    midpoint = check_midpoint_inequality(func, q, pairs, tol=1e-10)
    sweeps_ok = (deriv.passed and deriv.min_slack >= -1e-10
                 and midpoint.passed and midpoint.min_slack >= -1e-10)
    z_exact = all(z_point(float(x), float(x)) == float(x) for x in grid[::37])
    violator = CrossRatioFunction(evaluator=lambda x: (1 - x) ** (2 * q),
                                  name="violator")
    flagged = not check_derivative_inequality(violator, q, grid, tol=1e-10).passed
    report(10, sweeps_ok and z_exact and flagged,
           f"derivative min slack {deriv.min_slack:.3e}, midpoint min slack "
           f"{midpoint.min_slack:.3e} (thresholds -1e-10); z(x,x)=x exact: {z_exact}; "
           f"synthetic violator flagged FAIL: {flagged}")
