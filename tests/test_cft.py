import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpentropy.cft import (CrossRatioFunction, _z_points, check_derivative_inequality,
                           check_midpoint_inequality, z_point)

from oracles import TwoIntervalConfig, cross_ratio, renyi_two_interval


class TestCrossRatio:

    def test_reference_configuration(self):
        cfg = TwoIntervalConfig(0, 1, 2, 3)
        assert cross_ratio(cfg) == pytest.approx(0.25, abs=1e-15)

    def test_small_first_interval(self):
        cfg = TwoIntervalConfig(0, 1e-9, 2, 3)
        assert cross_ratio(cfg) < 1e-9

    def test_touching_intervals(self):
        cfg = TwoIntervalConfig(0, 1, 1 + 1e-9, 2 + 1e-9)
        assert cross_ratio(cfg) > 1 - 1e-8

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="a1 < b1"):
            TwoIntervalConfig(0, 2, 1, 3)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            pts = np.sort(rng.uniform(0, 10, 4))
            if np.min(np.diff(pts)) < 1e-3:
                continue
            cfg = TwoIntervalConfig(*pts)
            x0 = cross_ratio(cfg)
            shift, scale = float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 7))
            moved = TwoIntervalConfig(*(scale * pts + shift))
            assert cross_ratio(moved) == pytest.approx(x0, abs=1e-12)


class TestRenyiTwoInterval:

    def test_reference_value(self):
        cfg = TwoIntervalConfig(0, 1, 2, 3, central_charge=1.0, n=2)
        val = renyi_two_interval(cfg, CrossRatioFunction.ones())
        assert cfg.q == pytest.approx(0.25)
        assert val == pytest.approx(0.25 * math.log(0.75), abs=1e-14)

    def test_scale_covariance(self):
        func = CrossRatioFunction.ones()
        cfg = TwoIntervalConfig(0, 1, 2, 3, central_charge=1.3, n=3)
        sigma = 2.7
        scaled = TwoIntervalConfig(0, sigma, 2 * sigma, 3 * sigma,
                                   central_charge=1.3, n=3)
        shift = (cfg.n - 1) * (renyi_two_interval(scaled, func)
                               - renyi_two_interval(cfg, func))
        assert shift == pytest.approx(2 * cfg.q * math.log(sigma), abs=1e-12)

    def test_symmetric_configurations_share_f(self):
        # x and 1-x configurations probe F at mirror points
        func = CrossRatioFunction(
            evaluator=lambda x: 1 + 0.3 * (x * (1 - x)), name="sym")
        report = func.validate()
        assert report["symmetric"]

    def test_rejects_nonpositive_f(self):
        cfg = TwoIntervalConfig(0, 1, 2, 3)
        bad = CrossRatioFunction(evaluator=lambda x: np.zeros_like(x), name="zero")
        with pytest.raises(ValueError, match="positive"):
            renyi_two_interval(cfg, bad)


class TestDerivativeInequality:

    def test_trivial_f_passes(self):
        grid = np.linspace(0.01, 0.99, 500)
        report = check_derivative_inequality(CrossRatioFunction.ones(), 0.25, grid)
        assert report.passed
        assert report.min_slack > 0

    def test_synthetic_violator_fails(self):
        q = 0.25
        violator = CrossRatioFunction(evaluator=lambda x: (1 - x) ** (2 * q),
                                      name="violator")
        grid = np.linspace(0.01, 0.99, 200)
        report = check_derivative_inequality(violator, q, grid)
        assert not report.passed
        assert report.min_slack < -1e-3

    def test_grid_domain_enforced(self):
        with pytest.raises(ValueError, match="inside"):
            check_derivative_inequality(CrossRatioFunction.ones(), 0.25,
                                        np.array([0.0, 0.5]))

    def test_richardson_error_is_small(self):
        grid = np.linspace(0.05, 0.95, 50)
        report = check_derivative_inequality(CrossRatioFunction.ones(), 0.5, grid)
        assert report.fd_error <= 1e-6


class TestZPoint:

    def test_degenerate_pair_exact(self):
        for x in (0.1, 0.25, 0.37, 0.9, 1 / 3):
            assert z_point(x, x) == x

    def test_between_arguments(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            x, y = rng.uniform(1e-3, 1 - 1e-3, 2)
            z = z_point(float(x), float(y))
            assert min(x, y) - 1e-12 <= z <= max(x, y) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            z_point(0.0, 0.5)

    def test_stacked_points_match_scalar_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        pairs = rng.uniform(1e-3, 1 - 1e-3, size=(20000, 2))
        pairs[::97, 1] = pairs[::97, 0]  # degenerate pairs take the x == y shortcut
        stacked = _z_points(pairs[:, 0], pairs[:, 1])
        scalar = np.array([z_point(x, y) for x, y in pairs.tolist()])
        assert stacked.tobytes() == scalar.tobytes()
        assert np.array_equal(stacked[::97], pairs[::97, 0])

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 1 - 1e-3), st.floats(1e-3, 1 - 1e-3))
    def test_formula_matches_direct_evaluation(self, x, y):
        z = z_point(x, y)
        root = math.sqrt(x) * math.sqrt(y)
        direct = 2 * root / (1 + math.sqrt(1 - x) * math.sqrt(1 - y) + root)
        assert z == pytest.approx(direct, abs=5e-15)


class TestMidpointInequality:

    def test_trivial_f_sweep(self):
        rng = np.random.default_rng(0)
        pairs = rng.uniform(0.01, 0.99, size=(1000, 2))
        report = check_midpoint_inequality(CrossRatioFunction.ones(), 0.25, pairs)
        assert report.passed
        assert report.min_slack >= -1e-10

    def test_slack_saturates_as_pair_degenerates(self):
        func = CrossRatioFunction.ones()
        slacks = [check_midpoint_inequality(func, 0.25, [(0.4, 0.4 + dy)]).slack[0]
                  for dy in (1e-2, 1e-3, 1e-4)]
        assert slacks[0] > slacks[1] > slacks[2] >= 0
        assert slacks[2] <= 1e-7

    def test_pair_domain_enforced(self):
        with pytest.raises(ValueError):
            check_midpoint_inequality(CrossRatioFunction.ones(), 0.25, [(0.0, 0.5)])


class TestTableFunction:

    def test_interpolation_round_trip(self):
        xs = np.linspace(0.02, 0.98, 97)
        vals = 1 + 0.2 * np.sin(math.pi * xs) ** 2
        func = CrossRatioFunction.from_table(xs, vals, name="wavy")
        probe = np.linspace(0.05, 0.95, 41)
        assert np.max(np.abs(func(probe) - (1 + 0.2 * np.sin(math.pi * probe) ** 2))) <= 1e-4
        assert func.validate()["symmetric"]

    @pytest.mark.parametrize("lo, hi", [(0.6, 0.9), (0.05, 0.45)])
    def test_domain_without_mirror_pairs_leaves_symmetry_untested(self, lo, hi):
        # no x in [lo, hi] has 1 - x in it too; validate once evaluated
        # 1 - x outside the table and raised
        xs = np.linspace(lo, hi, 31)
        report = CrossRatioFunction.from_table(xs, 1.0 + xs).validate()
        assert report["symmetry_deviation"] is None and report["symmetric"] is None

    def test_out_of_domain_rejected(self):
        func = CrossRatioFunction.from_table(np.linspace(0.2, 0.8, 13),
                                             np.ones(13))
        with pytest.raises(ValueError, match="domain"):
            func(np.array([0.05]))

    def test_table_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            CrossRatioFunction.from_table(np.array([0.5, 0.2]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="positive"):
            CrossRatioFunction.from_table(np.array([0.2, 0.5]), np.array([1.0, -1.0]))
