import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import k0

from rpentropy.spectral import (EntropyCurve, SpectralDensity, decay_rate,
                                derivative_checks, fit_grid, fit_power_density, fit_spectral,
                                forward)


def k0_quadrature(x, step: float = 0.01, tail: float = 45.0) -> np.ndarray:
    """Oracle K0(x) = integral_0^inf exp(-x cosh t) dt by composite trapezoid.

    The integrand decays double-exponentially, so the trapezoid rule
    converges superalgebraically; the cutoff drops a tail below e^{-tail}.
    """
    out = np.empty(np.size(x))
    for i, xi in enumerate(np.atleast_1d(np.asarray(x, dtype=float))):
        t_max = math.acosh(1.0 + tail / xi)
        t = np.linspace(0.0, t_max, max(int(t_max / step) + 1, 40))
        out[i] = trapezoid(np.exp(-xi * np.cosh(t)), t)
    return out


class TestBesselK0:

    def test_against_quadrature_all_regimes(self):
        xs = np.concatenate([np.logspace(-6, 0.5, 25), np.linspace(4, 20, 40),
                             np.linspace(25, 80, 12)])
        ref = k0_quadrature(xs)
        assert np.max(np.abs(k0(xs) - ref) / ref) <= 1e-10

    def test_reference_point(self):
        assert k0(1.0) == pytest.approx(0.421024, abs=1e-6)
        assert k0_quadrature(1.0)[0] == pytest.approx(0.421024, abs=1e-6)

    def test_positive_domain_only(self):
        # scipy's K0 returns inf or nan off its domain instead of raising, so
        # every kernel argument is checked where it enters the package
        with pytest.raises(ValueError, match="positive"):
            EntropyCurve(x=np.array([0.0, 1.0]), s=np.zeros(2), lam=1.0)
        curve = EntropyCurve(x=np.array([1.0, 2.0]), s=np.array([0.1, 0.2]), lam=1.0)
        with pytest.raises(ValueError, match="positive"):
            fit_spectral(curve, np.array([0.0, 1.0]))
        g = SpectralDensity(p2_grid=np.array([1.0]), weights=np.array([1.0]))
        with pytest.raises(ValueError, match="positive"):
            forward(g, np.array([1.0, -2.0]))


class TestForward:

    def test_point_mass_is_kernel_value(self):
        g = SpectralDensity(p2_grid=np.array([1.0]), weights=np.array([1.0]))
        assert forward(g, 1.0) == pytest.approx(k0(1.0), rel=1e-14)

    def test_gapped_asymptotics(self):
        # value * sqrt(2 x m / pi) * e^{m x} -> 1 deep in the tail
        m = 1.3
        g = SpectralDensity(p2_grid=np.array([m ** 2]), weights=np.array([1.0]))
        x = 30.0 / m
        scaled = forward(g, x) * math.sqrt(2 * x * m / math.pi) * math.exp(m * x)
        assert scaled == pytest.approx(1.0, rel=1e-2)

    def test_zero_density(self):
        g = SpectralDensity(p2_grid=np.array([]), weights=np.array([]))
        assert forward(g, 2.0) == 0.0

    def test_delta_at_zero_near_constant(self):
        # p0 x << 1 makes the kernel logarithmically flat, not exactly flat
        g = SpectralDensity(p2_grid=np.array([]), weights=np.array([]), delta_at_zero=0.5)
        vals = forward(g, np.array([0.5, 1.0, 2.0]))
        assert np.all(vals > 0)
        assert np.max(vals) - np.min(vals) <= 0.1 * np.max(vals)

    def test_rejects_nonpositive_x(self):
        g = SpectralDensity(p2_grid=np.array([1.0]), weights=np.array([1.0]))
        with pytest.raises(ValueError):
            forward(g, -1.0)

    def test_transform_is_decreasing_and_convex(self):
        # nonnegative weights make the transform completely monotone
        rng = np.random.default_rng(12)
        for _ in range(5):
            grid = np.sort(rng.uniform(0.05, 30.0, 8))
            g = SpectralDensity(p2_grid=grid, weights=rng.uniform(0, 1, 8))
            xs = np.linspace(0.05, 8.0, 200)
            vals = forward(g, xs)
            assert np.all(np.diff(vals) < 0)
            assert np.all(np.diff(vals, 2) > 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralDensity(p2_grid=np.array([1.0]), weights=np.array([-0.1]))
        with pytest.raises(ValueError, match="increasing"):
            SpectralDensity(p2_grid=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]))


class TestFit:

    def test_round_trip_two_spikes(self):
        grid = np.logspace(-2, 2, 60)
        truth = SpectralDensity(p2_grid=grid[[20, 30]], weights=np.array([0.5, 0.3]))
        xs = np.logspace(-1, 0.7, 40)
        curve = EntropyCurve(x=xs, s=-np.log(forward(truth, xs)), lam=1.0)
        density, report = fit_spectral(curve, grid)
        assert report.residual_relative <= 1e-6
        held_out = np.logspace(-0.9, 0.6, 21)
        rel = np.abs(forward(density, held_out) - forward(truth, held_out)) \
            / forward(truth, held_out)
        assert np.max(rel) <= 1e-6

    def test_increasing_data_cannot_be_represented(self):
        xs = np.linspace(1.0, 2.0, 25)
        curve = EntropyCurve(x=xs, s=-np.log(1.0 + xs), lam=1.0)  # y = 1 + x grows
        _, report = fit_spectral(curve, np.logspace(-2, 2, 40))
        assert report.residual_relative > 1e-2

    def test_ridge_mode_runs(self):
        grid = np.logspace(-2, 2, 40)
        truth = SpectralDensity(p2_grid=grid[[15]], weights=np.array([1.0]))
        xs = np.logspace(-0.5, 0.5, 20)
        curve = EntropyCurve(x=xs, s=-np.log(forward(truth, xs)), lam=1.0)
        _, report = fit_spectral(curve, grid, ridge=1e-10)
        assert report.residual_relative <= 1e-3

    def test_fit_grid_spans_the_margins(self):
        xs = np.logspace(-1, 0.7, 40)
        p2, p_lo, p_hi = fit_grid(xs, 50)
        assert (p_lo, p_hi) == (0.03 / xs.max(), 40.0 / xs.min())
        assert p2.size == 50 and np.all(np.diff(np.log(p2)) > 0)
        assert np.allclose(np.sqrt(p2[[0, -1]]), [p_lo, p_hi], rtol=1e-12)
        # the margins reach K0(40), far above its underflow at ~742
        assert np.all(k0(np.outer(xs, np.sqrt(p2))).any(axis=0))

    def test_grid_validation(self):
        curve = EntropyCurve(x=np.array([1.0, 2.0]), s=np.array([0.1, 0.2]), lam=1.0)
        with pytest.raises(ValueError, match="increasing"):
            fit_spectral(curve, np.array([4.0, 1.0]))

    def test_underflowing_kernel_column_refused(self):
        # K0 is exactly 0.0 beyond ~742, so p = 800 / x_min gives an all-zero
        # column that NNLS would silently drop
        xs = np.logspace(-1, 0.7, 40)
        curve = EntropyCurve(x=xs, s=np.log(xs) / 6, lam=1.0)
        assert k0(800.0) == 0.0
        usable = np.logspace(-2, 2, 60)
        grid = np.append(usable, [7000.0 ** 2, 8000.0 ** 2, 9000.0 ** 2])
        with pytest.raises(ValueError, match=r"p = 8000 and above \(2 of 63.*"
                                             r"K0\(800\) ~ 1e-349.*largest usable p .* 7000$"):
            fit_spectral(curve, grid)
        # p x_min = 700 is tiny but nonzero: still a usable column
        fit_spectral(curve, np.append(usable, 7000.0 ** 2))
        with pytest.raises(ValueError, match="no p on this grid is usable"):
            fit_spectral(curve, np.array([8000.0 ** 2, 9000.0 ** 2]))


class TestDerivativeChecks:

    def dense_log_curve(self):
        xs = np.logspace(-0.5, 1.0, 400)
        return EntropyCurve(x=xs, s=np.log(xs) / 6, lam=1.0)

    def test_log_curve_signs(self):
        report = derivative_checks(self.dense_log_curve(), tol=1e-4)
        assert report.increasing and report.concave
        # x S'' + S' vanishes identically for the log; discretization noise only
        assert np.max(np.abs(report.c_combination)) <= 1e-4
        assert report.c_theorem

    def test_linear_curve_violates_c_theorem_only(self):
        xs = np.logspace(-0.5, 1.0, 200)
        report = derivative_checks(EntropyCurve(x=xs, s=xs.copy(), lam=1.0), tol=1e-6)
        assert report.increasing and report.concave
        assert not report.c_theorem
        assert np.min(report.c_combination) >= 0.9

    def test_constant_curve_all_zero(self):
        xs = np.linspace(1, 2, 50)
        report = derivative_checks(EntropyCurve(x=xs, s=np.full(50, 0.3), lam=1.0))
        assert report.increasing and report.concave and report.c_theorem

    def test_exact_on_quadratics(self):
        xs = np.logspace(0, 1, 60)
        curve = EntropyCurve(x=xs, s=3 * xs ** 2 + 2 * xs + 1, lam=1.0)
        report = derivative_checks(curve)
        assert np.max(np.abs(report.first - (6 * xs[1:-1] + 2))) <= 1e-9 * np.max(xs) ** 2
        assert np.max(np.abs(report.second - 6)) <= 1e-9 * np.max(xs) ** 2

    def test_requires_five_samples(self):
        with pytest.raises(ValueError, match="5 samples"):
            derivative_checks(EntropyCurve(x=np.array([1.0, 2, 3, 4]),
                                           s=np.zeros(4), lam=1.0))

    def test_representable_transform_is_increasing_concave(self):
        g = SpectralDensity(p2_grid=np.array([0.5, 2.0]), weights=np.array([0.4, 0.2]))
        xs = np.logspace(-0.3, 0.8, 300)
        curve = EntropyCurve(x=xs, s=-np.log(forward(g, xs)) / 2.0, lam=2.0)
        report = derivative_checks(curve, tol=1e-8)
        assert report.increasing and report.concave

    def test_gapped_density_gives_representable_linear_growth(self):
        # a gap makes the transform decay exponentially, so the entropy grows
        # asymptotically linearly: representable, yet the combination
        # x S'' + S' stays positive deep in the tail
        g = SpectralDensity(p2_grid=np.array([1.0, 4.0]), weights=np.array([1.0, 0.3]))
        xs = np.linspace(20.0, 40.0, 200)
        curve = EntropyCurve(x=xs, s=-np.log(forward(g, xs)), lam=1.0)
        report = derivative_checks(curve, tol=1e-9)
        assert report.increasing and report.concave
        assert not report.c_theorem
        assert np.min(report.c_combination) > 0.5  # ~ gap edge momentum


class TestDecayRate:

    def test_two_mass_gap(self):
        m = 0.7
        g = SpectralDensity(p2_grid=np.array([4 * m ** 2, 9 * m ** 2]),
                            weights=np.array([1.0, 0.5]))
        rate = decay_rate(g, (25.0 / (2 * m), 50.0 / (2 * m)))
        assert rate == pytest.approx(2 * m, rel=0.02)

    def test_window_validation(self):
        g = SpectralDensity(p2_grid=np.array([1.0]), weights=np.array([1.0]))
        with pytest.raises(ValueError):
            decay_rate(g, (3.0, 2.0))


class TestPowerLaw:

    @pytest.mark.parametrize("lam,n,C", [(6.0, 2.0, 2.0), (12.0, 1.0, 1.0), (3.0, 2.0, 2.0)])
    def test_parametric_exponent_recovery(self, lam, n, C):
        alpha = lam * (n + 1) * C / (6 * n)
        gamma_true = alpha - 2
        xs = np.logspace(math.log10(0.3), math.log10(3.0), 60)
        curve = EntropyCurve(x=xs, s=alpha * np.log(xs) / lam, lam=lam)
        report = fit_power_density(curve)
        assert report.gamma == pytest.approx(gamma_true, rel=0.05, abs=5e-3)
        assert report.residual_relative <= 1e-3

    def test_chiral_fermion_curve_exponent(self):
        # S = (1/6) log x at weight 6 means y = 1/x; with the chiral central
        # charge 1/2 the exponent relation gives gamma + 2 = 6*2*(1/2)/6 = 1
        xs = np.logspace(math.log10(0.3), math.log10(3.0), 60)
        curve = EntropyCurve(x=xs, s=np.log(xs) / 6, lam=6.0)
        fit = fit_power_density(curve)
        assert fit.gamma == pytest.approx(-1.0, rel=0.05)

    def test_underflowing_kernel_column_refused(self):
        # fit_grid's momenta stop at p x_min = 40; this grid runs on to
        # p x_min = 800, past the K0 underflow at ~742
        xs = np.logspace(math.log10(0.3), math.log10(3.0), 60)
        curve = EntropyCurve(x=xs, s=np.log(xs) / 6, lam=6.0)
        p2 = np.logspace(2 * math.log10(0.03 / xs.max()), 2 * math.log10(800.0 / xs.min()), 400)
        with pytest.raises(ValueError, match="K0 underflows to 0.*largest usable p"):
            fit_spectral(curve, p2)
