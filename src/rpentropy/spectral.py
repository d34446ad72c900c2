"""Spectral representation of single-interval entropy exponentials through
the K0 kernel: forward transform, nonnegativity-constrained inverse fit, and
the derivative/decay consequences of representability.

A curve S(x) admits the representation e^{-lam S(x)} = integral of
g(p^2) K0(p x) with g >= 0 exactly when the reflection-positivity
inequalities hold for the single interval, so a large constrained-fit
residual is evidence against representability at that lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.special import k0, k0e

DECAY_SAMPLES = 40                # decay_rate: x points of the log-slope regression
POWER_GAMMA_BOUNDS = (-1.9, 8.0)  # fit_power_density: exponent search interval
POWER_GRID_POINTS = 400           # fit_power_density: p^2 grid size
FIT_MARGINS = (0.03, 40.0)        # fit_grid: momentum ends times max x and min x
DELTA_P0 = 1e-8                   # SpectralDensity: momentum of the p^2 = 0 point mass


@dataclass(frozen=True)
class SpectralDensity:
    """Nonnegative weights on a p^2 grid (quadrature weight times density).

    An optional point mass at p^2 = 0 models the saturation constant of a
    massive theory; the divergent K0(0 x) kernel limit is approximated by a
    point mass at DELTA_P0 with DELTA_P0 * x << 1 over the window of use.
    """

    p2_grid: np.ndarray
    weights: np.ndarray
    delta_at_zero: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.p2_grid, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if grid.shape != w.shape or grid.ndim != 1:
            raise ValueError("grid and weights must be equal-length 1-D arrays")
        if grid.size and (np.any(grid < 0) or np.any(np.diff(grid) <= 0)):
            raise ValueError("p^2 grid must be nonnegative and strictly increasing")
        if np.any(w < 0) or self.delta_at_zero < 0:
            raise ValueError("spectral weights must be nonnegative")
        object.__setattr__(self, "p2_grid", grid)
        object.__setattr__(self, "weights", w)

    @property
    def momenta(self) -> np.ndarray:
        return np.sqrt(self.p2_grid)


@dataclass(frozen=True)
class EntropyCurve:
    """Sampled single-interval entropy S(x) at distinct positive lengths."""

    x: np.ndarray
    s: np.ndarray
    lam: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if x.shape != s.shape or x.ndim != 1:
            raise ValueError("x and s must be equal-length 1-D arrays")
        if np.any(x <= 0) or np.unique(x).size != x.size:
            raise ValueError("x values must be positive and distinct")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        order = np.argsort(x)
        object.__setattr__(self, "x", x[order])
        object.__setattr__(self, "s", s[order])

    def exponentials(self) -> np.ndarray:
        return np.exp(-self.lam * self.s)


def forward(density: SpectralDensity, x) -> np.ndarray | float:
    """Kernel transform sum_j w_j K0(p_j x) (+ the p^2 = 0 point mass)."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    out = np.zeros_like(xs)
    if density.weights.size:
        p = density.momenta
        mask = p > 0
        if np.any(mask):
            out += k0(np.outer(xs, p[mask])).dot(density.weights[mask])
        if np.any(~mask):
            # exact zeros on the grid fall back to the point-mass convention
            out += density.weights[~mask].sum() * k0(DELTA_P0 * xs)
    if density.delta_at_zero > 0:
        out += density.delta_at_zero * k0(DELTA_P0 * xs)
    return float(out[0]) if scalar else out


def _fit_kernel(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Fit kernel K_ij = K0(p_j x_i) over increasing x and p.

    K0 is exactly 0.0 in double precision beyond p x ~ 742, so a momentum
    with p x_min past that point gives an all-zero column that a fit would
    silently drop; such a grid is refused, with the magnitude from k0e.
    """
    kernel = k0(np.outer(x, p))
    dead = ~kernel.any(axis=0)
    if np.any(dead):
        first = p[dead][0]
        arg = first * x[0]
        log10_k0 = math.log10(k0e(arg)) - arg / math.log(10.0)
        usable = (f"the largest usable p on this grid is {p[~dead][-1]:.6g}"
                  if np.any(~dead) else "no p on this grid is usable")
        raise ValueError(
            f"K0 underflows to 0 for fit momentum p = {first:.6g} and above "
            f"({int(dead.sum())} of {p.size} grid points): K0(p x_min) = "
            f"K0({arg:.6g}) ~ 1e{log10_k0:.0f}; {usable}")
    return kernel


def fit_grid(x: np.ndarray, grid_points: int) -> tuple[np.ndarray, float, float]:
    """Log-spaced p^2 grid for samples at lengths x, with its momentum ends.

    The momenta run from p_lo = FIT_MARGINS[0] / max x to
    p_hi = FIT_MARGINS[1] / min x, so the grid spans every decay scale the
    samples can resolve while K0(p_hi min x) = K0(40) stays far above its
    double-precision underflow.
    """
    p_lo = FIT_MARGINS[0] / x.max()
    p_hi = FIT_MARGINS[1] / x.min()
    return np.logspace(np.log10(p_lo ** 2), np.log10(p_hi ** 2), grid_points), p_lo, p_hi


@dataclass
class FitReport:
    residual: float
    residual_relative: float
    fitted_values: np.ndarray
    conditioning_flag: bool
    perturbed_shift: float


def fit_spectral(curve: EntropyCurve, p2_grid: np.ndarray,
                 ridge: float = 0.0) -> tuple[SpectralDensity, FitReport]:
    """Nonnegative least-squares fit of a spectral density to an entropy curve.

    Solves min ||K w - y||_2 subject to w >= 0 with K_ij = K0(p_j x_i) and
    y = e^{-lam S}.  Positivity is the physical regularizer; an optional
    ridge parameter is available for badly conditioned kernels.  Weight-space
    recovery is not unique, so quality is judged in data space.
    """
    p2_grid = np.asarray(p2_grid, dtype=float)
    if np.any(p2_grid <= 0) or np.any(np.diff(p2_grid) <= 0):
        raise ValueError("fit grid must be positive and strictly increasing")
    y = curve.exponentials()
    p = np.sqrt(p2_grid)
    kernel = _fit_kernel(curve.x, p)
    if ridge > 0:
        kernel_aug = np.vstack([kernel, math.sqrt(ridge) * np.eye(p.size)])
        y_aug = np.concatenate([y, np.zeros(p.size)])
    else:
        kernel_aug, y_aug = kernel, y
    maxiter = 50 * p.size
    weights, _ = nnls(kernel_aug, y_aug, maxiter=maxiter)
    fitted = kernel @ weights
    residual = float(np.linalg.norm(fitted - y))
    residual_rel = residual / max(np.linalg.norm(y), np.finfo(float).tiny)
    # conditioning diagnostic: refit against a slightly perturbed target and
    # compare in data space; a fit dominated by conditioning moves much more
    # than the perturbation
    rng = np.random.default_rng(0)
    scale = 1e-8 * max(np.linalg.norm(y), 1.0)
    y_pert = y_aug.copy()
    y_pert[: y.size] += scale * rng.standard_normal(y.size)
    weights_pert, _ = nnls(kernel_aug, y_pert, maxiter=maxiter)
    shift = float(np.linalg.norm(kernel @ weights_pert - fitted))
    flag = shift > 100.0 * scale * math.sqrt(y.size)
    density = SpectralDensity(p2_grid=p2_grid, weights=weights)
    return density, FitReport(residual=residual, residual_relative=residual_rel,
                              fitted_values=fitted, conditioning_flag=flag,
                              perturbed_shift=shift)


@dataclass
class DerivativeReport:
    first: np.ndarray
    second: np.ndarray
    c_combination: np.ndarray
    increasing: bool
    concave: bool
    c_theorem: bool


def derivative_checks(curve: EntropyCurve, tol: float = 1e-9) -> DerivativeReport:
    """Finite-difference signs of S', S'' and x S'' + S' on the sample grid.

    Representability requires S' >= 0 and S'' <= 0; the combination
    x S'' + S' <= 0 is a strictly stronger statement that representability
    does NOT imply, so it is reported but nothing asserts it.  The
    non-uniform central stencils are exact on quadratics.
    """
    x, s = curve.x, curve.s
    if x.size < 5:
        raise ValueError("need at least 5 samples for second differences")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x grid must be strictly increasing")
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    denom = h1 * h2 * (h1 + h2)
    first = (h1 ** 2 * s[2:] + (h2 ** 2 - h1 ** 2) * s[1:-1] - h2 ** 2 * s[:-2]) / denom
    second = 2.0 * (h1 * s[2:] - (h1 + h2) * s[1:-1] + h2 * s[:-2]) / denom
    combo = x[1:-1] * second + first
    scale = max(1.0, np.abs(s).max())
    return DerivativeReport(first=first, second=second, c_combination=combo,
                            increasing=bool(np.all(first >= -tol * scale)),
                            concave=bool(np.all(second <= tol * scale)),
                            c_theorem=bool(np.all(combo <= tol * scale)))


def decay_rate(density: SpectralDensity, x_window: tuple[float, float]) -> float:
    """Exponential decay rate of the transform, by log-slope regression.

    For g supported on p^2 >= 4 M^2 the rate approaches 2M (the square root
    of the support edge) once x is deep in the tail; the K0 prefactor decays
    like x^{-1/2}, which the regression absorbs into its intercept.
    """
    lo, hi = x_window
    if not 0 < lo < hi:
        raise ValueError("x window must satisfy 0 < lo < hi")
    xs = np.linspace(lo, hi, DECAY_SAMPLES)
    vals = forward(density, xs)
    if np.any(vals <= 0):
        raise ValueError("transform must stay positive over the window")
    # regress log y + (1/2) log x against x; the half-log term removes the
    # algebraic prefactor of the kernel tail
    target = np.log(vals) + 0.5 * np.log(xs)
    slope = np.polyfit(xs, target, 1)[0]
    return float(-slope)


@dataclass
class PowerFitReport:
    gamma: float
    amplitude: float
    residual_relative: float


def fit_power_density(curve: EntropyCurve) -> PowerFitReport:
    """Fit a pure power-law spectral density g(p^2) = A p^gamma, A >= 0.

    The density is discretized on `fit_grid`'s momentum grid (trapezoid
    weights in p^2) and the exponent minimizes the data-space residual; the
    amplitude is profiled out in closed form.  A short-distance curve
    S ~ (alpha/lam) log x comes out with gamma = alpha - 2.
    """
    from scipy.optimize import minimize_scalar

    y = curve.exponentials()
    p2, p_lo, p_hi = fit_grid(curve.x, POWER_GRID_POINTS)
    quad = np.gradient(p2)
    kernel = _fit_kernel(curve.x, np.sqrt(p2))
    p_ref = math.sqrt(p_lo * p_hi)

    def predict(gamma: float) -> np.ndarray:
        profile = (np.sqrt(p2) / p_ref) ** gamma * quad
        return kernel @ profile

    def residual(gamma: float) -> float:
        b = predict(gamma)
        denom = float(b @ b)
        amp = max(float(b @ y) / denom, 0.0) if denom > 0 else 0.0
        return float(np.linalg.norm(y - amp * b))

    opt = minimize_scalar(residual, bounds=POWER_GAMMA_BOUNDS, method="bounded",
                          options={"xatol": 1e-6})
    gamma = float(opt.x)
    b = predict(gamma)
    amp = max(float(b @ y) / float(b @ b), 0.0)
    rel = float(np.linalg.norm(y - amp * b)) / max(np.linalg.norm(y), np.finfo(float).tiny)
    return PowerFitReport(gamma=gamma, amplitude=amp * p_ref ** (-gamma),
                          residual_relative=rel)
