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
from scipy.special import k0


@dataclass(frozen=True)
class SpectralDensity:
    """Nonnegative weights on a p^2 grid (quadrature weight times density).

    An optional point mass at p^2 = 0 models the saturation constant of a
    massive theory; the divergent K0(0 x) kernel limit is approximated by a
    point mass at `delta_p0` with delta_p0 * x << 1 over the window of use.
    """

    p2_grid: np.ndarray
    weights: np.ndarray
    delta_at_zero: float = 0.0
    delta_p0: float = 1e-8

    def __post_init__(self):
        grid = np.asarray(self.p2_grid, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if grid.shape != w.shape or grid.ndim != 1:
            raise ValueError("grid and weights must be equal-length 1-D arrays")
        if grid.size and (np.any(grid < 0) or np.any(np.diff(grid) <= 0)):
            raise ValueError("p^2 grid must be nonnegative and strictly increasing")
        if np.any(w < 0) or self.delta_at_zero < 0:
            raise ValueError("spectral weights must be nonnegative")
        if not self.delta_p0 > 0:
            raise ValueError("delta_p0 must be positive")
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
            out += density.weights[~mask].sum() * k0(density.delta_p0 * xs)
    if density.delta_at_zero > 0:
        out += density.delta_at_zero * k0(density.delta_p0 * xs)
    return float(out[0]) if scalar else out


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
    kernel = k0(np.outer(curve.x, p))
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


def decay_rate(density: SpectralDensity, x_window: tuple[float, float],
               num: int = 40) -> float:
    """Exponential decay rate of the transform, by log-slope regression.

    For g supported on p^2 >= 4 M^2 the rate approaches 2M (the square root
    of the support edge) once x is deep in the tail; the K0 prefactor decays
    like x^{-1/2}, which the regression absorbs into its intercept.
    """
    lo, hi = x_window
    if not 0 < lo < hi:
        raise ValueError("x window must satisfy 0 < lo < hi")
    xs = np.linspace(lo, hi, num)
    vals = forward(density, xs)
    if np.any(vals <= 0):
        raise ValueError("transform must stay positive over the window")
    # regress log y + (1/2) log x against x; the half-log term removes the
    # algebraic prefactor of the kernel tail
    target = np.log(vals) + 0.5 * np.log(xs)
    slope = np.polyfit(xs, target, 1)[0]
    return float(-slope)


def fitted_power_exponent(density: SpectralDensity,
                          momentum_window: tuple[float, float]) -> float:
    """Coarse power-law exponent gamma read off free-form fitted weights.

    Constrained least squares returns spiky weight vectors, so the exponent
    is taken from the cumulative weight W(p) ~ p^{gamma + 2} regressed over
    the momentum window the data actually probes.  Diagnostic quality only;
    use fit_power_density for a quantitative exponent.
    """
    w = density.weights
    p = density.momenta
    cum = np.cumsum(w)
    lo, hi = momentum_window
    mask = (p >= lo) & (p <= hi) & (cum > 0)
    if mask.sum() < 3:
        raise ValueError("too few active weights in the window for regression")
    slope = np.polyfit(np.log(p[mask]), np.log(cum[mask]), 1)[0]
    return float(slope - 2.0)


@dataclass
class PowerFitReport:
    gamma: float
    amplitude: float
    residual_relative: float


def fit_power_density(curve: EntropyCurve, gamma_bounds: tuple[float, float] = (-1.9, 8.0),
                      grid_points: int = 400,
                      margins: tuple[float, float] = (0.03, 40.0)) -> PowerFitReport:
    """Fit a pure power-law spectral density g(p^2) = A p^gamma, A >= 0.

    The density is discretized on a wide momentum grid (trapezoid weights in
    p^2) and the exponent minimizes the data-space residual; the amplitude is
    profiled out in closed form.  A short-distance curve S ~ (alpha/lam) log x
    comes out with gamma = alpha - 2.
    """
    from scipy.optimize import minimize_scalar

    y = curve.exponentials()
    p_lo = margins[0] / curve.x.max()
    p_hi = margins[1] / curve.x.min()
    p2 = np.logspace(np.log10(p_lo ** 2), np.log10(p_hi ** 2), grid_points)
    quad = np.gradient(p2)
    kernel = k0(np.outer(curve.x, np.sqrt(p2)))
    p_ref = math.sqrt(p_lo * p_hi)

    def predict(gamma: float) -> np.ndarray:
        profile = (np.sqrt(p2) / p_ref) ** gamma * quad
        return kernel @ profile

    def residual(gamma: float) -> float:
        b = predict(gamma)
        denom = float(b @ b)
        amp = max(float(b @ y) / denom, 0.0) if denom > 0 else 0.0
        return float(np.linalg.norm(y - amp * b))

    opt = minimize_scalar(residual, bounds=gamma_bounds, method="bounded",
                          options={"xatol": 1e-6})
    gamma = float(opt.x)
    b = predict(gamma)
    amp = max(float(b @ y) / float(b @ b), 0.0)
    rel = float(np.linalg.norm(y - amp * b)) / max(np.linalg.norm(y), np.finfo(float).tiny)
    return PowerFitReport(gamma=gamma, amplitude=amp * p_ref ** (-gamma),
                          residual_relative=rel)
