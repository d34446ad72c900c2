"""The reflection-positivity inequalities on the cross-ratio function of
two-interval conformal entropies.

The model dependence sits entirely in a pluggable positive function F of the
cross ratio, symmetric under x -> 1-x with F(0) = 1.  Absolute entropy
normalizations are cutoff dependent; only inequality slacks are asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .modular import _check_renyi_order, _check_tolerance, _check_weight

SYMMETRY_TOL = 1e-9     # validate: the largest |F(x) - F(1-x)| of a symmetric F
SYMMETRY_SAMPLES = 101  # validate: mirror points x, up to x = 1/2
FD_STEP = 1e-5          # derivative check: central-difference step over min(x, 1-x)


def twist_exponent(central_charge: float, n: int) -> float:
    """Twist exponent q = (c/6)(n - 1/n) of a central charge c > 0 and a
    Renyi index n >= 1; positive for n > 1."""
    c, n = _check_weight(central_charge, "central_charge"), _check_renyi_order(n)
    return c / 6.0 * (n - 1.0 / n)


@dataclass(frozen=True)
class CrossRatioFunction:
    """Positive function of the cross ratio on (0, 1), with a name for reports."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    domain: tuple = (0.0, 1.0)

    def __call__(self, x):
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def ones(cls) -> "CrossRatioFunction":
        return cls(evaluator=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                   name="ones")

    @classmethod
    def from_table(cls, x_values, f_values, name: str = "table") -> "CrossRatioFunction":
        """Monotone-cubic interpolation of tabulated (x, F) pairs."""
        from scipy.interpolate import PchipInterpolator

        x_values = np.asarray(x_values, dtype=float)
        f_values = np.asarray(f_values, dtype=float)
        if np.any(np.diff(x_values) <= 0):
            raise ValueError("table x values must be strictly increasing")
        if np.any(f_values <= 0):
            raise ValueError("table F values must be positive")
        interp = PchipInterpolator(x_values, f_values, extrapolate=False)

        def evaluator(x):
            out = interp(x)
            if np.any(np.isnan(out)):
                raise ValueError("evaluation outside the tabulated domain")
            return out

        return cls(evaluator=evaluator, name=name,
                   domain=(float(x_values[0]), float(x_values[-1])))

    def validate(self) -> dict:
        """Check the crossing symmetry F(x) = F(1-x) and the F(0+) -> 1 limit.

        Symmetry is tested on mirror pairs inside the domain, and reported
        untested (None) when the domain holds none, that is when it misses
        x = 1/2; the limit check runs only when the domain reaches small x.
        """
        start = max(self.domain[0], 1e-4, 1.0 - min(self.domain[1], 1.0 - 1e-4))
        report = {"symmetry_deviation": None, "symmetric": None}
        if start <= 0.5:
            xs = np.linspace(start, 0.5, SYMMETRY_SAMPLES)
            sym_dev = float(np.max(np.abs(self(xs) - self(1.0 - xs))))
            report = {"symmetry_deviation": sym_dev, "symmetric": sym_dev <= SYMMETRY_TOL}
        if self.domain[0] <= 1e-4:
            f0 = float(self(np.array([1e-4]))[0])
            report["limit_at_zero"] = f0
            report["limit_ok"] = abs(f0 - 1.0) <= 1e-2
        return report


def _ratio(func: CrossRatioFunction, q: float, x: np.ndarray) -> np.ndarray:
    return func(x) / (1.0 - x) ** q


@dataclass
class InequalityReport:
    name: str
    grid: np.ndarray
    slack: np.ndarray
    min_slack: float
    passed: bool
    fd_error: float = 0.0


def check_derivative_inequality(func: CrossRatioFunction, q: float, grid,
                                tol: float = 1e-10) -> InequalityReport:
    """Monotonicity inequality: d/dx [F(x)/(1-x)^q] >= 0 on the grid.

    Central differences with relative step, cross-checked by Richardson
    extrapolation at half step; the reported fd_error bounds the
    discretization uncertainty of the slack.
    """
    xs = np.asarray(grid, dtype=float)
    tol = _check_tolerance(tol, "tol")
    if np.any(xs <= 0) or np.any(xs >= 1):
        raise ValueError("grid must lie strictly inside (0, 1)")
    h = FD_STEP * np.minimum(xs, 1.0 - xs)
    d_h = (_ratio(func, q, xs + h) - _ratio(func, q, xs - h)) / (2.0 * h)
    d_h2 = (_ratio(func, q, xs + h / 2) - _ratio(func, q, xs - h / 2)) / h
    richardson = (4.0 * d_h2 - d_h) / 3.0
    fd_error = float(np.max(np.abs(richardson - d_h)))
    scale = max(1.0, float(np.max(np.abs(richardson))))
    min_slack = float(np.min(richardson))
    return InequalityReport(name="derivative", grid=xs, slack=richardson,
                            min_slack=min_slack,
                            passed=bool(min_slack >= -tol * scale), fd_error=fd_error)


def z_point(x: float, y: float) -> float:
    """Intermediate cross ratio 2 sqrt(xy) / (1 + sqrt(1-x) sqrt(1-y) + sqrt(xy)).

    Lies between x and y; the degenerate pair returns x exactly (the formula
    reduces to x analytically, so the shortcut removes pure roundoff).
    """
    if not (0 < x < 1 and 0 < y < 1):
        raise ValueError("x and y must lie in (0, 1)")
    return float(_z_points(x, y))


def _z_points(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z_point over arrays (or scalars) x and y, degenerate pairs included."""
    root = np.sqrt(x * y)
    z = 2.0 * root / (1.0 + np.sqrt(1.0 - x) * np.sqrt(1.0 - y) + root)
    return np.where(x == y, x, z)


def check_midpoint_inequality(func: CrossRatioFunction, q: float, pairs,
                              tol: float = 1e-10) -> InequalityReport:
    """Two-point inequality G(x) G(y) >= G(z)^2 with G(u) = F(u)/(1-u)^q.

    z is the intermediate cross ratio of the pair; the slack saturates as
    y -> x for smooth F.
    """
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    tol = _check_tolerance(tol, "tol")
    if np.any(pairs <= 0) or np.any(pairs >= 1):
        raise ValueError("pairs must lie strictly inside (0, 1)")
    zs = _z_points(pairs[:, 0], pairs[:, 1])
    g_x = _ratio(func, q, pairs[:, 0])
    g_y = _ratio(func, q, pairs[:, 1])
    g_z = _ratio(func, q, zs)
    slack = g_x * g_y - g_z ** 2
    scale = max(1.0, float(np.max(np.abs(g_x * g_y))))
    min_slack = float(np.min(slack))
    return InequalityReport(name="midpoint", grid=pairs, slack=slack,
                            min_slack=min_slack,
                            passed=bool(min_slack >= -tol * scale))
