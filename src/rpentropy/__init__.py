"""Numerical toolkit for reflection-positivity entropy inequalities.

Finite-dimensional modular operators, reflected Renyi entropies and their
Gram-matrix positivity checks, exact free-fermion entropy/correlator
identities, spectral (Bessel-kernel) representations of single-interval
entropies, and two-interval conformal inequality checks, plus a randomized
counterexample search and a batch CLI.

The public names below are served lazily (PEP 562): `import rpentropy`
loads no submodule, and each name's module is imported on its first use.
The theorem checks, the search and the CLI need only numpy; scipy loads
when a spectral name is first used (the kl subcommand uses them) or a cft
table function is built.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in export order
_EXPORTS = {
    "cft": ("CrossRatioFunction", "TwoIntervalConfig", "check_derivative_inequality",
            "check_midpoint_inequality", "cross_ratio", "renyi_two_interval", "z_point"),
    "fermion": ("ChargeConfiguration", "IntervalSet", "correlator_cauchy", "correlator_wick",
                "divisibility_witness", "entropy", "gaussian_vertex_correlator",
                "log_correlator_cauchy", "renyi"),
    "modular": ("DensityMatrix", "InvalidStateError", "ModularData", "PurifiedState",
                "check_tomita_relation", "doubled_overlap", "half_sided_overlap",
                "modular_operators", "purify", "reflect_operator"),
    "positivity": ("DivisibilityRecord", "GramRecord", "SearchConfig", "SearchReport",
                   "check_psd", "counterexample_search", "divisibility_matrix",
                   "divisibility_over_orderings", "entropy_table", "gram_matrix",
                   "schur_power", "theorem_sweep", "theorem_sweep_parallel",
                   "three_set_inequality", "verify_witness"),
    "reflected": ("ReflectedDensity", "SubsystemSplit", "TwistOperatorSet",
                  "reflected_density", "renyi_entropy", "twist_operators", "von_neumann"),
    "spectral": ("EntropyCurve", "SpectralDensity", "decay_rate", "derivative_checks",
                 "fit_power_density", "fit_spectral", "forward"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
