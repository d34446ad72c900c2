"""Numerical toolkit for reflection-positivity entropy inequalities.

Finite-dimensional modular operators, reflected Renyi entropies and their
Gram-matrix positivity checks, exact free-fermion entropy/correlator
identities, spectral (Bessel-kernel) representations of single-interval
entropies, and two-interval conformal inequality checks, plus a randomized
counterexample search and a batch CLI.
"""

from .cft import (CrossRatioFunction, TwoIntervalConfig, check_derivative_inequality,
                  check_midpoint_inequality, cross_ratio, renyi_two_interval, z_point)
from .fermion import (ChargeConfiguration, IntervalSet, correlator_cauchy,
                      correlator_wick, divisibility_witness, entropy,
                      gaussian_vertex_correlator, log_correlator_cauchy, renyi)
from .modular import (DensityMatrix, InvalidStateError, ModularData, PurifiedState,
                      check_tomita_relation, doubled_overlap, half_sided_overlap,
                      modular_operators, purify, reflect_operator)
from .positivity import (DivisibilityRecord, GramRecord, SearchConfig, SearchReport,
                         check_psd, counterexample_search, divisibility_matrix,
                         divisibility_over_orderings, entropy_table, gram_matrix,
                         schur_power, theorem_sweep, theorem_sweep_parallel,
                         three_set_inequality, verify_witness)
from .reflected import (ReflectedDensity, SubsystemSplit, TwistOperatorSet,
                        brute_force_reflected, marginals, mutual_information,
                        reflected_density, renyi_entropy, twist_operators,
                        von_neumann)
from .spectral import (EntropyCurve, SpectralDensity, decay_rate, derivative_checks,
                       fit_power_density, fit_spectral, fitted_power_exponent, forward)

__version__ = "0.1.0"
