"""The package namespace is lazy, and the theorem and search paths stay scipy-free.

`rpentropy/__init__.py` serves its public names through a module-level
`__getattr__`, so `import rpentropy` loads no submodule.  The integer-index
checks need only numpy; scipy is for the spectral fits and cft tables.
Each scipy check runs in a fresh interpreter, because this test process
has scipy loaded already.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rpentropy

# the public names and their modules
EXPORTS = {
    "cft": ["CrossRatioFunction", "TwoIntervalConfig", "check_derivative_inequality",
            "check_midpoint_inequality", "cross_ratio", "renyi_two_interval", "z_point"],
    "fermion": ["ChargeConfiguration", "IntervalSet", "correlator_cauchy", "correlator_wick",
                "divisibility_witness", "entropy", "gaussian_vertex_correlator",
                "log_correlator_cauchy", "renyi"],
    "modular": ["DensityMatrix", "InvalidStateError", "ModularData", "PurifiedState",
                "check_tomita_relation", "doubled_overlap", "half_sided_overlap",
                "modular_operators", "purify", "reflect_operator"],
    "positivity": ["DivisibilityRecord", "GramRecord", "SearchConfig", "SearchReport",
                   "check_psd", "counterexample_search", "divisibility_matrix",
                   "divisibility_over_orderings", "entropy_table", "gram_matrix",
                   "schur_power", "theorem_sweep", "theorem_sweep_parallel",
                   "three_set_inequality", "verify_witness"],
    "reflected": ["ReflectedDensity", "SubsystemSplit", "TwistOperatorSet",
                  "reflected_density", "renyi_entropy", "twist_operators", "von_neumann"],
    "spectral": ["EntropyCurve", "SpectralDensity", "decay_rate", "derivative_checks",
                 "fit_power_density", "fit_spectral", "forward"],
}

SCIPY_FREE = {
    "import": "import rpentropy",
    "import-cli": "import rpentropy.cli",
    "quick-start-names": "from rpentropy import (DensityMatrix, SubsystemSplit, purify, "
                         "gram_matrix, check_psd, counterexample_search)",
    "gram-sweep": "from rpentropy.cli import main\n"
                  "assert main(['gram-sweep', '--trials', '4', '--dims', '2x2', "
                  "'--subsystems', '2,3', '--n', '2,3', '--out', OUT]) == 0",
    "search": "from rpentropy.cli import main\n"
              "assert main(['search', '--trials', '20', '--seed', '1', '--out', OUT]) == 0",
}


@pytest.mark.parametrize("code", SCIPY_FREE.values(), ids=SCIPY_FREE.keys())
def test_scipy_stays_unloaded(code, tmp_path):
    script = (f"import sys\nOUT = {str(tmp_path)!r}\n{code}\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    # the child imports the package this process imported
    src = str(Path(rpentropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_export_list_unchanged():
    assert rpentropy.__all__ == [name for names in EXPORTS.values() for name in names]


@pytest.mark.parametrize("module", EXPORTS)
def test_names_are_the_module_objects(module):
    owner = importlib.import_module(f"rpentropy.{module}")
    for name in EXPORTS[module]:
        assert getattr(rpentropy, name) is getattr(owner, name)


def test_dir_lists_every_export():
    listed = dir(rpentropy)
    assert set(rpentropy.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        rpentropy.no_such_name
    assert not hasattr(rpentropy, "TwistOperators")
