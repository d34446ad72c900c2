"""Re-measure the ROADMAP's reference numbers on this machine.

Usage, from the repository root (takes about two minutes):

    python3 perfbench/reference.py

Prints one JSON object with:
  import_s           fresh `import rpentropy` (median of 5 interpreters)
  entropy_ms_per_trial   search --target entropy_n1, 3000 trials, seed 2024
  gram_16x4_s        one 3-subsystem Gram record at split 16x4 (d = 64), n = 2
  criterion1_s       the acceptance criterion-1 sweep (10^4 instances), jobs = 2
BLAS is pinned to one thread per process, as in perfbench/run.py.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

import run  # pins BLAS to one thread per process
from workloads import SWEEP_POOLS


def import_s() -> float:
    env = run.child_env()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rpentropy"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def entropy_ms_per_trial() -> float:
    from rpentropy.positivity import SearchConfig, counterexample_search

    cfg = SearchConfig(dims=[(2, 2)] * 3, trials=3000, master_seed=2024, target="entropy_n1")
    start = time.perf_counter()
    counterexample_search(cfg)
    return (time.perf_counter() - start) / cfg.trials * 1e3


def gram_16x4_s() -> float:
    from rpentropy.positivity import SearchConfig, _draw_instance, gram_matrix

    cfg = SearchConfig(dims=[(16, 4)] * 3, trials=1, master_seed=1, target="integer_n", n=2)
    psi, splits = _draw_instance(cfg, 0)
    start = time.perf_counter()
    gram_matrix(psi, splits, n=2)
    return time.perf_counter() - start


def criterion1_s() -> float:
    """The plan of tests/test_acceptance.py::test_criterion_1_theorem_sweep."""
    from rpentropy.positivity import theorem_sweep_parallel

    rng = np.random.default_rng(1234)
    plan = []
    for pool in SWEEP_POOLS.values():
        for i in range(2000):
            plan.append([pool[int(rng.integers(len(pool)))] for _ in range(2 + i % 3)])
    start = time.perf_counter()
    theorem_sweep_parallel(plan, [2, 3, 4, 5], master_seed=20260809, tol=1e-10, jobs=2)
    return time.perf_counter() - start


if __name__ == "__main__":
    run.import_package()
    print(json.dumps({"import_s": import_s(), "entropy_ms_per_trial": entropy_ms_per_trial(),
                      "gram_16x4_s": gram_16x4_s(), "criterion1_s": criterion1_s()}))
