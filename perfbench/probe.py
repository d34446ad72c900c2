"""d-scaling probe: one reflected_density pair at one split, in its own process.

Usage: python3 perfbench/probe.py --split 8x8 --seed 1

Prints one JSON line: the split, d, the pair's wall time (median over
repeats for fast splits), the computed complex multiply-adds and bytes of
the twist-operator contraction, and this process's peak RSS.  Run from the
repository root with src/ importable (perfbench/run.py sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

import numpy as np

from workloads import haar

# repeat fast pairs until this much time has been spent, at most MAX_REPEATS
REPEAT_BUDGET_S = 0.3
MAX_REPEATS = 50


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--split", required=True, help="d_A x d_B, e.g. 8x8")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from rpentropy.modular import PurifiedState
    from rpentropy.reflected import SubsystemSplit, reflected_density

    dim_a, dim_b = (int(v) for v in args.split.lower().split("x"))
    d = dim_a * dim_b
    rng = np.random.default_rng(args.seed)
    lam = rng.dirichlet(np.ones(d))
    psi = PurifiedState(dim=d, schmidt_values=np.sort(lam)[::-1], eigenbasis=haar(d, rng))
    split_i, split_j = (SubsystemSplit(dim_a=dim_a, dim_b=dim_b, coeffs=haar(d, rng))
                        for _ in range(2))

    times = []
    spent = time.perf_counter()
    while not times or (len(times) < MAX_REPEATS
                        and time.perf_counter() - spent < REPEAT_BUDGET_S):
        start = time.perf_counter()
        rd = reflected_density(psi, split_i, split_j)
        times.append(time.perf_counter() - start)
    if abs(rd.eigenvalues.sum() - 1.0) > 1e-8:
        raise SystemExit(f"reflected density at {args.split} lost its unit trace")
    twist_bytes = d * d * dim_a * dim_a * 16
    print(json.dumps({
        "split": args.split, "d": d, "repeats": len(times),
        "pair_s": statistics.median(times),
        "flops": d * d * dim_a ** 4,
        "bytes": 2 * twist_bytes + rd.matrix.nbytes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
