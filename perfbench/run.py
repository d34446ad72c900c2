"""rpentropy benchmark: one workload, end-to-end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, gram-large, search, analytic (see perfbench/README.md).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run at jobs = 1 and
the d-scaling probe.  Earlier stdout lines carry the environment
fingerprint and run details.  The package is imported from ./src, so the
benchmark runs on a plain source checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread per process, so jobs x threads <= nproc; set before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pin)

import speed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# d-scaling probe splits: d = 4, 8, 16, 64, 256
PROBE_SPLITS = ("2x2", "2x4", "4x4", "8x8", "16x16")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_package():
    """Import rpentropy from ./src and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rpentropy", "__init__.py")):
        raise SystemExit(f"error: no rpentropy sources under {SRC}")
    sys.path.insert(0, SRC)
    import rpentropy

    if not os.path.abspath(rpentropy.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: rpentropy imported from {rpentropy.__file__}, not {SRC}")
    return rpentropy


# ----------------------------------------------------------------- environment

def _openblas():
    """(version string, configured threads) of numpy's OpenBLAS, if reachable."""
    import ctypes
    import glob

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return None, None


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "rpentropy")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _git_commit():
    """HEAD of the checkout's own repository; None in a plain source tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(workload: str, seed: int, jobs: int) -> dict:
    import platform

    import scipy

    blas_config, blas_threads = _openblas()
    return {
        "workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": blas_config, "blas_threads": blas_threads,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------- rounds

def run_rounds(workload, seconds=None, count=None, jobs=None) -> list:
    """Run rounds until `count` are done, or while the next one should end
    within `seconds` (judged by the last round's length); at least one.

    Serial rounds take the CPUs in turn, pinned to one each, so that the
    median covers every core.  Each round gets a speed gauge of its CPUs,
    which scales its parts to the reference speed (speed.py).
    """
    cpus = sorted(os.sched_getaffinity(0))
    serial = (jobs or workload.jobs) == 1
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            begun = time.perf_counter()
            used = [cpus[len(rounds) % len(cpus)]] if serial else cpus
            workload.gauge = speed.Gauge(used)
            os.sched_setaffinity(0, set(used))
            rounds.append(workload.run_round(len(rounds), jobs))
            if count is not None:
                if len(rounds) >= count:
                    return rounds
            else:
                now = time.perf_counter()
                if now - start + (now - begun) > seconds:
                    return rounds
    finally:
        os.sched_setaffinity(0, cpus)
        workload.gauge = None


def part_summary(rounds) -> dict:
    """{part: (items, seconds)} of a typical round at the reference speed:
    medians over the rounds of each part's items and scaled seconds."""
    return {part: (statistics.median(r.parts[part][0] for r in rounds),
                   statistics.median(r.parts[part][1] * r.parts[part][2] for r in rounds))
            for part in rounds[0].parts}


def summary_wall(rounds) -> float:
    return sum(seconds for _, seconds in part_summary(rounds).values())


def measure_setup(workload, seed: int, tiny: bool, samples: int) -> tuple:
    """Median time from a fresh interpreter to ready: import, lazy imports
    and one warm-up call of the workload (pool start included for sweep).

    Returns (at the reference speed, unscaled).  As with rounds, the child
    of a serial workload is pinned to the CPUs in turn, and each sample is
    scaled by the reference kernel on its CPUs just before and after it.
    """
    scaled, raw = [], []
    cpus = sorted(os.sched_getaffinity(0))
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
            "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    try:
        for index in range(samples):
            used = [cpus[index % len(cpus)]] if workload.jobs == 1 else cpus
            gauge = speed.Gauge(used)
            os.sched_setaffinity(0, set(used))  # the child inherits it
            start = time.perf_counter()
            with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            if line.strip() != "ready" or code != 0:
                raise SystemExit(f"error: set-up of {workload.name} failed (exit {code})")
            raw.append(elapsed)
            scaled.append(elapsed * gauge.scale())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload, args) -> tuple[dict, list]:
    rounds = run_rounds(workload, seconds=args.seconds)
    summary = part_summary(rounds)
    metrics = {
        "wall_s": (sum(seconds for _, seconds in summary.values()), "s"),
        "items_per_s": (workload.rate(summary), "1/s"),
        # read before the set-up children run, so they do not count
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = 1 if args.tiny else SETUP_SAMPLES
    setup_s, setup_raw = measure_setup(workload, args.seed, args.tiny, samples)
    metrics["setup_s"] = (setup_s, "s")
    print(json.dumps({"unscaled": {"wall_s": statistics.median(r.wall for r in rounds),
                                   "setup_s": setup_raw}}))
    return metrics, rounds


# -------------------------------------------------------------------- tracing

def d_scaling_probe(seed: int, tiny: bool) -> tuple[dict, list]:
    """One reflected_density pair per split, each in its own process."""
    metrics, table = {}, []
    for split in PROBE_SPLITS:
        dim_a, dim_b = (int(v) for v in split.split("x"))
        key = f"reflected.pair_s.d{dim_a * dim_b}"
        if tiny and dim_a * dim_b > 64:
            metrics[key] = (0.0, "s")
            continue
        out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "probe.py"),
                              "--split", split, "--seed", str(seed)],
                             cwd=ROOT, env=child_env(), capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True)
        row = json.loads(out.stdout.strip().splitlines()[-1])
        table.append(row)
        metrics[key] = (row["pair_s"], "s")
        if split == PROBE_SPLITS[-1]:
            metrics["reflected.pair_rss_mb.d256"] = (row["rss_mb"], "MB")
    metrics.setdefault("reflected.pair_rss_mb.d256", (0.0, "MB"))
    return metrics, table


def traced(workload, args) -> tuple[dict, list]:
    """Layer numbers from a traced run at jobs = 1, against untraced rounds."""
    from tracer import Tracer, install, layer_metrics

    base = run_rounds(workload, seconds=args.seconds, jobs=1)
    tracer = install(Tracer())
    workload.pause = tracer.pause
    try:
        spans = run_rounds(workload, count=len(base), jobs=1)
    finally:
        tracer.restore()
        del workload.pause
    traced_wall = sum(r.wall for r in spans)
    metrics = layer_metrics(tracer, len(spans))
    metrics["trace.coverage"] = (tracer.covered_s() / traced_wall, "ratio")
    metrics["trace.overhead_s"] = ((traced_wall - sum(r.wall for r in base)) / len(base), "s")

    observed = [r.observed for r in base + spans]
    ratios = [o["witness_reverify_ratio"] for o in observed if "witness_reverify_ratio" in o]
    metrics["positivity.refine_steps"] = (
        statistics.fmean(o.get("refine_steps", 0) for o in observed), "count")
    metrics["positivity.witness_reverify_ratio"] = (min(ratios) if ratios else 0.0, "ratio")

    serial_wall = efficiency = 0.0
    parallel = []
    if workload.jobs > 1:
        parallel = run_rounds(workload, count=len(base))
        serial_wall = summary_wall(base)
        efficiency = serial_wall / (workload.jobs * summary_wall(parallel))
    metrics["positivity.serial_wall_s"] = (serial_wall, "s")
    metrics["positivity.pool_efficiency"] = (efficiency, "ratio")

    rates = {part: items / seconds for part, (items, seconds) in part_summary(base).items()}
    metrics["fermion.sets_per_s"] = (rates.get("fermion", 0.0), "1/s")
    metrics["spectral.fits_per_s"] = (rates.get("kl", 0.0), "1/s")
    metrics["cft.points_per_s"] = (rates.get("cft", 0.0), "1/s")

    probe, table = d_scaling_probe(args.seed, args.tiny)
    metrics.update(probe)
    print(json.dumps({"probe": table}))
    return metrics, base + spans + parallel


# ------------------------------------------------------------------------ main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="rpentropy benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, one set-up sample, no d=256 probe (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: import, warm up, print 'ready' and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    out_dir = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        if args.setup_only:
            WORKLOADS[args.workload].warm_up(out_dir)
            print("ready", flush=True)
            return 0
        workload = WORKLOADS[args.workload](args.seed, out_dir, args.tiny)
        workload.warm_up(out_dir)
        metrics, rounds = (traced if args.trace else end_to_end)(workload, args)
        # after the measurement: the git child must not count in peak_rss_mb
        print(json.dumps({"fingerprint": fingerprint(args.workload, args.seed,
                                                     workload.jobs)}))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    walls = [r.wall for r in rounds]
    scales = [scale for r in rounds for _, _, scale in r.parts.values()]
    print(json.dumps({"rounds": len(rounds), "round_wall_s": {
        "min": min(walls), "median": statistics.median(walls), "max": max(walls)},
        "speed_scale": {"min": min(scales), "median": statistics.median(scales),
                        "max": max(scales)}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
