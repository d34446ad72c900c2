"""Self-test of the benchmark harness at tiny sizes.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py with --tiny,
untraced and traced, and checks that the last stdout line is the result
object, that the outputs checked out, and that every end-to-end metric
(untraced) and every per-layer metric (traced) is printed with its unit.
It also checks that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and perfbench/.  Takes about a minute;
exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", "5", "--seconds", "1",
                           "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(out: subprocess.CompletedProcess, expected: list) -> list:
    """Problems with one run's output; empty when it is as the contract says."""
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr.strip()[-500:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"outputs did not check out: {result}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names differ: missing "
                        f"{sorted({m['name'] for m in expected} - set(metrics))}, extra "
                        f"{sorted(set(metrics) - {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
    return problems


def check_bare_directory() -> list:
    """Without the package sources the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, "sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))
    lines = out.stdout.strip().splitlines()
    if out.returncode == 0 or (lines and lines[-1].startswith("{\"correct\"")):
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems = check_result(run(ROOT, workload, trace), expected)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    problems = check_bare_directory()
    print(f"{'FAIL' if problems else 'ok  '} fails without sources")
    for problem in problems:
        print(f"     {problem}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
