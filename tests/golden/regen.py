"""Golden reports: the fixed-seed CLI runs whose `report` sections must not
change unless a change means them to.

Each case runs in-process through `cli.main`, at `--jobs 1` where the
subcommand takes it, into a fresh directory.  Its golden file holds the
case's argv, the `report` section of the one report it writes, in the
report's order every fixture it writes and, when the report names a CSV
table, that table's lines.  `fingerprint.json` holds the numpy, scipy and
BLAS build, and the CPU they ran on, under which the files were recorded.
The tests also run the `POOLED` cases at `--jobs 2` against the same files.

Rewrite every file (after a change that moves report bytes on purpose;
list each changed field in CHANGES.md):

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import shlex
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

CASES = {
    "sweep-seed42": "gram-sweep --seed 42",
    "sweep-seed7": "gram-sweep --seed 7",
    "sweep-mixed-seed11": "gram-sweep --dims 2x2,2x3 --subsystems 2,3 --seed 11",
    "sweep-8x8-seed64": "gram-sweep --dims 8x8 --subsystems 3 --trials 6 --n 2,3,4,5 --seed 64",
    "entropy-seed2024": "search --trials 3000 --seed 2024",
    "detb-seed7": "search --target schur_s_fraction --trials 200 --seed 7 --refine 20000",
    "detb-seed7-500": "search --target schur_s_fraction --trials 500 --seed 7 --refine 20000",
    "integer-n3": "search --target integer_n --n 3",
    "entropy-8x8": "search --dims 8x8,8x8,8x8 --trials 12",
    "fermion": "fermion",
    "kl": "kl",
    "cft": "cft",
}

# cases whose plans are several blocks, so that at --jobs 2 the pool's worker runs some
POOLED = ("sweep-seed42", "entropy-seed2024")

# the structural comparison's float bound: |a - b| <= max(REL * max(|a|, |b|), ABS)
REL, ABS = 1e-6, 1e-12


def fingerprint() -> dict:
    """The build and CPU a golden's bytes depend on.  A numpy that cannot
    name its BLAS (`show_config` takes no `mode` before numpy 1.26) gives
    "blas": None, which `same_build` never takes for a match."""
    import numpy as np
    import scipy

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        build = {"blas": [blas.get("name"), blas.get("version"), blas.get("openblas configuration")],
                 "simd": config["SIMD Extensions"].get("found")}
    except (TypeError, KeyError, AttributeError):
        build = {"blas": None, "simd": None}
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "machine": platform.machine(), "numpy": np.__version__, "scipy": scipy.__version__,
            **build}


def same_build() -> bool:
    """Whether this is the build the goldens were recorded under, so that
    reports must equal them byte for byte."""
    current = fingerprint()
    return current["blas"] is not None and (HERE / "fingerprint.json").read_text() == encode(current)


def run_case(name: str, out: Path, jobs: int = 1) -> dict:
    """Run case `name` into the empty directory `out`: {argv, report,
    fixtures}, and csv, the lines of the CSV table the report names."""
    from rpentropy.cli import OPTIONS, main

    argv = shlex.split(CASES[name])
    if any(key == "jobs" for key, *_ in OPTIONS[argv[0]]):
        argv += ["--jobs", str(jobs)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name}: exit {code}")
    (path,) = out.glob("*.json")
    report = json.loads(path.read_text())["report"]
    fixtures = [json.loads((out / "fixtures" / fixture).read_text())
                for fixture in report["results"].get("fixtures", [])]
    case = {"argv": argv, "report": report, "fixtures": fixtures}
    if "csv" in report["results"]:  # CRLF line ends, as write_csv writes them
        case["csv"] = (out / report["results"]["csv"]).read_bytes().decode().split("\r\n")
    return case


def encode(data) -> str:
    """The text a golden file holds: the report's own encoding (sorted keys,
    indent 2).  Every float round-trips through JSON, so equal texts are
    equal report bytes."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def differences(got, want, path: str = "") -> list:
    """Where got and want differ structurally: keys, list lengths, types,
    ints, strings and bools exactly, floats beyond REL and ABS.  The names
    of fixture files are content hashes, so only their count is compared;
    a CSV table's numeric cells are compared as floats."""
    if type(got) is not type(want):
        return [f"{path}: {type(want).__name__} -> {type(got).__name__}"]
    if isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(want.keys() ^ got.keys())} differ"]
        if not path and "csv" in got:
            got, want = ({**d, "csv": [[_cell(cell) for cell in line.split(",")]
                                       for line in d["csv"]]} for d in (got, want))
        if path.endswith("/results") and "fixtures" in got:
            got, want = ({**d, "fixtures": len(d["fixtures"])} for d in (got, want))
        return [diff for key in want for diff in differences(got[key], want[key], f"{path}/{key}")]
    if isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(want)} -> {len(got)}"]
        return [diff for k, (g, w) in enumerate(zip(got, want))
                for diff in differences(g, w, f"{path}/{k}")]
    if isinstance(got, float):
        if not math.isclose(got, want, rel_tol=REL, abs_tol=ABS):
            return [f"{path}: {want!r} -> {got!r}"]
        return []
    return [] if got == want else [f"{path}: {want!r} -> {got!r}"]


def _cell(text: str):
    """A CSV cell: its float, or the text when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def main() -> None:
    for name in CASES:
        with tempfile.TemporaryDirectory() as out:
            (HERE / f"{name}.json").write_text(encode(run_case(name, Path(out))))
    (HERE / "fingerprint.json").write_text(encode(fingerprint()))
    print(f"wrote {len(CASES)} golden reports to {HERE}", file=sys.stderr)


if __name__ == "__main__":
    main()
