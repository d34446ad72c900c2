"""The benchmark's tracer must still find every name it wraps in the package.

perfbench/tracer.py patches module attributes by name, so a rename in
src/ breaks traced benchmark runs; this fails on it without running the
benchmark.  The tracer file is read and executed in place, never edited.
"""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores():
    tracer_module = runpy.run_path(str(TRACER), run_name="perfbench_tracer")
    tracer = tracer_module["Tracer"]()
    try:
        tracer_module["install"](tracer)
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
