"""The benchmark in perfbench/ must still find every package name it uses.

perfbench/tracer.py patches module attributes by name, and the workloads,
the d-scaling probe and the reference script import and call package
names, so a rename or a deleted parameter in src/ breaks benchmark runs;
these tests fail on it without running the benchmark.  The perfbench files
are read (the tracer also executed) in place, never edited.
"""

import ast
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"


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


def _package_imports(tree) -> list:
    """(line, local name, dotted package path) of every rpentropy import."""
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [(node.lineno, name.asname or name.name.split(".")[0], name.name)
                        for name in node.names if name.name.split(".")[0] == "rpentropy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rpentropy"):
            imports += [(node.lineno, name.asname or name.name, f"{node.module}.{name.name}")
                        for name in node.names]
    return imports


def _dotted(node):
    """'a.b.c' of a Name or an Attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _resolve(path: str):
    """The object at a dotted path: the longest importable module prefix,
    then attributes.  Raises ImportError or AttributeError."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def _uses(path: Path) -> list:
    """(line, package path, call node or None) of every package name the
    file imports, reads through an imported name, or calls."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = _package_imports(tree)
    aliases = {local: target for _, local, target in imports}
    uses = [(line, target, None) for line, _, target in imports]
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(getattr(node, "ctx", None), ast.Load):
            dotted = _dotted(node)
            root = dotted and dotted.split(".")[0]
            if root in aliases:
                uses.append((node.lineno, aliases[root] + dotted[len(root):], calls.get(id(node))))
        elif isinstance(node, ast.Name) and node.id in aliases and id(node) in calls:
            uses.append((node.lineno, aliases[node.id], calls[id(node)]))
    return uses


BENCH_FILES = sorted(BENCH.glob("*.py"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_perfbench_package_names_resolve(path):
    problems = []
    for line, target, call in _uses(path):
        try:
            obj = _resolve(target)
        except (ImportError, AttributeError) as exc:
            problems.append(f"{path.name}:{line}: {target}: {exc}")
            continue
        if call is None or not callable(obj):
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        try:
            signature = inspect.signature(obj)
        except (TypeError, ValueError):
            continue
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            problems.append(f"{path.name}:{line}: {target}{signature}: {exc}")
    assert not problems, "\n".join(problems)


def test_perfbench_names_are_found():
    # the scan itself: names the benchmark is known to reach through each
    # import style, and a keyword call that the signature check binds
    found = {}
    for path in BENCH_FILES:
        for _, target, call in _uses(path):
            found.setdefault((path.name, target), []).append(call)
    for expected in [("reference.py", "rpentropy.positivity._draw_instance"),
                     ("reference.py", "rpentropy.positivity.theorem_sweep_parallel"),
                     ("probe.py", "rpentropy.reflected.reflected_density"),
                     ("workloads.py", "rpentropy.positivity.check_psd"),
                     ("workloads.py", "rpentropy.reflected.SubsystemSplit.axis"),
                     ("run.py", "rpentropy.__file__")]:
        assert expected in found
    keywords = {k.arg for call in found["workloads.py", "rpentropy.positivity.verify_witness"]
                if call is not None for k in call.keywords}
    assert {"target", "tolerance", "lam", "n"} <= keywords
