"""Guards on the package's surface: what the benchmark tracer patches, and
that every top-level definition has a caller outside the tests."""

import ast
import importlib
import importlib.util
import pathlib

import drsbound

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drsbound"

#: Top-level definitions that no package or benchmark code calls yet, each
#: with the reason it stays.
ALLOWED_UNCALLED = {
    "aim.kratzer_radial_problem": "validate's AIM leg is to solve it per draw (ROADMAP item 13)",
    "aim.angular_problem": "validate's AIM leg is to solve it per draw (ROADMAP item 13)",
    "aim.aim_exact_kratzer": "the closed form that radial AIM leg is to check (ROADMAP item 13)",
    "aim.aim_exact_angular": "the closed form that angular AIM leg is to check (ROADMAP item 13)",
}


def _tracer():
    """perfbench/tracer.py, loaded by path; defining its tables patches nothing."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_pairs():
    tracer = _tracer()
    pairs = [(module, attr) for module, attr, _size in tracer.SPANS.values()]
    for targets in tracer.COUNTERS.values():
        pairs.extend(targets)
    return pairs


def _names_used(node):
    """Names, attributes and imported names that appear in an AST node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_tracer_names_resolve():
    # a deleted or renamed name would crash the benchmark's traced pass
    pairs = _traced_pairs()
    missing = [
        (module, attr) for module, attr in pairs if not hasattr(importlib.import_module(module), attr)
    ]
    assert pairs and missing == []


def test_every_definition_has_a_caller():
    # a definition counts as called when a statement other than its own
    # definition names it, in the package or in the benchmark's modules, when
    # the tracer patches it, or when the package exports it; the uncalled
    # rest must be exactly the allowlist, so an entry that gains a caller
    # leaves it
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    definitions = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if path.parent == PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, own))
            used |= _names_used(stmt) - {own}
    traced = {(module.rsplit(".", 1)[-1], attr) for module, attr in _traced_pairs()}
    uncalled = {
        f"{module}.{name}"
        for module, name in definitions
        if name not in used and (module, name) not in traced and name not in drsbound.__all__
    }
    assert uncalled == set(ALLOWED_UNCALLED)
