"""Guards on the package's surface: what the benchmark tracer patches, that
every definition has a caller outside the tests, and how many values a
caller can set."""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drsbound"

#: Definitions that no package or benchmark code calls yet, each with the
#: reason it stays.
ALLOWED_UNCALLED = {
    "aim.kratzer_radial_problem": "validate's AIM leg is to solve it per draw (ROADMAP item 13)",
    "aim.angular_problem": "validate's AIM leg is to solve it per draw (ROADMAP item 13)",
    "aim.aim_exact_kratzer": "the closed form that radial AIM leg is to check (ROADMAP item 13)",
    "aim.aim_exact_angular": "the closed form that angular AIM leg is to check (ROADMAP item 13)",
    "spectrum.spin_pseudospin_map": (
        "the substitution the pseudospin radial check reads (ROADMAP item 12); the property"
        " test of `_condition`'s signs goes through it (ROADMAP item 6)"
    ),
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


def _uses(stmt):
    """Names a statement uses, except a definition's own name inside it: a
    recursive call is no caller, nor is a method naming itself."""
    if isinstance(stmt, ast.ClassDef):
        parts = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
        used = set().union(*map(_names_used, parts), *map(_uses, stmt.body))
    else:
        used = _names_used(stmt)
    return used - {getattr(stmt, "name", None)}


def _definitions(stmt):
    """What a top-level statement defines: a function, or a class with its
    methods and properties; dunder methods are called by the language."""
    if isinstance(stmt, ast.FunctionDef):
        return [stmt.name]
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [stmt.name] + [
        f"{stmt.name}.{sub.name}"
        for sub in stmt.body
        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
    ]


def test_every_definition_has_a_caller():
    # a definition counts as called when a statement other than its own
    # definition names it, in the package's modules or in the benchmark's, or
    # when the tracer patches it.  The package's re-exports and `__all__` do
    # not count: a name only tests reach is no surface.  The uncalled rest
    # must be exactly the allowlist, so an entry that gains a caller leaves it
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    used = set()
    definitions = []
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if path.parent == PACKAGE:
                definitions.extend((path.stem, name) for name in _definitions(stmt))
            used |= _uses(stmt)
    traced = {(module.rsplit(".", 1)[-1], attr) for module, attr in _traced_pairs()}
    uncalled = {
        f"{module}.{name}"
        for module, name in definitions
        if name.rsplit(".", 1)[-1] not in used and (module, name) not in traced
    }
    assert uncalled == set(ALLOWED_UNCALLED)


#: Settable values of `src/drsbound`, counted by `_settable_values`.  A new
#: option is declared here, as an uncalled definition is in ALLOWED_UNCALLED.
SETTABLE_VALUES = 72


def _settable_values(tree):
    """Parameters with a default, positional or keyword-only, in every def and
    lambda, plus the annotated fields of every dataclass."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            if "dataclass" in set().union(*map(_names_used, node.decorator_list)):
                count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_settable_values_pinned():
    # every default and dataclass field is a value a caller can set; a new
    # one, or one that goes, changes SETTABLE_VALUES with the change that
    # adds or removes it
    paths = sorted(PACKAGE.glob("*.py"))
    assert sum(_settable_values(ast.parse(path.read_text())) for path in paths) == SETTABLE_VALUES
