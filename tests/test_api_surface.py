"""Guards on the package's surface: what the benchmark tracer patches, that
every definition has a caller outside the tests, that every default is one a
caller omits, and how many values a caller can set."""

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
    """Names and imported names that appear in an AST node, and the attributes
    it reads, each as "." + its name."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            used.add("." + sub.attr)
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
    """Names a statement uses, except a definition's own name inside it, bare
    or read as an attribute: a recursive call is no caller, nor is a method
    naming itself."""
    if isinstance(stmt, ast.ClassDef):
        parts = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
        used = set().union(*map(_names_used, parts), *map(_uses, stmt.body))
    else:
        used = _names_used(stmt)
    name = getattr(stmt, "name", None)
    return used - {name, f".{name}"}


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


def _scanned():
    """(path, AST) of the package's modules but `__init__.py`, then the benchmark's."""
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_definition_has_a_caller():
    # a definition counts as called when a statement other than its own
    # definition names it, in the package's modules or in the benchmark's, or
    # when the tracer patches it; a method or property only where an
    # attribute of its name is read, since a bare name is a local variable.
    # The package's re-exports and `__all__` do not count: a name only tests
    # reach is no surface.  The uncalled rest must be exactly the allowlist,
    # so an entry that gains a caller leaves it
    used = set()
    definitions = []
    for path, tree in _scanned():
        for stmt in tree.body:
            if path.parent == PACKAGE:
                definitions.extend((path.stem, name) for name in _definitions(stmt))
            used |= _uses(stmt)
    traced = {(module.rsplit(".", 1)[-1], attr) for module, attr in _traced_pairs()}
    def called(name):
        owner, _, attr = name.rpartition(".")
        return f".{attr}" in used or (not owner and attr in used)

    uncalled = {
        f"{module}.{name}"
        for module, name in definitions
        if not called(name) and (module, name) not in traced
    }
    assert uncalled == set(ALLOWED_UNCALLED)


def _is_dataclass(stmt):
    return isinstance(stmt, ast.ClassDef) and bool(
        {"dataclass", ".dataclass"} & set().union(*map(_names_used, stmt.decorator_list))
    )


def _signature(fn, bound):
    """(parameters a call fills by position, parameters with a default) of a
    def whose first `bound` parameters are bound before the call's own."""
    args = fn.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults) :]
    named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return [arg.arg for arg in positional[bound:]], [arg.arg for arg in named]


def _dataclass_signature(cls):
    """The same of a dataclass's generated `__init__`: its annotated fields,
    in order, and those with a default."""
    fields = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
    return [f.target.id for f in fields], [f.target.id for f in fields if f.value is not None]


def _functions(stmt):
    """(name, name a call of it uses, signature) of a top-level function, of
    each method of a class and of a dataclass's generated `__init__`: a
    method's first parameter is bound, and a call of the class calls its
    `__init__`."""
    if isinstance(stmt, ast.FunctionDef):
        return [(stmt.name, stmt.name, _signature(stmt, 0))]
    if not isinstance(stmt, ast.ClassDef):
        return []
    methods = [
        (
            f"{stmt.name}.{sub.name}",
            stmt.name if sub.name == "__init__" else sub.name,
            _signature(sub, 1),
        )
        for sub in stmt.body
        if isinstance(sub, ast.FunctionDef)
    ]
    if _is_dataclass(stmt):
        methods.append((f"{stmt.name}.__init__", stmt.name, _dataclass_signature(stmt)))
    return methods


def _omits(call, positional, parameter):
    """Whether a call leaves the parameter to its default, given the
    parameters it fills by position; a starred call omits nothing."""
    keywords = [keyword.arg for keyword in call.keywords]
    if None in keywords or any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    return parameter not in positional[: len(call.args)] + keywords


def test_every_default_is_relied_on():
    # a default stays only where a call omits it, a dataclass field's as a
    # parameter's.  Calls are those of the files
    # test_every_definition_has_a_caller reads, matched to a definition by
    # the name they call, function or attribute; a value every caller
    # passes is the callers' to state.  The allowlisted uncalled definitions
    # have no call to omit anything
    calls, functions = {}, []
    for path, tree in _scanned():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
        if path.parent == PACKAGE:
            for stmt in tree.body:
                functions.extend((path.stem, *entry) for entry in _functions(stmt))
    unomitted = [
        f"{module}.{name}({parameter})"
        for module, name, called_as, (positional, defaulted) in functions
        if f"{module}.{name}" not in ALLOWED_UNCALLED
        for parameter in defaulted
        if not any(_omits(call, positional, parameter) for call in calls.get(called_as, []))
    ]
    assert unomitted == []


#: Settable values of `src/drsbound`, counted by `_settable_values`.  A new
#: option is declared here, as an uncalled definition is in ALLOWED_UNCALLED.
SETTABLE_VALUES = 61


def _settable_values(tree):
    """Parameters with a default, positional or keyword-only, in every def and
    lambda, plus the annotated fields of every dataclass."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
        elif _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_settable_values_pinned():
    # every default and dataclass field is a value a caller can set; a new
    # one, or one that goes, changes SETTABLE_VALUES with the change that
    # adds or removes it
    paths = sorted(PACKAGE.glob("*.py"))
    assert sum(_settable_values(ast.parse(path.read_text())) for path in paths) == SETTABLE_VALUES
