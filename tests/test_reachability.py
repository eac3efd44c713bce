"""Every top-level function and class of the package is reached from what
runs it, every option of a package function is set by some caller, and every
function the benchmark's tracer wraps exists.

Reach is transitive and counts only code: the identifiers that a piece of
code reads (``Name`` ids and ``Attribute`` names of its AST), never a
docstring, a comment or an import statement.  The roots are the
module-level code of each package module (in ``cli.py``: ``RUNNERS`` and the
``main`` entry point), the acceptance suite, and the names in the tracer's
``TARGETS``; a definition that a reached definition reads is reached in
turn, a class with all of its methods.  ``__init__.py`` is not a root: a
re-export runs nothing.  Code that only the unit tests call is dead weight
in the package; it belongs in the tests (``tests/oracles.py``) or goes.
Likewise a defaulted parameter that no call passes is a constant dressed up
as a setting.  The tracer (``perfbench/tracer.py``) raises on a traced name
that is gone, so a rename must update its ``TARGETS`` too.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpiso"
TESTS = ROOT / "tests"
ACCEPTANCE = TESTS / "test_acceptance.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tracer():
    """``perfbench/tracer.py``, loaded without importing perfbench."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _reads(node: ast.AST) -> set:
    """The identifiers that a node's code reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_package_definition_is_reached():
    roots = _reads(ast.parse(ACCEPTANCE.read_text()))
    roots |= {path.split(".")[0] for _, path, _, _ in _tracer().TARGETS}
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append((f"{path.name}:{node.name}", node))
            else:
                roots |= _reads(node)
    reached, todo = set(), roots & defs.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, node in defs[name]:
            todo |= (_reads(node) & defs.keys()) - reached
    unreached = sorted(label for name, found in defs.items() if name not in reached
                       for label, _ in found)
    assert not unreached, f"reached only by unit tests, or not at all: {unreached}"


def _package_functions():
    """(label, function node, number of leading bound arguments) of each
    top-level function and each method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.name}:{node.name}", node, 0
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        yield (f"{path.name}:{node.name}.{item.name}", item,
                               0 if static else 1)


def _calls_by_name():
    """Every call in the package and the tests, keyed by the called name;
    a call of a package class is a call of ``__init__``."""
    classes = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef)}
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name is not None:
                calls.setdefault("__init__" if name in classes else name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether a call passes the parameter by keyword, or by position before
    any ``*args`` (``**kwargs`` passes nothing by name)."""
    if any(k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    starred = [k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return position < (starred[0] if starred else len(call.args))


def test_every_option_is_set_by_some_caller():
    calls = _calls_by_name()
    unset = []
    for label, fn, bound in _package_functions():
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        options = [(k - bound, p.arg) for k, p in enumerate(positional) if k >= first]
        options += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                     if d is not None]
        named = calls.get(fn.name, [])
        unset += [f"{label}({name})" for position, name in options
                  if not any(_passes(c, name, position) for c in named)]
    assert not unset, f"{len(unset)} options that no call sets: {unset}"


def test_every_traced_target_resolves():
    """Resolve each (module, attribute path) of the tracer's TARGETS the way
    ``Tracer.install`` does, after importing the program as the benchmark
    does (``jumpiso.cli``)."""
    tracer = _tracer()
    import jumpiso.cli  # noqa: F401
    missing = []
    for module, path, _, _ in tracer.TARGETS:
        owner = sys.modules.get(f"{tracer.PACKAGE}.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in owner.__dict__:
            missing.append(f"{module}.{path}")
    assert tracer.TARGETS and not missing, f"traced but not defined: {missing}"
