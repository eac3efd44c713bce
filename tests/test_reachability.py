"""Every top-level function and class of the package is reached by the package,
every option of a package function is set by some caller, and every function
the benchmark's tracer wraps exists.

A name counts as reached when it appears, as a whole word, outside its own
definition: in a module of ``jumpiso`` (the package ``__init__`` included)
or in the acceptance suite outside its import statements.  Code that only
the unit tests call is dead weight in the package; it belongs in the tests
or goes.  Likewise a defaulted parameter that no call passes is a constant
dressed up as a setting.  The tracer (``perfbench/tracer.py``) raises on a
traced name that is gone, so a rename must update its ``TARGETS`` too.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpiso"
TESTS = ROOT / "tests"
ACCEPTANCE = TESTS / "test_acceptance.py"


def _definitions(path: Path):
    """(name, first line, last line) of each top-level def and class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _without_imports(path: Path) -> str:
    """The text of a module with its import statements blanked out."""
    lines = path.read_text().splitlines()
    for node in ast.walk(ast.parse("\n".join(lines), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for k in range(node.lineno - 1, node.end_lineno):
                lines[k] = ""
    return "\n".join(lines)


def test_every_package_definition_is_reached():
    modules = {p: p.read_text().splitlines() for p in sorted(PACKAGE.glob("*.py"))}
    acceptance = _without_imports(ACCEPTANCE)
    unreached = []
    for path, lines in modules.items():
        for name, first, last in _definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = "\n".join(lines[:first - 1] + lines[last:])
            others = (text for p, text in modules.items() if p != path)
            if not (word.search(own) or word.search(acceptance)
                    or any(word.search("\n".join(t)) for t in others)):
                unreached.append(f"{path.name}:{name}")
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
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
