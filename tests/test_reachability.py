"""Every top-level function and class of the package is reached by the package.

A name counts as reached when it appears, as a whole word, outside its own
definition: in a module of ``jumpiso`` (the package ``__init__`` included)
or in the acceptance suite.  Code that only the unit tests call is dead
weight in the package; it belongs in the tests or goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpiso"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _definitions(path: Path):
    """(name, first line, last line) of each top-level def and class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def test_every_package_definition_is_reached():
    modules = {p: p.read_text().splitlines() for p in sorted(PACKAGE.glob("*.py"))}
    acceptance = ACCEPTANCE.read_text()
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
