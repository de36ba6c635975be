"""A tripwire against test-only code in the package.

Every top-level function or class of src/bnc_engine, and every method
that is not a dunder, must be referenced by name from somewhere other
than the tests: other package code, perfbench (the tracer names what it
wraps in dotted-path strings) or scripts.  A definition that only tests
reach belongs in the tests, as their reference.

This is a name-based tripwire, not a proof: identifiers and strings that
spell a dotted path count as references, docstring words do not, and
a reference is any use of the same name.  So a common name such as
check or to_json can hide a dead method.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "bnc_engine").glob("*.py"))
OUTSIDE = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# the lattice API: its tests check lattice laws on the package's own code
ALLOWED = {"partitions.meet", "partitions.SetPartition.singletons"}


def _docstrings(tree) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant):
                found.add(id(doc.value))
    return found


def _references(tree):
    """(name, line) of each identifier, imported name and dotted-path part."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
            and DOTTED.fullmatch(node.value)
        ):
            for part in node.value.split("."):
                yield part, node.lineno


def _definitions(tree):
    """(qualified name, node) of each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def test_every_package_definition_is_reached_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE + OUTSIDE}
    used: dict = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            used.setdefault(name, []).append((path, line))
    unreached = []
    for path in PACKAGE:
        for qualname, node in _definitions(trees[path]):
            # a definition's references to itself do not count
            outside_itself = [
                (where, line)
                for where, line in used.get(qualname.rpartition(".")[2], [])
                if not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            label = f"{path.stem}.{qualname}"
            if not outside_itself and label not in ALLOWED:
                unreached.append(label)
    assert unreached == []
