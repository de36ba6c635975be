"""A tripwire against test-only code in the package.

Every top-level function, class or assigned name of src/bnc_engine,
and every method, dunders aside, must be referenced by name from
somewhere other than the tests: other package code, perfbench (the
tracer names what it wraps in dotted-path strings) or scripts.  A
definition that only tests reach belongs in the tests, as their
reference.

This is a name-based tripwire, not a proof.  A top-level definition is
reached only through a bare name, an import, a string that spells a
dotted path (docstring words do not count), or an attribute of a
package module (freeprod.lr_decompose); x.name on any other object
reaches only methods.  A method is reached by any use of its name, so a
method that shares its name with a used one, such as to_json, can still
hide when dead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "bnc_engine").glob("*.py"))
OUTSIDE = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
MODULES = {path.stem for path in PACKAGE}

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


def _names_a_module(node) -> bool:
    """Whether node is a package module: freeprod, or bnc_engine.freeprod."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in MODULES


def _references(tree):
    """(name, line, whether it can reach a top-level definition) of each
    identifier, attribute, imported name and dotted-path part."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, _names_a_module(node.value)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, True
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
            and DOTTED.fullmatch(node.value)
        ):
            for part in node.value.split("."):
                yield part, node.lineno, True


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, node) of each top-level definition, method and
    module-level assigned name, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name):
                    yield f"{node.name}.{sub.name}", sub
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, node


def test_every_package_definition_is_reached_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE + OUTSIDE}
    used: dict = {}  # name -> [(path, line, reaches a top-level definition)]
    for path, tree in trees.items():
        for name, line, top in _references(tree):
            used.setdefault(name, []).append((path, line, top))
    unreached = []
    for path in PACKAGE:
        for qualname, node in _definitions(trees[path]):
            # a definition's references to itself do not count
            is_method = "." in qualname
            outside_itself = [
                (where, line)
                for where, line, top in used.get(qualname.rpartition(".")[2], [])
                if (top or is_method)
                and not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            label = f"{path.stem}.{qualname}"
            if not outside_itself and label not in ALLOWED:
                unreached.append(label)
    assert unreached == []
