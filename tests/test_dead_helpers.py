"""No dead helpers: every module-level function and class of the package, and
every method but the dunders, has a caller in the library, the demos or the
benchmark."""

import ast
from pathlib import Path

import symprep

PACKAGE = Path(symprep.__file__).resolve().parent
ROOT = PACKAGE.parent.parent


def _referenced_names(tree: ast.AST):
    """(name, line) of every name, attribute and string constant; a string
    counts because perfbench/layers.py patches functions by their names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_module_level_definition_has_a_caller():
    definitions = []
    references = {}
    for path in sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == PACKAGE:
            if path.name == "__init__.py":
                continue  # an export is not a use
            definitions += [(path, node) for node in tree.body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
            definitions += [(path, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                            for node in cls.body if isinstance(node, ast.FunctionDef)
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
        for name, line in _referenced_names(tree):
            references.setdefault(name, []).append((path, line))
    assert len(definitions) > 100  # the scan found the package

    def used(path, node):
        return any(not (where == path and node.lineno <= line <= node.end_lineno)
                   for where, line in references.get(node.name, ()))

    dead = [f"{path.name}:{node.lineno} {node.name}" for path, node in definitions
            if not used(path, node)]
    assert dead == []
