"""No dead helpers: every module-level function, class and assigned name of
the package, and every method but the dunders, has a caller or reader in the
library, the demos or the benchmark."""

import ast
from pathlib import Path

import symprep

PACKAGE = Path(symprep.__file__).resolve().parent
ROOT = PACKAGE.parent.parent


def _import_paths(tree: ast.AST) -> dict:
    """{local name: dotted import path} of every import in the file; a
    relative import resolves inside the package."""
    paths = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                paths[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, (PACKAGE.name if node.level else "", node.module)))
            for alias in node.names:
                paths[alias.asname or alias.name] = f"{base}.{alias.name}"
    return paths


def _import_path_of(node: ast.AST, paths: dict):
    """The dotted import path an expression reads, or None if it reads no import."""
    if isinstance(node, ast.Name):
        return paths.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _import_path_of(node.value, paths)
        return base and f"{base}.{node.attr}"
    return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(tree: ast.AST) -> set:
    """The ids of the Name nodes that read a local of an enclosing function: a
    name the function binds in its own scope, as an argument or as an
    assignment target."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, _SCOPES):
            continue
        own, todo = [], list(ast.iter_child_nodes(fn))
        while todo:  # the function's own scope, not the functions and classes it nests
            node = todo.pop()
            own.append(node)
            if not isinstance(node, _SCOPES + (ast.ClassDef,)):
                todo.extend(ast.iter_child_nodes(node))
        bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        bound |= {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        out |= {id(n) for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in bound}
    return out


def _referenced_names(tree: ast.AST, module: str, strings: bool):
    """(name, line, owner) of every name read, attribute and, if strings,
    string constant; strings count in perfbench/, whose layers.py patches
    functions by their names.  A name bound is no reference.  owner is the
    module a read resolves to: for a bare name the module it is imported from
    in this file, or else this file's own module; for an attribute the import
    path of what it is read from (None if that is no import).  It is None for
    a read of a function's local, and "" for a string."""
    paths = _import_paths(tree)
    local = _local_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            imported = paths.get(node.id)
            owner = imported.rpartition(".")[0] if imported else module
            yield node.id, node.lineno, None if id(node) in local else owner
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, _import_path_of(node.value, paths)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, ""


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, statement, module_level) of every module-level function, class
    and name bound by an assignment, and of every method, leaving out dunders
    and the discard `_`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, True
        if isinstance(node, ast.ClassDef):
            yield from ((fn.name, fn, False) for fn in node.body
                        if isinstance(fn, ast.FunctionDef) and not _dunder(fn.name))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node, True) for target in targets for n in ast.walk(target)
                        if isinstance(n, ast.Name) and not _dunder(n.id) and n.id != "_")


def test_every_module_level_definition_has_a_caller():
    """A method counts as used by any reference to its name; a module-level
    function, class or constant only by a string in perfbench/, an attribute
    read from its own module, or a bare name that is no function's own local,
    read in its own file or in a file that imports it from there.  So neither
    `Mat.inverse()` nor a local `order = ...` is a use of a function in perm,
    nor a read of `suites.MAX_DEGREE` one of `field.MAX_DEGREE`.  A reference
    inside the definition's own statement is no use."""
    definitions = []
    references = {}
    for path in sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == PACKAGE:
            if path.name == "__init__.py":
                continue  # an export is not a use
            definitions += [(path, *d) for d in _definitions(tree)]
        module = f"{PACKAGE.name}.{path.stem}" if path.parent == PACKAGE else str(path)
        for name, line, owner in _referenced_names(tree, module, path.parent.name == "perfbench"):
            references.setdefault(name, []).append((path, line, owner))
    assert len(definitions) > 100  # the scan found the package
    assert sum(isinstance(d[2], (ast.Assign, ast.AnnAssign)) for d in definitions) > 20

    def used(path, name, node, module_level):
        owners = ("", f"{PACKAGE.name}.{path.stem}")
        return any(not (where == path and node.lineno <= line <= node.end_lineno)
                   and (owner in owners or not module_level)
                   for where, line, owner in references.get(name, ()))

    dead = [f"{path.name}:{node.lineno} {name}" for path, name, node, module_level in definitions
            if not used(path, name, node, module_level)]
    assert dead == []
