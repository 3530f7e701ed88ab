"""Checks on the package source itself."""

import ast
import pathlib

from raagaut import core

SRC = pathlib.Path(core.__file__).parent


def test_no_assert_statements():
    """Internal checks raise explicitly, so they survive ``python -O``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: %s" % found


def _imports(path):
    """(module-level imported names with their lines, names used anywhere,
    lines of imports not at module level)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = set(map(id, tree.body))
    imported, nested = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if id(node) not in top:
            nested.append(node.lineno)
        elif getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, used, nested


def test_imports_are_used_and_at_module_level():
    unused, nested = [], []
    for path in sorted(SRC.glob("*.py")):
        imported, used, lines = _imports(path)
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
        nested += ["%s:%d" % (path.name, line) for line in lines]
    assert not unused, "unused imports: %s" % unused
    assert not nested, "imports inside functions or blocks: %s" % nested
