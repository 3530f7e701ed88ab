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
