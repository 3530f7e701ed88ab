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


def _catches_everything(handler):
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(t is None or isinstance(t, ast.Name)
               and t.id in ("Exception", "BaseException") for t in types)


def test_no_catch_all_handlers():
    """A failed internal check surfaces; no handler swallows every error."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler)
                  and _catches_everything(node)]
    assert not found, "catch-all except clauses in the package: %s" % found


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


ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_imports_are_used_and_at_module_level():
    """Package and test modules import only names they use; the package
    imports only at module level (tests import locally)."""
    unused, nested = [], []
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        imported, used, lines = _imports(path)
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
        if path.parent == SRC:
            nested += ["%s:%d" % (path.name, line) for line in lines]
    assert not unused, "unused imports: %s" % unused
    assert not nested, "imports inside functions or blocks: %s" % nested


def _names_used(tree):
    """Names a module reads, through a name, an attribute or an import,
    outside the body of the module-level definition of that same name."""
    used = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.alias):
                name = sub.name.split(".")[-1]
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_public_definitions_are_named_elsewhere():
    """Every public module-level function and class of the package is named
    somewhere in the package, the tests or the bench besides its own
    definition."""
    defined, used = [], set()
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "bench").glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _names_used(tree)
        if path.parent == SRC:
            defined += [(path.name, node.lineno, node.name)
                        for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
    unnamed = ["%s:%d %s" % item for item in defined if item[2] not in used]
    assert not unnamed, "public definitions named nowhere: %s" % unnamed


def test_one_schreier_lemma_and_one_relator_check():
    """The non-tree edge set of a spanning tree is built in one place, the
    Schreier's-lemma method of the graph layer, and relators are evaluated
    only in ``linalg`` (``Presentation.check_relators``)."""
    tree_edges, evaluators = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "tree_edges" \
                    and isinstance(node.ctx, ast.Store):
                tree_edges.append("%s:%d" % (path.name, node.lineno))
            if isinstance(node, ast.Call) and path.name != "linalg.py" \
                    and getattr(node.func, "id", getattr(
                        node.func, "attr", None)) in (
                            "evaluate_word", "evaluate_matrix_word"):
                evaluators.append("%s:%d" % (path.name, node.lineno))
    assert len(tree_edges) == 1 and tree_edges[0].startswith("linalg.py:"), \
        "non-tree edge sets built at %s" % tree_edges
    assert not evaluators, "words evaluated outside linalg: %s" % evaluators


def _unread_locals(tree):
    """(function, name) for each single-name assignment ``name = ...`` in a
    function that the function, nested definitions included, never reads."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        read = {n.id for n in nodes
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        shared = {name for n in nodes
                  if isinstance(n, (ast.Global, ast.Nonlocal))
                  for name in n.names}
        found |= {(func.name, n.targets[0].id) for n in nodes
                  if isinstance(n, ast.Assign) and len(n.targets) == 1
                  and isinstance(n.targets[0], ast.Name)
                  and n.targets[0].id not in read | shared}
    return found


def test_no_unread_local_assignments():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s: %s.%s" % (path.name, func, name)
                  for func, name in sorted(_unread_locals(tree))]
    assert not found, "locals assigned and never read: %s" % found


def test_cli_checks_only_what_no_library_function_checks():
    """A certificate is checked once, by the library function that builds
    it.  The CLI raises ``AssertionError`` and checks relators only for the
    two results the library returns unchecked: ``gq_normal_form``'s normal
    form and ``g1_stabilizer_presentation``'s relators."""
    tree = ast.parse((SRC / "cli.py").read_text())
    found = set()
    for func in tree.body:
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if getattr(exc, "id", None) == "AssertionError":
                    found.add(("raise", func.name))
            if isinstance(node, ast.Attribute) \
                    and node.attr == "check_relators":
                found.add(("check_relators", func.name))
    assert found == {("raise", "cmd_matrix_nf"),
                     ("check_relators", "cmd_matrix_stab")}, \
        "checks in cli.py: %s" % sorted(found)


def test_only_core_and_cli_canonicalize():
    """``canonical_class`` is the conjugacy BFS.  Outside ``core``, which
    runs it when a class's canonical word is first read, only ``cli``
    names it (``conj`` prints canonical words); every other module builds
    classes with ``conj_class``, which runs no BFS."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("core.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if "canonical_class" in (getattr(node, "id", None),
                                           getattr(node, "attr", None),
                                           getattr(node, "name", None))]
    assert not found, "canonical_class named outside core and cli: %s" % found
