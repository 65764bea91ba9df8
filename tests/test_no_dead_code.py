"""No dead code: an AST scan of every module of the package.

A module-level function or class is live when some package code outside
its own definition names it: a call or other use of the bare name, an
attribute ``module.name``, or an import, which covers what ``apfree``
exports.  Code that only the tests call fails the scan; the tests check
such facts against ``tests/oracle.py`` instead.
"""

import ast
from pathlib import Path

import apfree

PACKAGE = Path(apfree.__file__).parent


def definitions(tree: ast.Module, module: str):
    """(module, name, node) of every module-level function and class."""
    return [(module, node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def references(tree: ast.AST, skip: ast.AST | None = None):
    """The names used under tree, outside the subtree ``skip``: bare names,
    attribute names and imported names."""
    found = set()

    def visit(node):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def unreferenced(trees: dict[str, ast.Module]):
    """(module, name) of every definition no package code outside it names."""
    dead = []
    for module, tree in trees.items():
        others = set().union(*(references(t) for m, t in trees.items() if m != module))
        for _, name, node in definitions(tree, module):
            if name not in others and name not in references(tree, skip=node):
                dead.append((module, name))
    return dead


def test_every_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(trees) == []


def test_scan_sees_unused_code():
    trees = {
        "a": ast.parse("def used(): pass\n"
                       "def recursive(n): return recursive(n - 1)\n"
                       "def helper(): pass\n"
                       "def caller(): return helper()\n"
                       "class Unused: pass\n"),
        "b": ast.parse("from .a import used\n"
                       "import a\n"
                       "x = a.caller\n"),
    }
    assert unreferenced(trees) == [("a", "recursive"), ("a", "Unused")]
