"""No dead code: an AST scan of every module of the package.

A module-level function or class is live when some package code outside
its own definition names it: a call or other use of the bare name, an
attribute ``module.name``, or an import, which covers what ``apfree``
exports.  A method of a module-level class, dunder methods aside, is live
when some package code outside its own definition names it, and an
attribute that a method assigns as ``self.name`` when some package code
reads an attribute of that name; both are matched by name alone, whatever
the object.  Code that only the tests call fails the scan; the tests check
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


def unread_members(trees: dict[str, ast.Module]):
    """(module, class, name) of every method no package code outside it
    names, and of every ``self.name`` a method assigns that no package code
    reads."""
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            methods = [node for node in cls.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for method in methods:
                name = method.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not any(name in references(t, skip=method) for t in trees.values()):
                    dead.append((module, cls.name, name))
            assigned = dict.fromkeys(
                node.attr for method in methods for node in ast.walk(method)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self")
            dead += [(module, cls.name, name) for name in assigned if name not in reads]
    return dead


def package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_used():
    assert unreferenced(package_trees()) == []


def test_every_method_and_attribute_is_used():
    assert unread_members(package_trees()) == []


def test_scan_sees_unused_code():
    trees = {
        "a": ast.parse("def used(): pass\n"
                       "def recursive(n): return recursive(n - 1)\n"
                       "def helper(): pass\n"
                       "def caller(): return helper()\n"
                       "class Unused: pass\n"
                       "class Used:\n"
                       "    def __init__(self):\n"
                       "        self.read, self.unread = 1, 2\n"
                       "        self.written = 3\n"
                       "    def called(self): return self.read\n"
                       "    def again(self): return self.again()\n"
                       "    def unused(self): pass\n"),
        "b": ast.parse("from .a import used, Used\n"
                       "import a\n"
                       "x = a.caller\n"
                       "Used().called()\n"
                       "Used().written = 4\n"),
    }
    assert unreferenced(trees) == [("a", "recursive"), ("a", "Unused")]
    # "written" is only ever assigned, here and from "b"
    assert sorted(unread_members(trees)) == [("a", "Used", "again"), ("a", "Used", "unread"),
                                             ("a", "Used", "unused"), ("a", "Used", "written")]
