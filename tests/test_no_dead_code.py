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

A parameter with a default is live when some package call of its
function, matched by name alone, passes it: by position, by keyword,
through ``*args`` at or before its position or through ``**kwargs``.  A
method's calls skip its bound first parameter, and a class's calls are
its ``__init__``'s or ``__new__``'s.  The functions that ``apfree``
exports are exempt, as their callers are outside the package, and so is
``cli.main``'s ``argv``, the entry point the benchmark and the tests call.
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


def defaulted(args: ast.arguments):
    """(name, position) of each parameter with a default, position None
    for a keyword-only one."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` may pass the parameter ``name`` at ``position``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and any(
        i == position or (i < position and isinstance(arg, ast.Starred))
        for i, arg in enumerate(call.args))


def functions(node: ast.AST, cls: ast.ClassDef | None = None):
    """(function, the class it is a method of or None) of every function
    defined under node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, cls
            yield from functions(child)
        else:
            yield from functions(child, child if isinstance(child, ast.ClassDef) else cls)


def unpassed_defaults(trees: dict[str, ast.Module], allowed=()):
    """(module, function, parameter) of every parameter with a default that
    no package call passes, outside the exported functions and ``allowed``."""
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    calls = {}
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(call)
    dead = []
    for module, tree in trees.items():
        for func, cls in functions(tree):
            if cls is None and func.name in exported:
                continue
            name = func.name
            if cls is not None and name in ("__init__", "__new__"):
                name = cls.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
            bound = int(cls is not None and not static)
            for param, position in defaulted(func.args):
                at = None if position is None else position - bound
                if (module, func.name, param) not in allowed and not any(
                        passes(call, param, at) for call in calls.get(name, [])):
                    dead.append((module, func.name, param))
    return dead


def package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_used():
    assert unreferenced(package_trees()) == []


def test_every_method_and_attribute_is_used():
    assert unread_members(package_trees()) == []


def test_every_default_is_overridden_somewhere():
    assert unpassed_defaults(package_trees(), allowed={("cli", "main", "argv")}) == []


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


def test_scan_sees_unpassed_defaults():
    trees = {
        "__init__": ast.parse("from .a import public\n"),
        "a": ast.parse("def public(x, y=1): pass\n"
                       "def keyword(x, y=1): pass\n"
                       "def positional(x, y=1, z=2): pass\n"
                       "def starred(x, y=1, z=2): pass\n"
                       "def kwonly(x, *, y=1, z=2): pass\n"
                       "def mapping(x, y=1): pass\n"
                       "def never(x=0): pass\n"
                       "class C:\n"
                       "    def __init__(self, a, b=1, c=2): pass\n"
                       "    def method(self, a=1, b=2): pass\n"
                       "    @staticmethod\n"
                       "    def static(a=1, b=2): pass\n"),
        "b": ast.parse("keyword(1, y=2)\n"
                       "positional(1, 2)\n"
                       "starred(*args)\n"
                       "kwonly(1, z=3)\n"
                       "mapping(1, **options)\n"
                       "C(1, 2).method(3)\n"
                       "C.static(3)\n"
                       "never\n"),
    }
    assert unpassed_defaults(trees) == [
        ("a", "positional", "z"), ("a", "kwonly", "y"), ("a", "never", "x"),
        ("a", "__init__", "c"), ("a", "method", "b"), ("a", "static", "b")]
    assert unpassed_defaults(trees, allowed={("a", "never", "x")})[2:3] == [
        ("a", "__init__", "c")]
