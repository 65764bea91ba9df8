"""``python -O`` cannot change a result: an AST scan of every module of the
package for ``assert`` statements, which -O strips, and reads of
``__debug__``, which -O makes false.  A check the package relies on raises
its error explicitly instead."""

import ast
from pathlib import Path

import apfree

PACKAGE = Path(apfree.__file__).parent


def debug_sites(tree: ast.AST) -> list[str]:
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"]


def test_no_assert_or_debug_read():
    found = {path.name: debug_sites(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}


def test_scan_sees_each_kind():
    source = '''
def f(x):
    assert x > 0, "x must be positive"
    if __debug__:
        return x
'''
    assert debug_sites(ast.parse(source)) == ["assert x > 0, 'x must be positive'", "__debug__"]
