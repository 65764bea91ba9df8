"""No float enters a decision: an AST scan of every module of the package.

It fails on a float literal or the name ``float``, on ``math``/numpy
``sqrt``, ``log``, ``log2`` and ``exp``, on a numpy float dtype, and on true
division, everywhere but at the reviewed sites below.  Each site is keyed by
its module, the qualified name of the function or class around it, and its
source text (for ``/`` the division, otherwise the statement or argument
that holds it), so moving code does not matter but every new site does.
"""

import ast
from collections import Counter
from pathlib import Path

import apfree

PACKAGE = Path(apfree.__file__).parent

REVIEWED = Counter({
    # the timing fields, which no output or decision reads
    ("float", "verify", "VerificationReport", "elapsed: float = 0.0"): 2,
    ("float", "verify", "_scan_report", "t0: float"): 1,
    # Fraction arithmetic
    ("/", "blocks", "polygon_area", "total / 2"): 1,
    ("/", "blocks", "BuildingBlock.piece_polygons", "eps / 2"): 1,
    ("/", "clipping", "clip_halfplane", "(c - a * px - b * py) / denom"): 1,
    ("/", "clipping", "_shoelace", "total / 2"): 1,
    ("/", "verify", "area_oracle", "epsilon / 2"): 1,
    ("/", "verify", "area_oracle", "epsilon / 4"): 1,
    # path joins
    ("/", "storage", "write_set", "outdir / f'{name}.set'"): 1,
    ("/", "storage", "write_set", "outdir / f'{name}.json'"): 1,
    ("/", "storage", "write_set", "outdir / f'{name}.report.json'"): 1,
})

TRANSCENDENTAL = {"sqrt", "log", "log2", "exp"}
FLOAT_DTYPES = {"float16", "float32", "float64", "float128", "float_", "half", "single",
                "double", "longdouble", "floating", "complex64", "complex128", "complexfloating"}
FLOAT_CODES = {"e", "f", "d", "g", "f2", "f4", "f8", "f16", "c8", "c16", *FLOAT_DTYPES}


def sites(tree: ast.AST, module: str):
    """(kind, module, scope, text) of every float-prone node under tree."""
    found = []

    def visit(node, scope, holder):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.stmt, ast.arg)):
            holder = node
        where = (module, ".".join(scope))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)):
            found.append(("/", *where, ast.unparse(node)))
        elif (isinstance(node, ast.Constant) and type(node.value) in (float, complex)
              or isinstance(node, ast.Name) and node.id == "float"):
            found.append(("float", *where, ast.unparse(holder)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id == "math" and node.attr in TRANSCENDENTAL
                or node.value.id in ("np", "numpy")
                and node.attr in TRANSCENDENTAL | FLOAT_DTYPES):
            found.append(("name", *where, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy") and any(
                alias.name in TRANSCENDENTAL | FLOAT_DTYPES for alias in node.names):
            found.append(("name", *where, ast.unparse(node)))
        elif isinstance(node, ast.Call):
            # dtype="f8" and .astype("float64")
            spelled = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                spelled += node.args[:1]
            if any(isinstance(v, ast.Constant) and v.value in FLOAT_CODES for v in spelled):
                found.append(("dtype", *where, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, holder)

    visit(tree, (), tree)
    return found


def package_sites():
    return Counter(site for path in sorted(PACKAGE.glob("*.py"))
                   for site in sites(ast.parse(path.read_text()), path.stem))


def test_only_reviewed_floats_and_divisions():
    found = package_sites()
    assert found - REVIEWED == Counter(), "unreviewed float-prone sites"
    assert REVIEWED - found == Counter(), "reviewed sites that are gone: drop them from the list"


def test_scan_sees_each_kind():
    source = '''
import math
from math import sqrt
import numpy as np
x = 1.5
def f(a: float, b):
    b /= 2
    return math.log(a) + np.exp(b) + np.zeros(3, dtype="f8").sum() + b.astype(np.float32)
class C:
    def g(self):
        return float(self) / 3
'''
    assert Counter(kind for kind, *_ in sites(ast.parse(source), "m")) == Counter(
        {"float": 3, "/": 2, "name": 4, "dtype": 1})
    assert ("/", "m", "C.g", "float(self) / 3") in sites(ast.parse(source), "m")
