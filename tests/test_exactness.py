"""No float reaches the package: the source of `covol` holds no float
literal, no `float(...)` call, no `math` function that returns a float, and
no true division without a `Fraction(...)` call as an operand (int / int
is a float)."""

import ast
import glob
import os

from corpus import ROOT

EXACT_MATH = {"isqrt", "lcm", "gcd", "comb", "perm", "factorial"}


def _is_fraction_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "Fraction"


def _inexact(tree):
    """(line, what) for every construct that can make a float."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "literal %r" % node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            yield node.lineno, "float() call"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr not in EXACT_MATH:
            yield node.lineno, "math.%s" % node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, "from math import %s" % a.name)
                        for a in node.names if a.name not in EXACT_MATH)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
                and not (_is_fraction_call(node.left) or _is_fraction_call(node.right)):
            yield node.lineno, "/ without a Fraction operand"
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div) \
                and not _is_fraction_call(node.value):
            yield node.lineno, "/= without a Fraction operand"


def test_no_float_reaches_the_package():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "covol", "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            found += [(os.path.basename(path), line, what)
                      for line, what in _inexact(ast.parse(handle.read()))]
    assert found == []
