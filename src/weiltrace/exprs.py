"""Plain-text expressions for test functions.

Grammar: a single constructor call with positional and/or keyword
numeric arguments, or a bare builtin name::

    loggauss(a=1, mu=0, sigma=1)
    logbump(a=1, lo=0.5, hi=2, shape=1)
    gauss2            # 2 exp(-pi x^2), the Fourier fixed point
    xgauss2           # 2 x exp(-pi x^2)

Parsing goes through :mod:`ast` so no arbitrary code is evaluated.
"""

from __future__ import annotations

import ast

from .errors import ExpressionError
from .families import LogBump, LogGaussian, gaussian_even, gaussian_odd

__all__ = ["parse_function"]


_BUILTINS = {
    "gauss2": gaussian_even,
    "xgauss2": gaussian_odd,
}

# constructor name -> (argument names in positional order, factory)
_CONSTRUCTORS = {
    "loggauss": (("a", "mu", "sigma"),
                 lambda a=1.0, mu=0.0, sigma=1.0:
                 LogGaussian(amplitude=a, center=mu, width=sigma)),
    "logbump": (("a", "lo", "hi", "shape"),
                lambda a=1.0, lo=0.5, hi=2.0, shape=1.0:
                LogBump(amplitude=a, lo=lo, hi=hi, shape=shape)),
}


def _number(node: ast.expr, text: str) -> float:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_number(node.operand, text)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    raise ExpressionError(f"expected a number in {text!r}")


def parse_function(text: str):
    """Parse a function expression into a callable test function."""
    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None

    if isinstance(tree, ast.Name):
        try:
            return _BUILTINS[tree.id]()
        except KeyError:
            raise ExpressionError(
                f"unknown builtin {tree.id!r}; "
                f"choices: {sorted(_BUILTINS)}") from None

    if not (isinstance(tree, ast.Call) and isinstance(tree.func, ast.Name)):
        raise ExpressionError(f"expected name(...) or builtin, got {text!r}")
    name = tree.func.id
    if name not in _CONSTRUCTORS:
        raise ExpressionError(
            f"unknown constructor {name!r}; choices: {sorted(_CONSTRUCTORS)}")
    arg_names, factory = _CONSTRUCTORS[name]
    if len(tree.args) > len(arg_names):
        raise ExpressionError(
            f"{name} takes at most {len(arg_names)} arguments")
    kwargs = {arg_names[i]: _number(a, text)
              for i, a in enumerate(tree.args)}
    for kw in tree.keywords:
        if kw.arg not in arg_names:
            raise ExpressionError(f"{name} has no argument {kw.arg!r}")
        if kw.arg in kwargs:
            raise ExpressionError(f"duplicate argument {kw.arg!r}")
        kwargs[kw.arg] = _number(kw.value, text)
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ExpressionError(str(exc)) from None

