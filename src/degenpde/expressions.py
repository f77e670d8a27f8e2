"""Arithmetic expressions for coefficient and data fields.

Python's own parser reads an expression, and a check admits its tree only
if every node lies in this grammar, loosest binding first:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | variable | func '(' expr ')' | '(' expr ')'

'+ - * /' associate to the left.  '^' associates to the right and binds
tighter than a leading minus: -x^2 is -(x^2), and 2^-x is 2^(-x).  A
number is ASCII digits with an optional point and an optional exponent:
1, 01, 1.5, 1., .5, 1e-3.  '**', '_' in numbers, hex, complex literals,
unary '+' and every other Python construct are refused.  Functions: sqrt,
exp, with one argument.  Variables: x, t, y2 ... y9.  Whitespace, line
breaks included, only separates tokens.  Expressions evaluate over numpy
arrays, so they broadcast over grid meshes; a complex value is refused.
An expression's derivative is again an expression, differentiated node by
node on the checked tree; a '^' whose exponent holds the variable would
need log, which the grammar lacks, and is refused.
"""

from __future__ import annotations

import ast
import re
import warnings

import numpy as np

_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_BAD_TEXT = re.compile(r"\*\*|[^\w.+\-*/^() ]", re.ASCII)
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_FUNCS = {"sqrt": np.sqrt, "exp": np.exp}
_VARS = ("x", "t") + tuple(f"y{i}" for i in range(2, 10))
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_GLOBALS = {"__builtins__": {}, **_FUNCS}


class ExpressionError(ValueError):
    pass


def _check(node, source: str, text: str):
    """Refuse any node outside the grammar; make every number a float."""
    segment = source[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _check(node.left, source, text)
        _check(node.right, source, text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        _check(node.operand, source, text)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
        _check(node.args[0], source, text)
    elif isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        node.value = float(segment)
    elif not (isinstance(node, ast.Name) and node.id in _VARS):
        raise ExpressionError(f"{segment.replace('**', '^')!r} is not allowed in {text!r}")


def _join(left, op, right):
    """left + right or left - right, with None as zero."""
    if right is None:
        return left
    if left is None:
        return right if isinstance(op, ast.Add) else ast.UnaryOp(ast.USub(), right)
    return ast.BinOp(left, op, right)


def _derivative(node, var: str):
    """The tree of d node / d var, or None where node does not hold var."""
    if isinstance(node, ast.Constant):
        return None
    if isinstance(node, ast.Name):
        return ast.Constant(1.0) if node.id == var else None
    if isinstance(node, ast.UnaryOp):
        return _join(None, ast.Sub(), _derivative(node.operand, var))
    if isinstance(node, ast.Call):  # exp' = exp, sqrt' = 0.5 / sqrt
        d = _derivative(node.args[0], var)
        outer = node if node.func.id == "exp" else ast.BinOp(ast.Constant(0.5), ast.Div(), node)
        return d and ast.BinOp(outer, ast.Mult(), d)
    a, op, b = node.left, node.op, node.right
    da, db = _derivative(a, var), _derivative(b, var)
    if isinstance(op, ast.Pow):  # (a^c)' = c a^(c - 1) a'
        if db is not None:
            text = ast.unparse(node).replace("**", "^")
            raise ExpressionError(f"d/d{var} of {text!r} needs log, which the grammar lacks")
        power = ast.BinOp(a, op, ast.BinOp(b, ast.Sub(), ast.Constant(1.0)))
        return da and ast.BinOp(ast.BinOp(b, ast.Mult(), power), ast.Mult(), da)
    if isinstance(op, ast.Mult):  # a' b + a b'
        return _join(da and ast.BinOp(da, op, b), ast.Add(), db and ast.BinOp(a, op, db))
    if isinstance(op, ast.Div):  # a' / b - a b' / b^2
        return _join(da and ast.BinOp(da, op, b), ast.Sub(), db and ast.BinOp(
            ast.BinOp(a, ast.Mult(), db), op, ast.BinOp(b, ast.Mult(), b)))
    return _join(da, op, db)


class CompiledExpression:
    """Expression compiled to a numpy-broadcasting callable f(x, y..., t)."""

    def __init__(self, text: str):
        self.text = text.strip()
        source = " ".join(text.split())
        bad = _BAD_TEXT.search(source)
        if bad:
            raise ExpressionError(f"{bad.group()!r} is not allowed in {self.text!r}")
        source = _LEADING_ZEROS.sub("", source).replace("^", "**")
        try:
            with warnings.catch_warnings():  # a SyntaxWarning is a refusal
                warnings.simplefilter("error")
                self.node = ast.parse(source, mode="eval")
            _check(self.node.body, source, self.text)
            self._code = compile(self.node, "<expression>", "eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse {self.text!r}: {exc.msg}") from None
        except RecursionError:
            raise ExpressionError("expression is nested too deeply") from None
        self.time_dependent = "t" in self._code.co_names

    def __call__(self, x, *coords):
        env = {f"y{i}": yi for i, yi in enumerate(coords[:-1], 2)}
        env.update(x=x, t=coords[-1])
        try:
            value = eval(self._code, _GLOBALS, env)
        except NameError as exc:
            raise ExpressionError(f"variable {exc.name} not available here") from None
        if np.iscomplexobj(value):
            raise ExpressionError(f"{self.text!r} takes a complex value")
        return value

    def derivative(self, var: str) -> CompiledExpression:
        """d/d var, compiled from the differentiated tree unparsed ('**' written '^')."""
        if var not in _VARS:
            raise ExpressionError(f"cannot differentiate by {var!r}: not a variable")
        try:
            body = _derivative(self.node.body, var) or ast.Constant(0.0)
            return CompiledExpression(ast.unparse(body).replace("**", "^"))
        except RecursionError:
            raise ExpressionError("expression is nested too deeply") from None

    def __repr__(self):
        return f"CompiledExpression({self.text!r})"


def compile_expression(text: str) -> CompiledExpression:
    return CompiledExpression(text)
