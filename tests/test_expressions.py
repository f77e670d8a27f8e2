import itertools
import operator
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
import sympy as sp
from hypothesis import strategies as st

from degenpde.expressions import CompiledExpression, ExpressionError
from degenpde.operators import manufactured_solutions


def test_basic_arithmetic():
    f = CompiledExpression("x + 2*t - y2^2")
    assert f(1.0, 3.0, 0.5) == pytest.approx(1.0 + 1.0 - 9.0)


def test_functions_and_precedence():
    f = CompiledExpression("sqrt(x) + exp(0*t) * y2")
    assert f(4.0, 0.25, 7.0) == pytest.approx(2.25)
    g = CompiledExpression("2*x^2")
    assert g(3.0, 0.0, 0.0) == pytest.approx(18.0)


def test_broadcasting():
    f = CompiledExpression("x + y2*t")
    x = np.array([0.0, 1.0])
    out = f(x, 2.0, 3.0)
    assert np.allclose(out, [6.0, 7.0])


def test_time_dependence_flag():
    assert CompiledExpression("x + t").time_dependent
    assert not CompiledExpression("x + y2").time_dependent


def test_parse_errors():
    with pytest.raises(ValueError):
        CompiledExpression("x +")
    with pytest.raises(ValueError):
        CompiledExpression("foo(x)")


# fixed meshes: x = s^2 >= 0, the tangential variables of both signs
X = np.linspace(0.0, 2.0, 5).reshape(5, 1, 1)
Y2 = np.linspace(-1.0, 1.0, 4).reshape(1, 4, 1)
T = np.linspace(0.0, 1.0, 3).reshape(1, 1, 3)
Y = [0.5 + 0.25 * k for k in range(3, 10)]  # y3 ... y9, positive scalars

ACCEPTED = {
    "1 + 2*x": lambda x, y2, t: 1.0 + 2.0 * x,
    "x - t - y2": lambda x, y2, t: (x - t) - y2,
    "x / 3 / t": lambda x, y2, t: (x / 3.0) / t,
    "x + 2*t - y2^2": lambda x, y2, t: (x + 2.0 * t) - y2 ** 2.0,
    "(x + t)*y2": lambda x, y2, t: (x + t) * y2,
    "x^2^0.5": lambda x, y2, t: x ** (2.0 ** 0.5),
    "x^0.5^2": lambda x, y2, t: x ** (0.5 ** 2.0),
    "-x^2": lambda x, y2, t: -(x ** 2.0),
    "2^-x": lambda x, y2, t: 2.0 ** (-x),
    "x^-1/2": lambda x, y2, t: (x ** -1.0) / 2.0,
    "-x*t": lambda x, y2, t: (-x) * t,
    "- - y2": lambda x, y2, t: -(-y2),
    "3 - -2*t": lambda x, y2, t: 3.0 - (-2.0) * t,
    "2*x^3*t": lambda x, y2, t: (2.0 * x ** 3.0) * t,
    "1/(1 + x^2)": lambda x, y2, t: 1.0 / (1.0 + x ** 2.0),
    ".5*x": lambda x, y2, t: 0.5 * x,
    "1.*t": lambda x, y2, t: 1.0 * t,
    "1e-3 + x": lambda x, y2, t: 0.001 + x,
    "2.5E+2*t - 1.5e0": lambda x, y2, t: 250.0 * t - 1.5,
    "01 + x": lambda x, y2, t: 1.0 + x,
    "00 + x*007.5": lambda x, y2, t: 0.0 + x * 7.5,
    "x +\n t": lambda x, y2, t: x + t,
    " x\t*\n\n   y2 ": lambda x, y2, t: x * y2,
    "sqrt(x) + exp(-t)": lambda x, y2, t: np.sqrt(x) + np.exp(-t),
    "exp(sqrt(x)*y2)^2": lambda x, y2, t: np.exp(np.sqrt(x) * y2) ** 2.0,
    "sqrt (x)^3": lambda x, y2, t: np.sqrt(x) ** 3.0,
    "(x)": lambda x, y2, t: x,
    "7": lambda x, y2, t: 7.0,
}


@pytest.mark.parametrize("text", ACCEPTED)
def test_accepted_expressions_equal_their_numpy_form_bitwise(text):
    with np.errstate(all="ignore"):
        got = CompiledExpression(text)(X, Y2, T)
        want = ACCEPTED[text](X, Y2, T)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.asarray(got).dtype == np.float64


def test_all_tangential_variables_up_to_y9():
    f = CompiledExpression("y2 + y3*y4 - y5/y6 + y7^y8*y9 + x*t")
    got = f(X, Y2, *Y, T)
    y3, y4, y5, y6, y7, y8, y9 = Y
    assert np.array_equal(got, ((Y2 + y3 * y4) - y5 / y6) + y7 ** y8 * y9 + X * T)
    with pytest.raises(ExpressionError, match="variable y3 not available here"):
        f(X, Y2, T)


REFUSED = [
    "x**2", "x ** 2", "x % 2", "x // 2", "x @ t", "~x", "+x", "not x", "x and t",
    "x or t", "x < t", "x == t", "x & t", "x | t", "x << 1", "x if t else 1",
    "1and x", "1_0", "0_0", "0x1", "0o7", "1j", "True", "None", "...", "'a'", "x.real",
    "1 .real", "x[0]", "(x, t)", "x,", "x; t", "x = 1", "(x := 1)", "await x",
    "__import__('os')", "().__class__", "(lambda: 1)()", "lambda: 1",
    "[x for x in t]", "f'{x}'", "sqrt(x, t)", "sqrt(x=1)", "sqrt()", "sqrt(*x)",
    "sqrt(**x)", "sqrt(x)(t)", "exp", "abs(x)", "x(1)", "z", "y1", "y10", "X",
    "x # comment", "x + ١", "ｘ + t", "x +", "", "   ", "x y2", "2x", "x ^^ 2",
    "x^", "(x", "x)", "x \\\n+ t", "x\x00",
]


@pytest.mark.parametrize("text", REFUSED)
def test_refused_expressions_raise_expression_error(text):
    with pytest.raises(ExpressionError):
        CompiledExpression(text)


@pytest.mark.parametrize("text", ["(" * 300 + "x" + ")" * 300, "-" * 3000 + "x",
                                  "-" * 1200 + "x", "x" + "^x" * 1200],
                         ids=["parentheses_300", "minus_3000", "minus_1200", "powers_1200"])
def test_nesting_the_parser_cannot_take_is_refused(text):
    with pytest.raises(ExpressionError, match="nested"):
        CompiledExpression(text)


@pytest.mark.parametrize("text", ["x + (-1)^0.5", "exp((-1)^0.5)*t", "t*(0 - 8)^(1/3)"])
def test_a_complex_value_is_refused(text):
    f = CompiledExpression(text)
    with pytest.raises(ExpressionError, match="complex value"):
        f(X, Y2, T)
    with pytest.raises(ExpressionError, match="complex value"):
        f(1.0, -1.0, 0.5)


# Random trees over the grammar: ("num", text), ("var", name), ("neg", a),
# ("call", name, a) and ("bin", op, a, b), rendered with minimal parentheses.
_NUMBERS = ["0", "1", "2", "3", "0.5", ".25", "1.", "1e-3", "2.5E+1", "01", "007.5"]
_BIN_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_BIN_OP = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}
_TREES = st.recursive(
    st.one_of(st.sampled_from(_NUMBERS).map(lambda s: ("num", s)),
              st.sampled_from(["x", "t", "y2", "y3"]).map(lambda s: ("var", s))),
    lambda sub: st.one_of(
        sub.map(lambda a: ("neg", a)),
        st.tuples(st.just("call"), st.sampled_from(["sqrt", "exp"]), sub),
        st.tuples(st.just("bin"), st.sampled_from(sorted(_BIN_LEVEL)), sub, sub)),
    max_leaves=10)


def _render(node, space):
    """(text, level): expr 1, term 2, unary 3, power 4, atom 5."""
    def at_least(child, level):
        text, child_level = _render(child, space)
        return text if child_level >= level else f"({text})"

    kind = node[0]
    if kind in ("num", "var"):
        return node[1], 5
    if kind == "neg":
        return "-" + at_least(node[1], 3), 3
    if kind == "call":
        return f"{node[1]}({_render(node[2], space)[0]})", 5
    op, level = node[1], _BIN_LEVEL[node[1]]
    if op == "^":  # atom '^' unary
        left, right = at_least(node[2], 5), at_least(node[3], 3)
    else:  # left-associative
        left, right = at_least(node[2], level), at_least(node[3], level + 1)
    return f"{left}{space}{op}{space}{right}", level


def _value(node, env):
    kind = node[0]
    if kind == "num":
        return float(node[1])
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_value(node[1], env)
    if kind == "call":
        return {"sqrt": np.sqrt, "exp": np.exp}[node[1]](_value(node[2], env))
    return _BIN_OP[node[1]](_value(node[2], env), _value(node[3], env))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_TREES, st.sampled_from(["", " ", "\n  "]))
def test_random_trees_evaluate_bitwise_as_written(tree, space):
    text = _render(tree, space)[0]
    env = {"x": X, "y2": Y2, "y3": Y[0], "t": T}
    with np.errstate(all="ignore"):
        try:
            want = _value(tree, env)
        except ArithmeticError as exc:  # Python floats: 1/0, overflow
            with pytest.raises(type(exc)):
                CompiledExpression(text)(X, Y2, Y[0], T)
            return
        f = CompiledExpression(text)
        if np.iscomplexobj(want):
            with pytest.raises(ExpressionError, match="complex value"):
                f(X, Y2, Y[0], T)
            return
        got = f(X, Y2, Y[0], T)
    assert np.array_equal(got, want, equal_nan=True), text
    assert f.time_dependent == ("('var', 't')" in repr(tree))


# the derivative of the checked tree against hand derivatives, on x > 0
XP = X + 0.5
HAND = {
    ("x^3*y2 - exp(2*t)*sqrt(x)", "x"):
        lambda x, y2, t: 3.0 * x ** 2 * y2 - np.exp(2.0 * t) * 0.5 / np.sqrt(x),
    ("x^3*y2 - exp(2*t)*sqrt(x)", "y2"): lambda x, y2, t: x ** 3,
    ("x^3*y2 - exp(2*t)*sqrt(x)", "t"): lambda x, y2, t: -2.0 * np.exp(2.0 * t) * np.sqrt(x),
    ("x/(1 + y2^2)", "y2"): lambda x, y2, t: -2.0 * x * y2 / (1.0 + y2 ** 2) ** 2,
    ("-(x - t + 2)^-2", "t"): lambda x, y2, t: -2.0 * (x - t + 2.0) ** -3,
    ("x^t", "x"): lambda x, y2, t: t * x ** (t - 1.0),
    ("sqrt(exp(x*y2))", "y2"): lambda x, y2, t: 0.5 * x * np.exp(0.5 * x * y2),
    ("7 + t", "x"): lambda x, y2, t: 0.0 * x,
}


@pytest.mark.parametrize("text, var", HAND)
def test_derivative_equals_the_hand_derivative(text, var):
    d = CompiledExpression(text).derivative(var)
    assert isinstance(d, CompiledExpression)
    want = HAND[text, var](XP, Y2, T)
    assert np.allclose(d(XP, Y2, T), want, rtol=1e-14, atol=0)
    assert d.time_dependent == bool(re.search(r"\bt\b", d.text))


@pytest.mark.parametrize("text, var", [("2^x", "x"), ("x^t", "t"), ("y2^(1 + y2)*t", "y2")])
def test_a_power_with_the_variable_in_its_exponent_is_refused_by_name(text, var):
    with pytest.raises(ExpressionError, match=f"d/d{var} of .* needs log"):
        CompiledExpression(text).derivative(var)


def test_derivative_by_a_name_outside_the_grammar_is_refused():
    with pytest.raises(ExpressionError, match="cannot differentiate by 'z'"):
        CompiledExpression("x").derivative("z")


_SYMBOLS = {name: sp.Symbol(name) for name in ("x", "y2", "y3", "t")}


def _sympy(node):
    kind = node[0]
    if kind == "num":
        return sp.Float(float(node[1]))
    if kind == "var":
        return _SYMBOLS[node[1]]
    if kind == "neg":
        return -_sympy(node[1])
    if kind == "call":
        return {"sqrt": sp.sqrt, "exp": sp.exp}[node[1]](_sympy(node[2]))
    return _BIN_OP[node[1]](_sympy(node[2]), _sympy(node[3]))


def _exponent_holds(node, var):
    """Whether some '^' in the tree has var in its exponent."""
    if node[0] in ("num", "var"):
        return False
    if node[0] == "bin" and node[1] == "^" and f"('var', '{var}')" in repr(node[3]):
        return True
    return any(_exponent_holds(child, var) for child in node[1:] if isinstance(child, tuple))


def _values_at_50_digits(expr):
    """expr at the mesh points (x, y2, y3, t) to 50 digits; None where not finite and real."""
    f = sp.lambdify(list(_SYMBOLS.values()), expr, "mpmath")
    out = []
    with mpmath.workdps(50):
        for point in itertools.product(X.ravel(), Y2.ravel(), Y[:1], T.ravel()):
            try:
                value = f(*map(mpmath.mpf, point))
            except (ZeroDivisionError, ValueError):
                value = None
            finite = isinstance(value, mpmath.mpf) and mpmath.isfinite(value)
            out.append(value if finite else None)
    return out


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_TREES, st.sampled_from(["x", "y2", "t"]))
def test_random_tree_derivatives_equal_sympy_where_both_are_finite(tree, var):
    """The derivative's tree against sympy's, both evaluated to 50 digits.

    Evaluating the derivative in floats is the path every expression takes
    (tested bitwise above); to 50 digits a cancellation in either tree
    cannot hide a wrong rule.
    """
    f = CompiledExpression(_render(tree, " ")[0])
    if _exponent_holds(tree, var):
        with pytest.raises(ExpressionError, match="needs log"):
            f.derivative(var)
        return
    ours = sp.sympify(f.derivative(var).text, locals=_SYMBOLS)
    try:
        theirs = sp.diff(_sympy(tree), _SYMBOLS[var])
    except ZeroDivisionError:  # sympy refuses a float division by 0
        return
    for got, want in zip(_values_at_50_digits(ours), _values_at_50_digits(theirs)):
        if got is not None and want is not None:
            assert mpmath.almosteq(got, want, rel_eps=1e-12, abs_eps=1e-30), (ours, theirs)


def _each_partial_alone(f, n, coords):
    """u, u_t, the gradient and the Hessian (i <= j), each its own derivative evaluated alone."""
    names = ["x"] + [f"y{i}" for i in range(2, n + 1)]
    grad = [f.derivative(name) for name in names]
    hess = [grad[i].derivative(names[j]) for i in range(n) for j in range(i, n)]
    return [d(*coords) for d in (f, f.derivative("t"), *grad, *hess)]


def _assert_partials_bitwise(f, n, coords):
    with np.errstate(all="ignore"):
        try:
            want = _each_partial_alone(f, n, coords)
        except (ExpressionError, ArithmeticError):  # log needed, complex, Python 1/0
            with pytest.raises((ExpressionError, ArithmeticError)):
                f.partials(n)(*coords)
            return
        u, u_t, grad, hess = f.partials(n)(*coords)
    assert list(hess) == [(i, j) for i in range(n) for j in range(i, n)]
    for got, alone in zip([u, u_t, *grad, *hess.values()], want, strict=True):
        assert type(got) is type(alone), f.text
        assert np.array_equal(got, alone, equal_nan=True), f.text


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_TREES)
def test_grouped_partials_equal_each_partial_evaluated_alone(tree):
    _assert_partials_bitwise(CompiledExpression(_render(tree, " ")[0]), 3, (X, Y2, Y[0], T))


def test_grouped_partials_of_the_catalog_equal_each_partial_evaluated_alone():
    for v in (0.25, 1.0, 4.0):
        for solution in manufactured_solutions(v):
            _assert_partials_bitwise(solution.f, 2, (X, Y2, T))
            _assert_partials_bitwise(solution.f, 2, (0.3, -0.5, 0.25))


def test_grouped_partials_refuse_a_missing_variable_and_a_bad_dimension():
    with pytest.raises(ExpressionError, match="variable y3 not available here"):
        CompiledExpression("x*y3").partials(2)(X, Y2, T)
    with pytest.raises(ExpressionError, match="partials in 10 space variables"):
        CompiledExpression("x").partials(10)
