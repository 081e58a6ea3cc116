"""Property tests of the prefix language and the field compiler.

Skipped when hypothesis is not installed.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from geoproj import expr
from oracles import eval_tree, substitute_reference, to_prefix_reference

_UNARY = ["sin", "cos", "sinh", "cosh", "exp", "log", "arcsin", "sqrt",
          "cbrt", "abs", "sign", "floor"]
_ERRORS = (ValueError, ZeroDivisionError, OverflowError)

_numbers = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).map(repr)


def _texts(max_coeffs):
    """Well-formed prefix texts; eip carries 1 to max_coeffs coefficients.

    Evaluating them may still fail, and parsing them may fail in constant
    folding (say (log -1.0)), but never on syntax.
    """
    atoms = st.one_of(st.sampled_from(["x", "y", "pi", "e"]), _numbers)

    def forms(inner):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), inner, inner)
            .map("(%s %s %s)".__mod__),
            st.tuples(st.sampled_from(_UNARY + ["neg", "sq", "smoothstep"]),
                      inner).map("(%s %s)".__mod__),
            st.tuples(inner, st.integers(-3, 3) | st.sampled_from([0.5, -1.5]))
            .map(lambda t: "(pow %s %r)" % t),
            st.tuples(inner, st.floats(0.1, 10.0)).map("(mod %s %r)".__mod__),
            st.tuples(inner, st.lists(_numbers, min_size=1,
                                      max_size=max_coeffs))
            .map(lambda t: "(eip %s %s)" % (t[0], " ".join(t[1]))))

    return st.recursive(atoms, forms, max_leaves=10)


def _parsed(text):
    try:
        return expr.parse_prefix(text)
    except expr.ExpressionError:
        assume(False)


def _outcome(fn, *args):
    """The value of fn(*args), "nan", or the type of the error it raised."""
    try:
        v = fn(*args)
    except _ERRORS as exc:
        return type(exc)
    return "nan" if math.isnan(v) else v


@settings(deadline=None)
@given(_texts(max_coeffs=3))
def test_prefix_text_round_trips(text):
    printed = expr.to_prefix(_parsed(text))
    assert expr.to_prefix(expr.parse_prefix(printed)) == printed


# With one eip coefficient the compiled cutoff and the oracle's bump agree
# bit for bit; with more, Horner's rule and the oracle's sum round apart.
@settings(deadline=None)
@given(_texts(max_coeffs=1), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_compiled_evaluation_matches_the_tree_walk(text, x, y):
    f = _parsed(text)
    compiled = expr.compile_fields([f])
    assert _outcome(lambda: compiled(x, y)[0]) \
        == _outcome(eval_tree, f, x, y)


def _holds_a_repeat_kept_apart(field):
    """Whether field's tree holds a - a or a / a of one node, which the
    parser and substitute keep and the reference substitute folds."""
    seen, todo = set(), [field]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, (expr.Sub, expr.Div)) and node.a is node.b:
                return True
            todo.extend(node.children())
    return False


@settings(deadline=None)
@given(_texts(max_coeffs=3))
def test_substitute_and_to_prefix_write_as_the_recursive_reference(text):
    f = _parsed(text)
    assert expr.to_prefix(f) == to_prefix_reference(f)
    assume(not _holds_a_repeat_kept_apart(f))
    # maps to non-constant fields: with no constant to fold, two nodes
    # are never made one, so no new a - a or a / a arises
    for ex, ey in ((expr.Y + 1.0, expr.X * 2.0), (expr.X + 1.0, expr.Y)):
        assert expr.to_prefix(expr.substitute(f, ex, ey)) \
            == to_prefix_reference(substitute_reference(f, ex, ey))


_TOKENS = (["(", "(", ")", ")", "x", "y", "pi", "e", "+", "-", "*", "/",
            "pow", "neg", "sq", "mod", "eip", "smoothstep", "0", "-1", "0.5",
            "-8", "1000", "1e308", "1e999", "-1e999", "nan", "inf", "zz"]
           + _UNARY)


@settings(deadline=None)
@given(st.one_of(_texts(max_coeffs=3),
                 st.lists(st.sampled_from(_TOKENS), max_size=25)
                 .map(" ".join)))
def test_bad_input_raises_only_expression_error(text):
    try:
        f = expr.parse_prefix(text)
    except expr.ExpressionError:
        return
    # whatever parses compiles: every constant in it is a finite float
    expr.compile_fields([f])
