import ast
import math
import pathlib
import struct
import sys

import numpy as np
import pytest

from geoproj import expr
from oracles import eip_reference, eval_tree, fd_derivative


def _sample_fields():
    x, y = expr.X, expr.Y
    return [
        ("poly", x * x * y - 3.0 * y + 0.5, (0.7, -1.2)),
        ("rational", (x + y) / (1.0 + x * x + y * y), (1.1, 0.3)),
        ("trig", expr.sin(x * y) * expr.cos(x - y), (0.4, 2.1)),
        ("hyper", expr.sinh(x) + expr.cosh(y * 0.5), (-0.3, 0.9)),
        ("explog", expr.exp(-x * x) * expr.log(2.0 + y * y), (0.6, -0.8)),
        ("arcsin", expr.arcsin(x * 0.4), (0.9, 0.0)),
        ("sqrt", expr.sqrt(1.0 + x * x + y * y), (1.5, -2.0)),
        ("cbrt23", expr.pow23(x - 2.0), (0.3, 0.0)),
        ("powreal", (1.0 + x * x) ** 1.7, (0.8, 0.0)),
        ("powint", (x + 2.0) ** (-3), (0.5, 0.0)),
        ("bump", expr.expinv(x, (1.0, -0.5, 2.0)), (0.7, 0.0)),
        ("step", expr.smoothstep((x + y) * 0.5), (0.55, 0.35)),
    ]


def test_compiled_matches_tree_walk():
    rng = np.random.default_rng(7)
    for name, f, _ in _sample_fields():
        for _ in range(25):
            x, y = rng.uniform(-0.9, 0.9, size=2)
            a = f(x, y)
            b = eval_tree(f, x, y)
            assert a == pytest.approx(b, rel=1e-14, abs=1e-300), name


def test_derivatives_match_finite_differences():
    for name, f, (x, y) in _sample_fields():
        for v in ("x", "y"):
            d = f.diff(v)
            got = d(x, y)
            want = fd_derivative(f, x, y, v)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8), (name, v)


def test_mixed_partials_commute():
    for name, f, (x, y) in _sample_fields():
        fxy = f.diff("x").diff("y")
        fyx = f.diff("y").diff("x")
        got, want = fxy(x, y), fyx(x, y)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12), name


def test_diff_is_memoized():
    f = expr.sin(expr.X * expr.Y) + expr.X
    assert f.diff("x") is f.diff("x")


def test_second_derivative_of_bump_is_smooth_at_cutoff():
    f = expr.expinv(expr.X)
    d2 = f.diff("x").diff("x")
    # approaching the cutoff from either side stays finite and tends to 0
    assert d2(-1e-9, 0.0) == 0.0
    assert abs(d2(5e-3, 0.0)) < 1e-60


def test_smoothstep_shape():
    s = expr.smoothstep(expr.X)
    assert s(-2.0, 0.0) == 0.0
    assert s(0.0, 0.0) == 0.0
    assert s(1.0, 0.0) == 1.0
    assert s(3.0, 0.0) == 1.0
    ts = np.linspace(0.05, 0.95, 19)
    vals = [s(t, 0.0) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    ds = s.diff("x")
    assert ds(-0.5, 0.0) == 0.0
    assert ds(1.5, 0.0) == 0.0
    assert ds(0.5, 0.0) > 0.0


def test_periodic_wrapper_has_periodic_derivatives():
    base = expr.smoothstep(expr.X * 2.0 - 0.5) * expr.sin(expr.Y)
    f = expr.substitute(base, expr.mod_field(expr.X, 1.0), expr.Y)
    df = f.diff("x")
    for x in (0.13, 0.42, 0.77):
        for y in (0.3, -1.1):
            assert f(x, y) == pytest.approx(f(x + 1.0, y), rel=1e-12)
            assert f(x, y) == pytest.approx(f(x - 3.0, y), rel=1e-12)
            assert df(x, y) == pytest.approx(df(x + 1.0, y), rel=1e-12)


def test_constant_folding():
    x = expr.X
    assert isinstance(x * 0.0, expr.Const)
    assert (x * 1.0) is x
    assert (x + 0.0) is x
    assert isinstance(expr.sin(expr.const(0.0)), expr.Const)
    f = x / x
    assert isinstance(f, expr.Const) and f.value == 1.0
    assert (x ** 1) is x


def test_substitute_composes():
    f = expr.sin(expr.X) + expr.Y * expr.Y
    g = expr.substitute(f, expr.Y + 1.0, expr.X * 2.0)
    x, y = 0.37, -0.61
    assert g(x, y) == pytest.approx(math.sin(y + 1.0) + (2.0 * x) ** 2, rel=1e-14)
    # a sequence goes through one memo: the subtree f shares with 3 f stays
    # one node, and every value equals that of a lone substitution
    g1, g3 = expr.substitute([f, 3.0 * f], expr.Y + 1.0, expr.X * 2.0)
    assert g3.b is g1
    assert (g1(x, y), g3(x, y)) == (g(x, y), 3.0 * g(x, y))


def test_evaluate_raises_off_domain():
    f = expr.log(expr.X)
    with pytest.raises(expr.EvaluationError):
        expr.evaluate(f, (-1.0, 0.0))
    g = 1.0 / expr.X
    with pytest.raises(expr.EvaluationError):
        expr.evaluate(g, (0.0, 0.0))
    assert expr.evaluate(g, (2.0, 0.0)) == 0.5


def test_prefix_round_trip():
    rng = np.random.default_rng(3)
    for name, f, _ in _sample_fields():
        text = expr.to_prefix(f)
        g = expr.parse_prefix(text)
        for _ in range(10):
            x, y = rng.uniform(-0.8, 0.8, size=2)
            assert f(x, y) == pytest.approx(g(x, y), rel=1e-15, abs=1e-300), name


def test_parse_macros_and_errors():
    s = expr.parse_prefix("(smoothstep x)")
    assert s(0.5, 0.0) == pytest.approx(0.5)
    m = expr.parse_prefix("(mod x 2.0)")
    assert m(5.5, 0.0) == pytest.approx(1.5)
    sq = expr.parse_prefix("(sq (+ x y))")
    assert sq(1.0, 2.0) == pytest.approx(9.0)
    assert expr.parse_prefix("pi")(0.0, 0.0) == pytest.approx(math.pi)
    for bad in ["", "(+ x)", "(unknownop x y)", "(pow x y)", "x y", "(sin x"]:
        with pytest.raises(expr.ExpressionError):
            expr.parse_prefix(bad)


@pytest.mark.parametrize("name", ["vx", "vy", "jn", "jp"])
def test_parse_refuses_the_state_components_of_the_flow_steps(name):
    # the flow module's right-hand sides read these leaves; no chart text
    # may name them
    for text in (name, "(* x %s)" % name):
        with pytest.raises(expr.ExpressionError, match="unknown token"):
            expr.parse_prefix(text)
    with pytest.raises(expr.ExpressionError):
        expr.Var(name)


def test_emit_names_a_target_where_it_is_computed():
    s = expr.sin(expr.X)
    u = s * expr.Y
    lines, outs = expr.emit([s, u, s, u + 1.0], ["p", None, "q", None])
    # q names the node p does, right after it; an unnamed field is an
    # expression over the names
    assert lines == ["p = sin(x)", "q = p", "v0 = (p * y)"]
    assert outs == ["p", "v0", "q", "(v0 + 1.0)"]


def _distinct_nodes(field):
    seen = {}
    todo = [field]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.children())
    return len(seen)


def test_parse_makes_a_repeated_subexpression_one_node():
    f = expr.parse_prefix("(+ (sin x) (sin x))")
    assert f.a is f.b
    lines, _ = expr.emit([f])
    assert lines == ["v0 = sin(x)"]
    # an atom is one node per token, so 0.0 and -0.0 stay two constants
    g = expr.parse_prefix("(+ (eip x 0.0 1.0) (eip x -0.0 1.0))")
    assert g.a is not g.b
    assert [math.copysign(1.0, h.coeffs[0]) for h in (g.a, g.b)] \
        == [1.0, -1.0]
    # texts parsed by one parser share nodes across texts too
    parse = expr.prefix_parser()
    assert parse("(* 2.0 (cos y))").b is parse("(+ 1.0 (cos y))").b


def test_parse_keeps_a_difference_or_quotient_of_one_repeat():
    # a / a of one node is not folded to 1.0: the text computes it, and
    # fails where a is 0, as two separate copies of a did
    q = expr.parse_prefix("(/ (sin x) (sin x))")
    assert isinstance(q, expr.Div) and q.a is q.b
    with pytest.raises(expr.EvaluationError):
        expr.evaluate(q, (0.0, 0.0))
    assert isinstance(expr.parse_prefix("(- (sin x) (sin x))"), expr.Sub)
    # constants still fold, and a zero divisor is still refused
    assert expr.parse_prefix("(- 1.5 1.5)").value == 0.0
    assert expr.parse_prefix("(/ 1.5 1.5)").value == 1.0
    with pytest.raises(expr.ExpressionError, match="division by constant"):
        expr.parse_prefix("(/ 0.0 0.0)")
    zero = expr.const(0.0)
    with pytest.raises(expr.ExpressionError, match="division by constant"):
        zero / zero


def test_substitute_keeps_a_difference_or_quotient_of_one_repeat():
    # pulled back along the shift x -> x + 1, the quotient still fails
    # where sin(x + 1) is 0, as the text fails where sin x is 0
    shift = expr.X + 1.0
    q = expr.substitute(expr.parse_prefix("(/ (sin x) (sin x))"), shift,
                        expr.Y)
    assert isinstance(q, expr.Div) and q.a is q.b
    with pytest.raises(expr.EvaluationError):
        expr.evaluate(q, (-1.0, 0.0))
    assert expr.evaluate(q, (0.5, 0.0)) == 1.0
    d = expr.substitute(expr.parse_prefix("(- (sin x) (sin x))"), shift,
                        expr.Y)
    assert isinstance(d, expr.Sub) and d.a is d.b
    # a map onto a constant still folds
    assert expr.substitute(d, 0.5, expr.Y).value == 0.0


def test_compile_many_shares_subexpressions():
    s = 1.0 / (expr.X * expr.X + expr.Y * expr.Y)
    fields = [s * 2.0, s * expr.X, s * s]
    fn = expr.compile_fields(fields)
    a, b, c = fn(1.2, 0.7)
    sv = 1.0 / (1.2 ** 2 + 0.7 ** 2)
    assert a == pytest.approx(2.0 * sv, rel=1e-15)
    assert b == pytest.approx(1.2 * sv, rel=1e-15)
    assert c == pytest.approx(sv * sv, rel=1e-15)


def test_floor_sign_abs_semantics():
    fl = expr.floor_of(expr.X)
    assert fl(2.7, 0.0) == 2.0
    assert fl(-0.3, 0.0) == -1.0
    sg = expr.sign(expr.X)
    assert sg(-3.0, 0.0) == -1.0 and sg(0.0, 0.0) == 0.0 and sg(4.0, 0.0) == 1.0
    ab = expr.absval(expr.X)
    assert ab.diff("x")(-2.0, 0.0) == -1.0
    assert fl.diff("x")(2.7, 0.0) == 0.0


@pytest.mark.parametrize("coeffs", [
    (1.0,), (0.5, -2.0), (3.0, 0.25, -1.5), (1.0, -0.5, 2.0, -0.0),
    (-0.0,), (2.0, -0.0)])
def test_compiled_eip_equals_the_reference_bit_for_bit(coeffs):
    fn = expr.compile_fields([expr.expinv(expr.X, coeffs)])
    cutoff = 1e-3
    for u in (-1.0, 0.0, math.nextafter(cutoff, 0.0), cutoff,
              math.nextafter(cutoff, 1.0), 2e-3, 0.1, 0.7, 3.0, 1e6,
              math.inf, math.nan):
        got, want = fn(u, 0.0)[0], eip_reference(u, coeffs)
        assert struct.pack("d", got) == struct.pack("d", want), (u, got, want)
    # a constant argument is written into the compiled line as a number
    got = expr.compile_fields([expr.expinv(math.pi, coeffs)])(0.0, 0.0)[0]
    assert struct.pack("d", got) == struct.pack(
        "d", eip_reference(math.pi, coeffs))


def test_non_finite_constants_raise_expression_error():
    for make in (lambda: expr.compile_fields([expr.X * math.inf]),
                 lambda: expr.X + expr.const(math.nan),
                 lambda: expr.const(-math.inf),
                 lambda: expr.expinv(expr.X, (1.0, math.nan)),
                 lambda: expr.expinv(expr.X, (math.inf,)),
                 lambda: expr.X ** math.inf,
                 lambda: expr.parse_prefix("(* x inf)")):
        with pytest.raises(expr.ExpressionError):
            make()


def test_deep_trees_compile_and_match_the_reference():
    # a 1000-term left-nested sum and a chain of 300 unary functions: each
    # node is used once and so written inline, until the nesting cap turns
    # one into a statement (nested whole, either would pass CPython's limit
    # of 200 parentheses)
    total = expr.X
    for k in range(1, 1000):
        total = total + (k + 0.5) * expr.Y
    chain = expr.X
    for k in range(300):
        chain = expr.cos(chain) if k % 2 else expr.sin(chain)
    fn = expr.compile_fields([total, chain])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        for x, y in ((0.3, -1.7), (2.5, 0.01), (-4.0, 3.3)):
            got = fn(x, y)
            want = (eval_tree(total, x, y), eval_tree(chain, x, y))
            assert got == want, (x, y, got, want)
    finally:
        sys.setrecursionlimit(limit)


# the deepest expression parse_prefix accepts, in forms and in tree levels
PARSE_CAP = 200


def _nest(form, levels):
    """form (one %s) wrapped around x levels times."""
    text = "x"
    for _ in range(levels):
        text = form % text
    return text


def test_parse_accepts_the_depth_cap():
    cap = PARSE_CAP
    assert expr._PARSE_DEPTH == cap
    f = expr.parse_prefix(_nest("(* 1.0001 %s)", cap))
    assert f(2.0, 0.0) == pytest.approx(2.0 * 1.0001 ** cap, rel=1e-12)
    # cap additions, nested by the left fold of a sum of cap + 1 terms
    f = expr.parse_prefix("(+ %s)" % " ".join(["x"] * (cap + 1)))
    assert f(2.0, 0.0) == 2.0 * (cap + 1)
    assert expr.parse_prefix(_nest("(smoothstep %s)", cap // 4))(
        0.5, 0.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("text", [
    _nest("(* 1.0001 %s)", PARSE_CAP + 1),
    _nest("(neg %s)", PARSE_CAP + 1),   # folds back to x
    _nest("(sin %s)", 1200),            # deeper than the parser recurses
    "(+ %s)" % " ".join(["x"] * (PARSE_CAP + 2)),
    # each smoothstep form builds four levels
    _nest("(smoothstep %s)", PARSE_CAP // 4 + 1),
], ids=["product", "folded", "parser", "flat-sum", "macro"])
def test_parse_refuses_a_level_above_the_depth_cap(text):
    with pytest.raises(expr.ExpressionError, match="more than 200"):
        expr.parse_prefix(text)


def test_to_prefix_refuses_text_past_the_node_cap():
    # an n-deep (sq ...) nest is n + 1 distinct nodes, and its text writes
    # the product tree out: 2^(n + 1) - 1 nodes
    assert expr._PREFIX_NODES == 100_000
    text = expr.to_prefix(expr.parse_prefix(_nest("(sq %s)", 15)))
    assert text.count("x") == 2 ** 15
    # read back, the 2^16 - 1 written nodes are the 16 distinct ones again
    assert _distinct_nodes(expr.parse_prefix(text)) == 16
    with pytest.raises(expr.ExpressionError, match="more than 100000"):
        expr.to_prefix(expr.parse_prefix(_nest("(sq %s)", 16)))
    # 30 deep the text would write x 2^30 times; writing stops past the cap
    deep = expr.parse_prefix(_nest("(sq %s)", 30))
    with pytest.raises(expr.ExpressionError, match="more than 100000"):
        expr.to_prefix(deep)
    assert repr(deep) == "<field too large to write out>"
    assert deep(-1.0, 0.0) == 1.0


def test_a_tree_deeper_than_the_recursion_limit_substitutes_and_writes():
    # built in code, so no parse cap applies; only differentiation and
    # the parser's descent recurse
    chain = expr.X
    for _ in range(5000):
        chain = expr.sin(chain)
    text = expr.to_prefix(chain)
    assert text == "(sin " * 5000 + "x" + ")" * 5000
    assert repr(chain) == "<field %s>" % text
    moved = expr.substitute(chain, expr.Y, expr.X)
    assert expr.to_prefix(moved) == text.replace("x", "y")


def test_only_compile_function_executes_source():
    # Generated source becomes code in one place: the builtins exec, eval
    # and compile are called by bare name only inside expr.compile_function
    # (a method such as a chart runtime's compile is a different call).
    package = pathlib.Path(expr.__file__).parent
    calls = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                inner = "%s.%s" % (scope, getattr(child, "name", "<lambda>"))
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in ("exec", "eval", "compile")):
                calls.add((scope, child.func.id))
            visit(child, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert calls == {("expr.compile_function", "exec"),
                     ("expr.compile_function", "compile")}
