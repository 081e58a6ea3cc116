"""Christoffel symbols and Gaussian curvature against a computer algebra
oracle.

sympy differentiates each catalogue chart's coefficients twice, starting
from its own copy of every expression tree.  The connection then follows
from the index formula Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2,
and the curvature from the Riemann tensor of that connection,
K = g_1l R^l_212 / det g.  Neither formula is the one in geoproj.metric,
which uses the closed-form 2x2 algebra and Brioschi's formula.
"""

import math

import numpy as np
import pytest

from geoproj import expr, metric, sampling, zoo

sp = pytest.importorskip("sympy")

X, Y = sp.symbols("x y", real=True)


class _Floor(sp.Function):
    """floor, whose derivative vanishes wherever it is defined."""

    def fdiff(self, argindex=1):
        return sp.S.Zero


class _Sign(sp.Function):
    """sign, whose derivative vanishes away from zero."""

    def fdiff(self, argindex=1):
        return sp.S.Zero


_UNARY = {
    "sin": sp.sin, "cos": sp.cos, "sinh": sp.sinh, "cosh": sp.cosh,
    "exp": sp.exp, "log": sp.log, "arcsin": sp.asin, "sqrt": sp.sqrt,
    "abs": sp.Abs, "sign": _Sign, "floor": _Floor,
    "cbrt": lambda v: _Sign(v) * sp.Abs(v) ** sp.Rational(1, 3),
}
_NUMERIC = {"_Floor": lambda v: float(math.floor(v)),
            "_Sign": lambda v: float(np.sign(v))}


def _number(v):
    return sp.Integer(int(v)) if v == int(v) else sp.Float(v)


def to_sympy(node, memo=None):
    """The sympy expression of an expression tree, node by node."""
    memo = {} if memo is None else memo
    if id(node) in memo:
        return memo[id(node)]
    kind = type(node)
    if kind is expr.Const:
        out = _number(node.value)
    elif kind is expr.Var:
        out = X if node.name == "x" else Y
    elif kind is expr.Neg:
        out = -to_sympy(node.a, memo)
    elif kind is expr.Pow:
        out = to_sympy(node.a, memo) ** _number(node.p)
    elif kind is expr.Unary:
        out = _UNARY[node.kind](to_sympy(node.a, memo))
    elif kind is expr.ExpInvPoly:
        # exp(-1/a) P(1/a) for a > 0, else 0
        a = to_sympy(node.a, memo)
        poly = sum(_number(c) / a ** i for i, c in enumerate(node.coeffs))
        out = sp.Piecewise((sp.exp(-1 / a) * poly, a > 0), (0, True))
    else:
        a, b = to_sympy(node.a, memo), to_sympy(node.b, memo)
        out = {expr.Add: lambda: a + b, expr.Sub: lambda: a - b,
               expr.Mul: lambda: a * b, expr.Div: lambda: a / b}[kind]()
    memo[id(node)] = out
    return out


def _jets(chart):
    """(x, y) -> g, dg, ddg: the metric matrix and its first and second
    partial derivatives, dg[k] = d_k g and ddg[k][l] = d_k d_l g."""
    memo = {}
    fields = [to_sympy(f, memo) for f in (chart.g11, chart.g12, chart.g22)]
    outs = []
    for f in fields:
        fx, fy = sp.diff(f, X), sp.diff(f, Y)
        outs += [f, fx, fy, sp.diff(fx, X), sp.diff(fx, Y), sp.diff(fy, Y)]
    fn = sp.lambdify((X, Y), outs, modules=[_NUMERIC, "math"], cse=True)

    def jets(x, y):
        v = np.array(fn(x, y), dtype=float).reshape(3, 6)

        def sym(col):
            return np.array([[v[0, col], v[1, col]], [v[1, col], v[2, col]]])

        g = sym(0)
        dg = np.array([sym(1), sym(2)])
        ddg = np.array([[sym(3), sym(4)], [sym(4), sym(5)]])
        return g, dg, ddg

    return jets


def _connection_and_curvature(g, dg, ddg):
    ginv = np.linalg.inv(g)
    # first kind B[l, i, j] = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    b = 0.5 * (np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg)
    db = 0.5 * (np.einsum("kijl->klij", ddg) + np.einsum("kjil->klij", ddg)
                - ddg)
    gam = np.einsum("ml,lij->mij", ginv, b)
    dginv = -np.einsum("ma,kab,bl->kml", ginv, dg, ginv)
    dgam = (np.einsum("kml,lij->kmij", dginv, b)
            + np.einsum("ml,klij->kmij", ginv, db))
    # R^l_ijk = d_j G^l_ik - d_k G^l_ij + G^l_jm G^m_ik - G^l_km G^m_ij
    riem = (np.einsum("jlik->lijk", dgam) - np.einsum("klij->lijk", dgam)
            + np.einsum("ljm,mik->lijk", gam, gam)
            - np.einsum("lkm,mij->lijk", gam, gam))
    curvature = float(g[0] @ riem[:, 1, 0, 1]) / np.linalg.det(g)
    return gam, curvature


@pytest.mark.parametrize("name", sorted(zoo.catalogue()))
def test_christoffel_and_curvature_match_sympy(name):
    chart = zoo.build_bundle(name).chart
    jets = _jets(chart)
    for p in sampling.sample_points(chart, 6, np.random.default_rng(2024)):
        gam, curvature = _connection_and_curvature(*jets(*p))
        got = metric.christoffel(chart, p)
        scale = max(1.0, float(np.max(np.abs(gam))))
        assert np.max(np.abs(got - gam)) <= 1e-10 * scale, (name, p)
        assert metric.gaussian_curvature(chart, p) == pytest.approx(
            curvature, rel=1e-8, abs=1e-10), (name, p)
