"""Small charts used across the test modules, built inline from fields."""

import math

from geoproj import expr
from geoproj.metric import ChartMap, Domain, MetricChart, Signature, pullback


def flat_chart():
    return MetricChart(
        name="flat-euclid", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=expr.const(1.0), domain=Domain(),
        signature=Signature.RIEMANNIAN,
        sample_box=(-2.0, 2.0, -2.0, 2.0)).validate()


def sphere_chart():
    # round sphere in colatitude/longitude coordinates
    return MetricChart(
        name="sphere", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=expr.sin(expr.X) ** 2,
        domain=Domain(x_min=0.0, x_max=math.pi),
        signature=Signature.RIEMANNIAN,
        sample_box=(0.4, math.pi - 0.4, 0.0, 2.0 * math.pi),
        periods=(None, 2.0 * math.pi)).validate()


def null_plane_chart():
    # 2 dx dy / (x^2 + y^2) off the origin
    s = 1.0 / (expr.X * expr.X + expr.Y * expr.Y)
    return MetricChart(
        name="null-plane", g11=expr.const(0.0), g12=s, g22=expr.const(0.0),
        domain=Domain(exclude_radius=1e-6),
        signature=Signature.LORENTZIAN,
        sample_box=(-2.0, 2.0, -2.0, 2.0)).validate()


def lumpy_chart():
    # generic positive-definite coefficients exercising every derivative
    E = 1.0 + expr.X * expr.X + expr.Y ** 4
    F = 0.2 * expr.X * expr.Y
    G = 2.0 + expr.sin(expr.X + expr.Y)
    return MetricChart(
        name="lumpy", g11=E, g12=F, g22=G,
        domain=Domain(), signature=Signature.RIEMANNIAN,
        sample_box=(-1.0, 1.0, -1.0, 1.0)).validate()


def unit_shift_pullback(chart):
    """chart pulled back along the unit shift (x, y) -> (x, y + 1)."""
    up = ChartMap("up", expr.X, expr.Y + 1.0,
                  inverse=ChartMap("down", expr.X, expr.Y - 1.0))
    return pullback(chart, up)
