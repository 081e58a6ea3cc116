"""Metric charts on plane domains: coefficients, curvature, pullbacks.

A chart holds the three coefficient fields of a symmetric 2-form

    g = g11 dx^2 + 2 g12 dx dy + g22 dy^2

as expression trees, plus a domain, a signature tag and sampling metadata.
Christoffel symbols and Gaussian curvature are computed from exact symbolic
derivatives of the coefficients; the per-chart compiled bundles are cached so
repeated evaluation (geodesic right-hand sides in particular) stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import expr
from .expr import ScalarField

__all__ = [
    "Signature", "CausalClass", "Domain", "MetricChart", "ChartMap",
    "VectorField", "DegenerateMetricError", "SignatureError", "DomainError",
    "metric_eval", "christoffel", "gaussian_curvature", "classify",
    "pullback", "pullback_form", "lie_derivative_fields", "killing_residual",
    "chart_to_dict", "chart_from_dict",
]


class DegenerateMetricError(ValueError):
    """The coefficient matrix is singular where it must not be."""


class SignatureError(ValueError):
    """The sampled determinant sign contradicts the declared signature."""


class DomainError(ValueError):
    """A point or sample box is incompatible with the chart domain."""


class Signature(str, Enum):
    RIEMANNIAN = "riemannian"   # det g > 0 on the domain
    LORENTZIAN = "lorentzian"   # det g < 0 on the domain


class CausalClass(str, Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


# A coefficient matrix counts as degenerate where |det g| is at most this
# fraction of its largest squared coefficient.  MetricChart.validate and the
# curvature both decide through the one test _DEGENERATE, as source.
DEGENERACY_TOL = 1e-12
_DEGENERATE = "abs(det) <= %r * max(E * E, F * F, G * G, 1e-300)" % (
    DEGENERACY_TOL,)
_degenerate = expr.compile_function(
    "def degenerate(det, E, F, G):\n    return %s\n" % _DEGENERATE,
    "degenerate", "<geoproj.metric degenerate>", max=max)

# The chart's fields by name (_Runtime._fields): the coefficients E, F, G,
# the Christoffel symbols G^1_11, G^1_12, G^1_22, G^2_11, G^2_12, G^2_22 as
# a to f, det and, with the curvature, kq.
_CHRISTOFFEL = ("E", "F", "G", "a", "b", "c", "d", "e", "f")
# the names the curvature's lines set before its degeneracy test
_GUARDED = ("E", "F", "G", "det")
_GUARD = ["if %s:" % _DEGENERATE,
          "    raise DegenerateMetricError('metric is numerically degenerate"
          " at (%g, %g)' % (x, y))"]


def degeneracy_ratio(E, F, G):
    """|det g| / max(E^2, F^2, G^2): 0 where g degenerates, and unchanged
    when g is rescaled.  The stepper reads it to tell a coordinate pole, where
    the ratio falls, from a blow-up, where it stays put."""
    return abs(E * G - F * F) / max(E * E, F * F, G * G, 1e-300)


@dataclass(frozen=True)
class Domain:
    """Open box, optionally minus a closed origin disc, cut by constraints.

    A point is inside when it lies strictly within the bounds, strictly
    outside the excluded disc, and each constraint field is strictly
    positive and finite there.
    """

    x_min: float = -math.inf
    x_max: float = math.inf
    y_min: float = -math.inf
    y_max: float = math.inf
    exclude_radius: float = 0.0
    constraints: tuple = ()

    def factors(self):
        """The fields that are each positive exactly on the domain: the
        finite bounds, the disc, then the constraints."""
        out = []
        if math.isfinite(self.x_min):
            out.append(expr.X - self.x_min)
        if math.isfinite(self.x_max):
            out.append(self.x_max - expr.X)
        if math.isfinite(self.y_min):
            out.append(expr.Y - self.y_min)
        if math.isfinite(self.y_max):
            out.append(self.y_max - expr.Y)
        if self.exclude_radius > 0.0:
            out.append(expr.X * expr.X + expr.Y * expr.Y
                       - self.exclude_radius ** 2)
        return tuple(out) + self.constraints


@dataclass
class VectorField:
    name: str
    vx: ScalarField
    vy: ScalarField


class _Runtime:
    """Compiled evaluators attached to one chart.

    christoffel, curvature and in_domain are the standalone evaluators.
    source() writes trees built over the chart's fields as source lines;
    christoffel, curvature and the DOP853 steps of the flow module are
    compiled from it through compile() and kept in compiled, by name.
    """

    def __init__(self, chart):
        self.coeffs = expr.compile_fields([chart.g11, chart.g12, chart.g22])
        self._chart = chart
        self.compiled = {}

        dom = chart.domain
        cons_fn = (expr.compile_fields(list(dom.constraints))
                   if dom.constraints else None)
        x_min, x_max = dom.x_min, dom.x_max
        y_min, y_max = dom.y_min, dom.y_max
        r2 = self.exclude_r2 = dom.exclude_radius ** 2

        def in_domain(x, y):
            if not (x_min < x < x_max and y_min < y < y_max):
                return False
            if r2 > 0.0 and x * x + y * y <= r2:
                return False
            if cons_fn is not None:
                try:
                    values = cons_fn(x, y)
                except expr.EVAL_ERRORS:
                    return False
                for c in values:
                    if not (c > 0.0 and math.isfinite(c)):
                        return False
            return True

        self.in_domain = in_domain

    def _fields(self, curvature):
        """The chart's fields by name over _CHRISTOFFEL and det, with the
        curvature also kq; each is taken once.

        kq is the determinant formula for the Gaussian curvature in E, F,
        G and their first and second derivatives, valid for either
        signature; its terms 0.5 Ev, Fu - 0.5 Ev and the like are the
        nodes the Christoffel symbols are built from.
        """
        c = self._chart
        E, F, G = c.g11, c.g12, c.g22
        Eu, Ev, Fu, Fv, Gu, Gv = (f.diff(v) for f in (E, F, G) for v in "xy")
        det = E * G - F * F
        i11, i12, i22 = G / det, -F / det, E / det
        b111, b121, b122, b222 = 0.5 * Eu, 0.5 * Ev, 0.5 * Gu, 0.5 * Gv
        b112, b221 = Fu - b121, Fv - b122
        table = dict(E=E, F=F, G=G, det=det,
                     a=i11 * b111 + i12 * b112, b=i11 * b121 + i12 * b122,
                     c=i11 * b221 + i12 * b222, d=i12 * b111 + i22 * b112,
                     e=i12 * b121 + i22 * b122, f=i12 * b221 + i22 * b222)
        if curvature:
            aa = -0.5 * Ev.diff("y") + Fu.diff("y") - 0.5 * Gu.diff("x")
            m1 = (aa * det - b111 * (b221 * G - F * 0.5 * Gv)
                  + b112 * (b221 * F - E * 0.5 * Gv))
            m2 = (-0.5 * Ev * (b121 * G - F * 0.5 * Gu)
                  + b122 * (b121 * F - E * 0.5 * Gu))
            table["kq"] = (m1 - m2) / (det * det)
        return table

    def source(self, build, curvature=False):
        """(lines, outs): source lines that evaluate, at the point (x, y),
        the fields build(table) returns, and one expression per field,
        valid after the lines.  table maps names to the chart's fields (see
        _fields), kq among them with curvature.

        The fields are emitted as one bundle, so a term that a constant
        entry kills is folded away when the fields are built, and a node
        they share is computed once.  With curvature the lines first set
        E, F, G and det and raise DegenerateMetricError where the metric
        degenerates.
        """
        table = self._fields(curvature)
        fields = list(build(table))
        if not curvature:
            return expr.emit(fields)
        lines, outs = expr.emit(
            [table[n] for n in _GUARDED] + fields,
            _GUARDED + (None,) * len(fields))
        at = 1 + max(i for i, line in enumerate(lines)
                     if line.split(" = ", 1)[0] in _GUARDED)
        return lines[:at] + _GUARD + lines[at:], outs[len(_GUARDED):]

    def compile(self, src, name, filename, **names):
        """The function defined by source that uses source() lines."""
        return expr.compile_function(
            src, name, filename, max=max,
            DegenerateMetricError=DegenerateMetricError, **names)

    def _evaluator(self, name, build, result, curvature=False):
        """name(x, y) -> result % the outs of source(build, curvature),
        compiled and kept in compiled."""
        lines, outs = self.source(build, curvature)
        body = "".join("    %s\n" % line for line in lines)
        self.compiled[name] = fn = self.compile(
            "def %s(x, y):\n%s    return %s\n"
            % (name, body, result % ", ".join(outs)),
            name, "<geoproj.metric %s>" % name)
        return fn

    def christoffel(self, x, y):
        """Returns (E, F, G, G^1_11, G^1_12, G^1_22, G^2_11, G^2_12, G^2_22)
        from one function, compiled on the first call."""
        fn = self.compiled.get("christoffel") or self._evaluator(
            "christoffel", lambda t: [t[n] for n in _CHRISTOFFEL], "(%s,)")
        return fn(x, y)

    def curvature(self, x, y):
        """The Gaussian curvature from one function, compiled on the first
        call."""
        fn = self.compiled.get("curvature") or self._evaluator(
            "curvature", lambda t: [t["kq"]], "%s", curvature=True)
        return fn(x, y)


@dataclass
class MetricChart:
    """A metric in one coordinate chart.

    sample_box is the rectangle used for validation grids and random state
    sampling; it should sit inside the honest part of the domain.  periods
    records coordinate periodicity (or None) per axis, used when comparing
    points for geodesic closure.
    """

    name: str
    g11: ScalarField
    g12: ScalarField
    g22: ScalarField
    domain: Domain
    signature: Signature
    sample_box: tuple
    periods: tuple = (None, None)
    _runtime: Optional[_Runtime] = dc_field(default=None, repr=False, compare=False)

    def runtime(self):
        if self._runtime is None:
            self._runtime = _Runtime(self)
        return self._runtime

    def coefficients_at(self, point):
        x, y = point
        return self.runtime().coeffs(x, y)

    def det_at(self, point):
        E, F, G = self.coefficients_at(point)
        return E * G - F * F

    def grid_points(self, n=8):
        """Deterministic in-domain grid drawn from the sample box."""
        xa, xb, ya, yb = self.sample_box
        xs = np.linspace(xa, xb, n + 2)[1:-1]
        ys = np.linspace(ya, yb, n + 2)[1:-1]
        dom = self.runtime().in_domain
        pts = [(float(x), float(y)) for x in xs for y in ys if dom(x, y)]
        if len(pts) < 4:
            raise DomainError(
                "sample box of chart %r misses its domain" % (self.name,))
        return pts

    def validate(self, n=8):
        """Check nondegeneracy and the signature tag on a sampled grid."""
        want = 1.0 if self.signature == Signature.RIEMANNIAN else -1.0
        for (x, y) in self.grid_points(n):
            E, F, G = self.runtime().coeffs(x, y)
            det = E * G - F * F
            if _degenerate(det, E, F, G):
                raise DegenerateMetricError(
                    "chart %r degenerate at (%g, %g): det=%g"
                    % (self.name, x, y, det))
            if det * want <= 0.0:
                raise SignatureError(
                    "chart %r tagged %s but det(%g, %g) = %g"
                    % (self.name, self.signature.value, x, y, det))
        return self


@dataclass
class ChartMap:
    """A smooth map between plane charts, with symbolic components."""

    name: str
    fx: ScalarField
    fy: ScalarField
    inverse: Optional["ChartMap"] = None
    _jac: Optional[Callable] = dc_field(default=None, repr=False, compare=False)

    def apply(self, point):
        x, y = point
        return (self.fx(x, y), self.fy(x, y))

    def jacobian(self, point):
        if self._jac is None:
            self._jac = expr.compile_fields(
                [self.fx.diff("x"), self.fx.diff("y"),
                 self.fy.diff("x"), self.fy.diff("y")])
        x, y = point
        a, b, c, d = self._jac(x, y)
        return np.array([[a, b], [c, d]])


def gaussian_curvature_limit(chart, base, direction):
    """Extrapolated curvature limit approaching base along direction.

    Evaluates K at base + s * direction for s = 2e-2, 1e-2, 5e-3, 2.5e-3
    and removes the leading error terms by polynomial extrapolation to
    s = 0.  Useful where the coefficient fields degenerate on a curve
    through base.
    """
    xs = [2e-2, 1e-2, 5e-3, 2.5e-3]
    ys = [gaussian_curvature(chart, (base[0] + s * direction[0],
                                     base[1] + s * direction[1]))
          for s in xs]
    table = list(ys)
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            table[i] = ((0.0 - xs[i + level]) * table[i]
                        - (0.0 - xs[i]) * table[i + 1]) / (xs[i] - xs[i + level])
    return table[0]


def metric_eval(chart, point, v):
    """g(v, v) at the point."""
    E, F, G = chart.coefficients_at(point)
    a, b = v
    return E * a * a + F * (a * b + b * a) + G * b * b


def christoffel(chart, point):
    """Christoffel symbols as an array indexed [k, i, j]."""
    x, y = point
    _, _, _, a, b, c, d, e, f = chart.runtime().christoffel(x, y)
    return np.array([[[a, b], [b, c]], [[d, e], [e, f]]])


def gaussian_curvature(chart, point):
    x, y = point
    return chart.runtime().curvature(x, y)


def classify(chart, point, v):
    """Causal class of the tangent vector v at the point.

    The lightlike band is |g(v,v)| <= tol, where tol scales with the local
    coefficient magnitude and |v|^2 so the answer is invariant under
    rescaling v.
    """
    E, F, G = chart.coefficients_at(point)
    w = E * v[0] * v[0] + 2.0 * F * v[0] * v[1] + G * v[1] * v[1]
    scale = max(abs(E), abs(F), abs(G)) * (v[0] * v[0] + v[1] * v[1])
    tol = 1e-9 * (scale if scale > 0.0 else 1.0)
    if w > tol:
        return CausalClass.SPACELIKE
    if w < -tol:
        return CausalClass.TIMELIKE
    return CausalClass.LIGHTLIKE


_ZERO = expr.const(0.0)


def pullback_form(cmap, q11, q12, q22, l1=_ZERO, l2=_ZERO, c=_ZERO):
    """The fiber polynomial q(v, v) + l . v + c pulled back along cmap.

    Returns the six coefficient fields (q11, q12, q22, l1, l2, c) of
    q(J v, J v) + l . J v + c, each composed with cmap, where J is the
    Jacobian of cmap: the chain rule on the fibers.  With l and c zero it
    pulls back a symmetric 2-form, such as a metric.
    """
    a, b = cmap.fx, cmap.fy
    ax, ay = a.diff("x"), a.diff("y")
    bx, by = b.diff("x"), b.diff("y")
    q11, q12, q22, l1, l2, c = expr.substitute(
        [q11, q12, q22, l1, l2, c], a, b)
    return (q11 * ax * ax + 2.0 * q12 * ax * bx + q22 * bx * bx,
            q11 * ax * ay + q12 * (ax * by + ay * bx) + q22 * bx * by,
            q11 * ay * ay + 2.0 * q12 * ay * by + q22 * by * by,
            l1 * ax + l2 * bx,
            l1 * ay + l2 * by,
            c)


def pullback(chart, cmap, name=None):
    """The pullback metric cmap^* g as a new chart.

    Coefficients are exact symbolic compositions; the domain is the
    preimage of the chart domain.
    """
    p11, p12, p22, _, _, _ = pullback_form(cmap, chart.g11, chart.g12,
                                           chart.g22)
    factors = chart.domain.factors()
    dom = Domain(constraints=tuple(expr.substitute(factors, cmap.fx, cmap.fy))
                 if factors else ())

    if cmap.inverse is not None:
        ix, iy = cmap.inverse.fx, cmap.inverse.fy
        xa, xb, ya, yb = chart.sample_box
        corners = [(xa, ya), (xa, yb), (xb, ya), (xb, yb)]
        pre = [(ix(*c), iy(*c)) for c in corners]
        xs = [p[0] for p in pre]
        ys = [p[1] for p in pre]
        box = (min(xs), max(xs), min(ys), max(ys))
    else:
        box = chart.sample_box

    out = MetricChart(
        name=name or "%s@%s" % (chart.name, cmap.name),
        g11=p11, g12=p12, g22=p22,
        domain=dom, signature=chart.signature,
        sample_box=box, periods=(None, None))
    return out.validate(n=5)


def lie_derivative_fields(chart, k):
    """Components of the Lie derivative of the metric along the vector field k."""
    E, F, G = chart.g11, chart.g12, chart.g22
    kx, ky = k.vx, k.vy
    kxx, kxy = kx.diff("x"), kx.diff("y")
    kyx, kyy = ky.diff("x"), ky.diff("y")
    l11 = kx * E.diff("x") + ky * E.diff("y") + 2.0 * (E * kxx + F * kyx)
    l12 = (kx * F.diff("x") + ky * F.diff("y")
           + F * kxx + G * kyx + E * kxy + F * kyy)
    l22 = kx * G.diff("x") + ky * G.diff("y") + 2.0 * (F * kxy + G * kyy)
    return l11, l12, l22


def killing_residual(chart, k):
    """Max sampled Lie-derivative magnitude, relative to the coefficient scale."""
    l11, l12, l22 = lie_derivative_fields(chart, k)
    fn = expr.compile_fields([l11, l12, l22, chart.g11, chart.g12, chart.g22,
                              k.vx, k.vy])
    worst = 0.0
    for (x, y) in chart.grid_points():
        a, b, c, E, F, G, kx, ky = fn(x, y)
        scale = max(abs(E), abs(F), abs(G)) * max(1.0, abs(kx), abs(ky))
        worst = max(worst, max(abs(a), abs(b), abs(c)) / max(scale, 1e-300))
    return worst


# -- serialization ------------------------------------------------------------

def chart_to_dict(chart):
    """The chart as a JSON-ready dictionary.  The domain's constraints are
    written as one expression text when there is one, as a list of texts
    when there are several, and as null when there are none."""
    dom = chart.domain
    texts = [expr.to_prefix(c) for c in dom.constraints]
    return {
        "schema": 1,
        "name": chart.name,
        "signature": chart.signature.value,
        "coefficients": {
            "g11": expr.to_prefix(chart.g11),
            "g12": expr.to_prefix(chart.g12),
            "g22": expr.to_prefix(chart.g22),
        },
        "domain": {
            "x_min": None if not math.isfinite(dom.x_min) else dom.x_min,
            "x_max": None if not math.isfinite(dom.x_max) else dom.x_max,
            "y_min": None if not math.isfinite(dom.y_min) else dom.y_min,
            "y_max": None if not math.isfinite(dom.y_max) else dom.y_max,
            "exclude_radius": dom.exclude_radius,
            "constraint": texts[0] if len(texts) == 1 else texts or None,
        },
        "sample_box": list(chart.sample_box),
        "periods": list(chart.periods),
    }


def chart_from_dict(data):
    """The chart a chart_to_dict dictionary describes.  A malformed entry
    raises DomainError naming it (an unknown signature ValueError, a
    missing entry KeyError)."""
    def need(ok, key, what):
        if not ok:
            raise DomainError("chart field %r must be %s" % (key, what))

    def number(value, key, missing=None):
        if value is None and missing is not None:
            return missing
        try:
            return float(value)
        except (TypeError, ValueError):
            raise DomainError("chart field %r must be a number, got %r"
                              % (key, value)) from None

    # one parser for every text, so a subexpression the texts repeat
    # becomes one node again, computed once in the chart's bundles
    parse = expr.prefix_parser()

    def field(value, key):
        need(isinstance(value, str), key, "expression text")
        try:
            return parse(value)
        except expr.ExpressionError as err:
            raise DomainError("chart field %r: %s" % (key, err)) from None

    if not isinstance(data, dict):
        raise DomainError("a chart must be a JSON object")
    if data.get("schema") != 1:
        raise DomainError("unsupported chart schema: %r" % (data.get("schema"),))
    co, dd = data.get("coefficients"), data.get("domain", {})
    box, periods = data.get("sample_box"), data.get("periods", [None, None])
    need(isinstance(co, dict), "coefficients", "a JSON object")
    need(isinstance(dd, dict), "domain", "a JSON object")
    need(isinstance(box, list) and len(box) == 4, "sample_box",
         "a list of 4 numbers")
    need(isinstance(periods, list) and len(periods) == 2, "periods",
         "a list of 2 entries")
    cons = dd.get("constraint")
    cons = cons if isinstance(cons, list) else [] if cons is None else [cons]
    radius = number(dd.get("exclude_radius", 0.0), "exclude_radius")
    need(0.0 <= radius < math.inf, "exclude_radius", "finite and >= 0")
    periods = tuple(None if v is None else number(v, "periods")
                    for v in periods)
    need(all(p is None or 0.0 < p < math.inf for p in periods), "periods",
         "null or positive and finite")
    dom = Domain(
        x_min=number(dd.get("x_min"), "x_min", -math.inf),
        x_max=number(dd.get("x_max"), "x_max", math.inf),
        y_min=number(dd.get("y_min"), "y_min", -math.inf),
        y_max=number(dd.get("y_max"), "y_max", math.inf),
        exclude_radius=radius,
        constraints=tuple(field(c, "constraint") for c in cons),
    )
    chart = MetricChart(
        name=data["name"],
        g11=field(co["g11"], "g11"),
        g12=field(co["g12"], "g12"),
        g22=field(co["g22"], "g22"),
        domain=dom,
        signature=Signature(data["signature"]),
        sample_box=tuple(number(v, "sample_box") for v in box),
        periods=periods,
    )
    return chart.validate(n=5)
