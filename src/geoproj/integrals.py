"""First integrals of geodesic flows on the fibers of the tangent bundle.

A fiber integral is polynomial of degree two in the velocity,

    I(p, v) = Q(p)(v, v) + L(p) . v + c(p),

stored as six coefficient fields.  The module builds the classical examples
(energy, the Clairaut integral of a Killing field, the degree-two integral
attached to a projectively equivalent pair through the 2/3 power of the
determinant ratio, separable integrals of Liouville metrics) and checks
conservation along sampled geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import expr, sampling
from .expr import ScalarField
from .flow import DROP_REASONS, integrate_geodesic
from .metric import (_ZERO, MetricChart, Signature, killing_residual,
                     pullback_form)

__all__ = [
    "FiberIntegral", "KillingFieldError", "DegenerateRatioError",
    "ConservationReport", "energy_integral", "clairaut_integral",
    "darboux_integral", "liouville_integral", "liouville_integral_printed",
    "integral_pullback", "metric_from_quadratic_integral",
    "check_conservation",
]


class KillingFieldError(ValueError):
    """The supplied vector field is not a Killing field of the metric."""


class DegenerateRatioError(ValueError):
    """The determinant ratio of a metric pair collapses on the sample grid."""



@dataclass
class FiberIntegral:
    """Velocity-quadratic function on the tangent bundle."""

    name: str
    q11: ScalarField = _ZERO
    q12: ScalarField = _ZERO
    q22: ScalarField = _ZERO
    l1: ScalarField = _ZERO
    l2: ScalarField = _ZERO
    c: ScalarField = _ZERO
    _fn: Optional[object] = dc_field(default=None, repr=False, compare=False)

    def _compiled(self):
        if self._fn is None:
            self._fn = expr.compile_fields(
                [self.q11, self.q12, self.q22, self.l1, self.l2, self.c])
        return self._fn

    def value(self, point, v):
        x, y = point
        q11, q12, q22, l1, l2, c = self._compiled()(x, y)
        return (q11 * v[0] * v[0] + 2.0 * q12 * v[0] * v[1] + q22 * v[1] * v[1]
                + l1 * v[0] + l2 * v[1] + c)

    def along(self, trace):
        """The integral at every row of the trace, as an array."""
        value = self.value
        return np.array([value((x, y), (vx, vy))
                         for x, y, vx, vy in trace.ys[:, :4].tolist()])

    def __add__(self, other):
        if not isinstance(other, FiberIntegral):
            return NotImplemented
        return FiberIntegral(
            "(%s + %s)" % (self.name, other.name),
            self.q11 + other.q11, self.q12 + other.q12, self.q22 + other.q22,
            self.l1 + other.l1, self.l2 + other.l2, self.c + other.c)

    def scaled(self, factor):
        k = expr.const(float(factor))
        return FiberIntegral(
            "%g*%s" % (factor, self.name),
            k * self.q11, k * self.q12, k * self.q22,
            k * self.l1, k * self.l2, k * self.c)

    def squared_linear(self):
        """For a purely linear integral L.v, the quadratic (L.v)^2."""
        return FiberIntegral(
            "%s^2" % self.name,
            q11=self.l1 * self.l1, q12=self.l1 * self.l2, q22=self.l2 * self.l2)


def energy_integral(chart):
    """The metric itself as a fiber integral: I(v) = g(v, v)."""
    return FiberIntegral("energy", q11=chart.g11, q12=chart.g12, q22=chart.g22)


def clairaut_integral(chart, k):
    """The linear integral C(v) = g(K, v) of a Killing field K.

    The sampled Lie-derivative residual of K must stay below 1e-8;
    otherwise C is not conserved and the construction refuses to pretend
    it is.
    """
    res = killing_residual(chart, k)
    if res > 1e-8:
        raise KillingFieldError(
            "field %r has Killing residual %.3g on chart %r"
            % (k.name, res, chart.name))
    l1 = chart.g11 * k.vx + chart.g12 * k.vy
    l2 = chart.g12 * k.vx + chart.g22 * k.vy
    return FiberIntegral("clairaut[%s]" % k.name, l1=l1, l2=l2)


def darboux_integral(g, gbar):
    """The degree-two integral attached to a candidate projective pair.

    I(v) = (det g / det gbar)^(2/3) gbar(v, v), with the 2/3 power taken
    through the real cube root so mixed-signature pairs stay admissible.
    Raises DegenerateRatioError when the ratio, sampled on the 6 x 6 grid of
    g's sample box, collapses toward zero (relative to its own largest
    sampled magnitude), since the integral then degenerates along the flow.
    """
    det_g = g.g11 * g.g22 - g.g12 * g.g12
    det_b = gbar.g11 * gbar.g22 - gbar.g12 * gbar.g12
    ratio = det_g / det_b

    pts = [p for p in g.grid_points(6) if gbar.runtime().in_domain(*p)]
    vals = []
    for p in pts:
        try:
            vals.append(abs(expr.evaluate(ratio, p)))
        except expr.EvaluationError:
            continue
    if len(vals) < 3:
        raise DegenerateRatioError(
            "determinant ratio of %r and %r cannot be sampled on a shared grid"
            % (g.name, gbar.name))
    lo, hi = min(vals), max(vals)
    if lo < 1e-300 or lo < 1e-9 * hi:
        raise DegenerateRatioError(
            "determinant ratio of %r and %r collapses on the sample grid "
            "(min %.3g, max %.3g)" % (g.name, gbar.name, lo, hi))

    w = expr.pow23(ratio)
    return FiberIntegral("pair-integral[%s|%s]" % (g.name, gbar.name),
                         q11=w * gbar.g11, q12=w * gbar.g12, q22=w * gbar.g22)


def metric_from_quadratic_integral(chart, integral, name=None):
    """Partner metric induced by a purely quadratic integral of the flow.

    If J(v) = Q(v, v) is conserved along the geodesics of g, the matrix
    (det g / det Q)^2 Q is the one metric candidate whose degree-two pair
    integral against g recovers J.  The coefficients are built symbolically
    on the domain and sample box of g.  The signature tag is read off the
    determinant sign at the first point of the sample grid; validate()
    then raises SignatureError where another grid point disagrees.
    """
    for part, label in ((integral.l1, "l1"), (integral.l2, "l2"),
                        (integral.c, "c")):
        if not (isinstance(part, expr.Const) and part.value == 0.0):
            raise ValueError(
                "integral %r carries a nonzero %s term; only purely "
                "quadratic integrals induce a partner metric"
                % (integral.name, label))

    det_g = chart.g11 * chart.g22 - chart.g12 * chart.g12
    det_q = (integral.q11 * integral.q22 - integral.q12 * integral.q12)
    ratio = det_g / det_q
    w = ratio * ratio
    g11, g12, g22 = w * integral.q11, w * integral.q12, w * integral.q22

    out = MetricChart(name or ("partner[%s]" % integral.name),
                      g11, g12, g22, chart.domain, Signature.RIEMANNIAN,
                      chart.sample_box, periods=chart.periods)
    if not out.det_at(out.grid_points()[0]) > 0.0:
        out.signature = Signature.LORENTZIAN
    return out.validate()


def liouville_integral(h1, h2, sign=1):
    """Separable integral of (h1(x) + h2(y)) (dx^2 + sign dy^2).

    I0(v) = (h1 + h2) (h2 vx^2 - sign h1 vy^2); together with the energy it
    makes the flow integrable wherever the pair of fields is nondegenerate.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s = h1 + h2
    return FiberIntegral("liouville-integral",
                         q11=s * h2, q22=(-float(sign)) * s * h1)


def liouville_integral_printed(h1, h2, sign=1):
    """A commonly misprinted variant with the roles of h1, h2 swapped.

    Kept only so the liouville-variants identity (zoo.IDENTITIES) can
    demonstrate that it drifts.  Here h1 is evaluated on y and h2 on x.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s = h1 + h2
    # h1 is a field of x; evaluate it on y instead (and h2 on x)
    h1y = expr.substitute(h1, expr.Y, expr.X)
    h2x = expr.substitute(h2, expr.Y, expr.X)
    return FiberIntegral("liouville-integral-printed",
                         q11=s * h1y, q22=(-float(sign)) * s * h2x)


def integral_pullback(integral, cmap, name=None):
    """Precompose a fiber integral with a chart map (chain rule on fibers)."""
    return FiberIntegral(
        name or "%s@%s" % (integral.name, cmap.name),
        *pullback_form(cmap, integral.q11, integral.q12, integral.q22,
                       integral.l1, integral.l2, integral.c))


@dataclass
class ConservationReport:
    chart: str
    integral: str
    n_samples: int
    n_used: int
    dropped: dict    # drop reason -> number of traces, see DROP_REASONS
    seed: int
    t_max: float
    tol: float
    max_drift: float
    passed: bool

    def to_json_dict(self):
        return {
            "schema": 1,
            "chart": self.chart,
            "integral": self.integral,
            "n_samples": self.n_samples,
            "n_used": self.n_used,
            "dropped": self.dropped,
            "seed": self.seed,
            "t_max": self.t_max,
            "tol": self.tol,
            "max_drift": self.max_drift,
            "pass": self.passed,
        }


def check_conservation(chart, integral, n_samples=20, t_max=1.0, seed=None,
                       tol=1e-6):
    """Drift of the integral along sampled geodesics, per unit parameter.

    Each trace contributes max_t |I(t) - I(0)| / (scale * elapsed), with the
    scale set by |I(0)| (floored at 1e-3 so near-null values do not inflate
    the statistic).  A trace with a GeodesicTrace.drop_reason is left out
    of the statistic, and the report counts the dropped traces per reason.
    """
    seed = sampling.resolve_seed(seed)
    rng = np.random.default_rng(seed)
    states = sampling.sample_states(chart, n_samples, rng)
    drifts = []
    dropped = dict.fromkeys(DROP_REASONS, 0)
    for s in states:
        trace = integrate_geodesic(chart, s, t_max)
        why = trace.drop_reason
        if why is not None:
            dropped[why] += 1
            continue
        elapsed = trace.length
        vals = integral.along(trace)
        scale = max(abs(vals[0]), 1e-3)
        drifts.append(float(np.max(np.abs(vals - vals[0])) / (scale * elapsed)))
    max_drift = max(drifts) if drifts else math.inf
    return ConservationReport(
        chart=chart.name, integral=integral.name, n_samples=n_samples,
        n_used=len(drifts), dropped=dropped, seed=seed, t_max=t_max, tol=tol,
        max_drift=max_drift, passed=bool(drifts) and max_drift <= tol)
