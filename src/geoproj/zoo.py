"""Catalogue of surface metrics with matched integrals and symmetry data.

Every constructor returns validated charts built from symbolic coefficient
fields, together with whatever structure makes the chart interesting: a
Killing field, a projective partner, a distinguished map.  The catalogue()
table at the bottom is what the command line interface exposes; the
IDENTITIES table holds the closed-form identity checks that `geoproj
verify` and the acceptance criteria run.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np

from . import expr
from .expr import X, Y, ScalarField
from .integrals import (FiberIntegral, check_conservation, clairaut_integral,
                        energy_integral, liouville_integral,
                        liouville_integral_printed,
                        metric_from_quadratic_integral)
from .metric import ChartMap, Domain, MetricChart, Signature, VectorField
from .sampling import resolve_seed

__all__ = [
    "ZooError", "ZooBundle", "ZooEntry", "TruncationBundle", "ShiftBundle",
    "clifton_pohl", "band_chart", "punctured_plane_family",
    "rescaling_matrices", "rescaling_identity_residual",
    "sample_rescaling_identity",
    "tannery_chart", "tannery_deformed", "tannery_reparam_x",
    "tannery_reparam_residual",
    "clairaut_truncation", "projective_shift",
    "shift_relation_residual", "sample_shift_relation", "shift_seam_residual",
    "liouville_profiles", "liouville_chart",
    "Identity", "IDENTITIES", "catalogue", "build_bundle",
]


class ZooError(ValueError):
    """Raised when catalogue parameters leave their valid range."""


def _sampled_bounds(field, xs, ys=(0.0,)):
    """(min, max) of the field over the grid xs x ys: the constructors check
    the sign of a profile or a denominator on these samples."""
    vals = [expr.evaluate(field, (float(x), float(y))) for x in xs for y in ys]
    return min(vals), max(vals)


# ---------------------------------------------------------------------------
# null coordinate metric on the punctured plane


def clifton_pohl():
    """The Lorentzian metric 2 dx dy / (x^2 + y^2) off the origin.

    Geodesically incomplete: the lightlike axes carry geodesics that blow up
    in finite parameter.  Returns the chart and its radial Killing field.
    """
    s = 1.0 / (X * X + Y * Y)
    chart = MetricChart(
        name="clifton-pohl", g11=expr.const(0.0), g12=s,
        g22=expr.const(0.0), domain=Domain(exclude_radius=1e-6),
        signature=Signature.LORENTZIAN,
        sample_box=(-2.0, 2.0, -2.0, 2.0)).validate()
    return chart, VectorField("radial", X, Y)


def punctured_plane_family(a=1.0, l=0.5):
    """Two-parameter family of metrics sharing geodesics with clifton_pohl.

    Scales the base energy by a, adds l times the squared radial Clairaut
    integral, and converts the combined quadratic integral back into a
    metric.  Nondegeneracy needs |l| < |a|; the pair (1, 0) reproduces the
    base metric itself.
    """
    a, l = float(a), float(l)
    if a == 0.0 or abs(l) >= abs(a):
        raise ZooError("need a != 0 and |l| < |a|, got a=%g, l=%g" % (a, l))
    base, k = clifton_pohl()
    c = clairaut_integral(base, k)
    j = energy_integral(base).scaled(a) + c.squared_linear().scaled(l)
    chart = metric_from_quadratic_integral(
        base, j, name="punctured-family[a=%g,l=%g]" % (a, l))
    return chart, k


# ---------------------------------------------------------------------------
# Lorentzian strips with a vertical Killing field


def band_chart(f=None, a=1.0, l=0.0):
    """Strip metric with Killing field d/dy built from the profile f(x).

    Coefficients a*l/(1+l f)^2 dx^2 + 2a/(1+l f) dx dy + a f/(1+l f) dy^2.
    The member (a, l) = (1, 0) is the normal form 2 dx dy + f dy^2; all
    members with the same f share their unparametrised geodesics.
    """
    a, l = float(a), float(l)
    if a == 0.0:
        raise ZooError("band parameter a must be nonzero")
    if f is None:
        f = expr.sin(math.pi * X) ** 2
    d = 1.0 + l * f

    box = (0.0, 1.0, 0.0, 1.0)
    lo, hi = _sampled_bounds(d, np.linspace(box[0], box[1], 201))
    if lo < 1e-9 and hi > -1e-9:
        raise ZooError("1 + l*f changes sign or vanishes on the sample "
                       "interval; the strip metric degenerates")

    g11 = expr.const(a * l) / (d * d)
    g12 = expr.const(a) / d
    g22 = (expr.const(a) * f) / d
    # det = -a^2 / (1 + l f)^3, so the causal type follows the denominator
    sig = Signature.LORENTZIAN if lo > 0.0 else Signature.RIEMANNIAN
    chart = MetricChart(
        name="band[a=%g,l=%g]" % (a, l), g11=g11, g12=g12, g22=g22,
        domain=Domain(), signature=sig, sample_box=box).validate()
    return chart, VectorField("translation", expr.const(0.0), expr.const(1.0))


def rescaling_matrices(a, l, z):
    """Coefficient matrix G and rank-one square Q of the strip family at f=z."""
    _check_denominator(l, z)
    g, q = _rescaling_stacks(*np.array([[a, l, z]], dtype=float).T)
    return g[0], q[0]


def _check_denominator(l, z):
    if abs(1.0 + l * z) < 1e-12:
        raise ZooError("1 + l*z vanishes at z=%g" % z)


def _rescaling_stacks(a, l, z):
    """G and Q of rescaling_matrices at each entry of the arrays a, l, z,
    stacked into two (n, 2, 2) arrays."""
    d = 1.0 + l * z
    inv = 1.0 / d
    g = a[:, None, None] * np.stack(
        [l / (d * d), inv, inv, z / d], axis=-1).reshape(-1, 2, 2)
    q = (a * a / (d * d))[:, None, None] * np.stack(
        [np.ones_like(z), z, z, z * z], axis=-1).reshape(-1, 2, 2)
    return g, q


def rescaling_identity_residual(a, l, z, mu, beta):
    """Relative residual of the strip family's closure rule.

    beta (G_{a,l} + mu Q_{a,l}) should equal
    (det G_{a,l} / det G_{b,m})^(2/3) G_{b,m}
    with b = a beta^-3 and m = l + mu a, the 2/3 power taken through the
    real cube root.  Zero residual means adding a multiple of the squared
    Clairaut integral only moves the metric around inside the family.
    """
    if a == 0.0 or beta == 0.0:
        raise ZooError("a and beta must be nonzero")
    _check_denominator(l, z)
    _check_denominator(l + mu * a, z)
    return float(_rescaling_residuals(
        np.array([[a, l, z, mu, beta]], dtype=float))[0])


def _rescaling_residuals(tuples):
    """Closure-rule residuals of the rows (a, l, z, mu, beta) of tuples."""
    a, l, z, mu, beta = tuples.T
    # Python's power, as for the cube root in _closure_residuals
    b = a * np.array([t ** -3.0 for t in beta.tolist()])
    m = l + mu * a
    g1, q1 = _rescaling_stacks(a, l, z)
    g2, _ = _rescaling_stacks(b, m, z)
    lhs = beta[:, None, None] * (g1 + mu[:, None, None] * q1)
    return _closure_residuals(lhs, g1, g2)


def _closure_residuals(lhs, g1, g2):
    """Relative gap between lhs and (det g1 / det g2)^(2/3) g2, the right
    side of both closure rules, with the real cube root; each argument is
    a stack of 2x2 matrices, and so is the answer a stack of gaps.

    The cube root and its square are taken one element at a time in
    Python: np.cbrt and np.power round differently from it on some
    inputs, and the residuals are kept bit for bit.
    """
    ratio = np.linalg.det(g1) / np.linalg.det(g2)
    w = np.array([expr._cbrt(v) ** 2 for v in ratio.tolist()])
    rhs = w[:, None, None] * g2
    scale = np.maximum(np.maximum(np.abs(lhs).max(axis=(1, 2)),
                                  np.abs(rhs).max(axis=(1, 2))), 1e-30)
    return np.abs(lhs - rhs).max(axis=(1, 2)) / scale


# the sampler draws and scores its tuples this many at a time
_RESCALING_BLOCK = 2048
_RESCALING_HIGH = np.array([3.0, 2.0, 2.0, 2.0, 3.0])     # a, l, z, mu, beta


def sample_rescaling_identity(n=1000, seed=None):
    """Worst residual of the closure rule over n random admissible tuples.

    Tuples keep |a|, |beta| >= 0.05 and both denominators 1 + l z, 1 + m z
    at least 0.05 in magnitude, so the residual is measured away from the
    family's own degeneracies.  Returns (max residual, worst tuple), the
    first worst tuple drawn if several tie.

    The tuples are drawn in blocks of _RESCALING_BLOCK rows, five draws
    (a, l, z, mu, beta) per row in that order, so the generator yields the
    same tuples as one draw at a time would.  The admissible ones of a
    block are scored together on stacked arrays, with numpy's elementwise
    arithmetic and one stacked determinant; beta^-3 and the cube root stay
    Python's power per element, because numpy's rounds differently on
    some inputs (see _closure_residuals).
    """
    rng = np.random.default_rng(resolve_seed(seed))
    worst, worst_tuple = 0.0, None
    used = 0
    while used < n:
        block = rng.uniform(-_RESCALING_HIGH, _RESCALING_HIGH,
                            size=(_RESCALING_BLOCK, 5))
        a, l, z, mu, beta = block.T
        kept = block[(np.abs(a) >= 0.05) & (np.abs(beta) >= 0.05)
                     & (np.abs(1.0 + l * z) >= 0.05)
                     & (np.abs(1.0 + (l + mu * a) * z) >= 0.05)][:n - used]
        used += len(kept)
        r = _rescaling_residuals(kept)
        i = int(np.argmax(r))
        if r[i] > worst:
            worst, worst_tuple = float(r[i]), tuple(kept[i].tolist())
    return worst, worst_tuple


# ---------------------------------------------------------------------------
# rotation surfaces and their Clairaut-square deformation


def _tannery_profile(c, h):
    """Radial profile c + h(cos r) as a field of r, with sanity checks."""
    c = float(c)
    if c <= 0.0:
        raise ZooError("profile constant must be positive")
    if h is None:
        h = expr.const(0.0)
    for s in np.linspace(0.0, 1.0, 21):
        plus = expr.evaluate(h, (float(s), 0.0))
        minus = expr.evaluate(h, (float(-s), 0.0))
        if abs(plus + minus) > 1e-9 * max(1.0, abs(plus)):
            raise ZooError("h must be an odd function on [-1, 1]")
    prof = c + expr.substitute(h, expr.cos(X), Y)
    lo, _ = _sampled_bounds(prof, np.linspace(1e-3, math.pi - 1e-3, 211))
    if lo < 1e-9:
        raise ZooError("profile c + h(cos r) must stay positive")
    return prof


def tannery_chart(c=1.0, h=None):
    """Rotation surface (c + h(cos r))^2 dr^2 + sin^2 r dtheta^2.

    h odd keeps the poles smooth; h = 0 and c = 1 give the round sphere.
    For rational c every geodesic is closed, which is what the closure
    tests downstream rely on.
    """
    prof = _tannery_profile(c, h)
    chart = MetricChart(
        name="tannery", g11=prof * prof, g12=expr.const(0.0),
        g22=expr.sin(X) ** 2,
        domain=Domain(x_min=0.0, x_max=math.pi),
        signature=Signature.RIEMANNIAN,
        sample_box=(0.35, math.pi - 0.35, 0.0, 2.0 * math.pi),
        periods=(None, 2.0 * math.pi)).validate()
    return chart, VectorField("rotation", expr.const(0.0), expr.const(1.0))


def tannery_deformed(c=1.0, h=None, l=-2.0):
    """Clairaut-square deformation of the rotation surface.

    Coefficients -E/(1+l S)^2 dr^2 - S/(1+l S) dtheta^2 with S = sin^2 r.
    For l < -1 the chart lives on the band where 1 + l S < 0 and is
    Lorentzian; for l > -1 it is negative definite on the full strip.
    l = 0 returns the negative of the undeformed metric.
    """
    l = float(l)
    prof = _tannery_profile(c, h)
    e = prof * prof
    s = expr.sin(X) ** 2
    d = 1.0 + l * s
    g11 = -(e / (d * d))
    g22 = -(s / d)
    if l > -1.0 + 1e-12:
        dom = Domain(x_min=0.0, x_max=math.pi)
        sig = Signature.RIEMANNIAN
        box = (0.35, math.pi - 0.35, 0.0, 2.0 * math.pi)
    elif l < -1.0 - 1e-12:
        r0 = math.asin(1.0 / math.sqrt(-l))
        margin = 0.1 * (math.pi - 2.0 * r0)
        dom = Domain(x_min=r0, x_max=math.pi - r0)
        sig = Signature.LORENTZIAN
        box = (r0 + margin, math.pi - r0 - margin, 0.0, 2.0 * math.pi)
    else:
        raise ZooError("l = -1 degenerates the deformation on the equator")
    chart = MetricChart(
        name="tannery-deformed[l=%g]" % l, g11=g11, g12=expr.const(0.0),
        g22=g22, domain=dom, signature=sig, sample_box=box,
        periods=(None, 2.0 * math.pi)).validate()
    return chart, VectorField("rotation", expr.const(0.0), expr.const(1.0))


def tannery_reparam_x(t):
    """Colatitude along the equatorial lightlike characteristic of the
    deformed sphere at l = -2, parametrised by t in (-inf, inf).

    Satisfies sin^2 x / (1 - 2 sin^2 x) = -cosh^2 t, increases from pi/4
    to 3 pi/4, and never reaches either band edge at finite t, which is the
    analytic reason the lightlike curve cannot close up.
    """
    t = float(t)
    sech = 1.0 / math.cosh(t)
    v = 1.0 / (2.0 - sech * sech)
    r = math.asin(math.sqrt(v))
    return r if t <= 0.0 else math.pi - r


def tannery_reparam_residual(n):
    """Worst relative residual of the characteristic curve identity
    sin^2 x / (1 - 2 sin^2 x) = -cosh^2 t on n points of t in [-5, 5]."""
    worst = 0.0
    for t in np.linspace(-5.0, 5.0, n):
        s2 = math.sin(tannery_reparam_x(t)) ** 2
        rhs = -math.cosh(t) ** 2
        worst = max(worst, abs(s2 / (1.0 - 2.0 * s2) - rhs) / abs(rhs))
    return worst


# ---------------------------------------------------------------------------
# truncation by a Killing field level set


@dataclass
class TruncationBundle:
    """Restriction of a chart to {g(K,K) < l^2} with its partner metric."""

    base: MetricChart
    partner: MetricChart
    integral: FiberIntegral


def clairaut_truncation(chart, k, l=1.0):
    """Partner metric on the region where the Killing field K is short.

    Restricts the chart to U = {g(K, K) < l^2} and converts the quadratic
    integral J = energy - clairaut^2 / l^2 into a metric there.  On the
    boundary of U the form J degenerates: a unit vector whose Clairaut
    value is +-l lies in its kernel, so the partner only exists inside U.
    """
    l = float(l)
    if l == 0.0:
        raise ZooError("the truncation level must be nonzero")
    c = clairaut_integral(chart, k)
    gkk = (chart.g11 * (k.vx * k.vx) + 2.0 * (chart.g12 * (k.vx * k.vy))
           + chart.g22 * (k.vy * k.vy))
    dom = replace(chart.domain,
                  constraints=chart.domain.constraints + (l * l - gkk,))
    base = MetricChart(
        "%s|K<%g" % (chart.name, abs(l)), chart.g11, chart.g12, chart.g22,
        dom, chart.signature, chart.sample_box,
        periods=chart.periods).validate()
    j = energy_integral(base) + c.squared_linear().scaled(-1.0 / (l * l))
    partner = metric_from_quadratic_integral(
        base, j, name="truncated[%s,l=%g]" % (chart.name, abs(l)))
    return TruncationBundle(base, partner, j)


# ---------------------------------------------------------------------------
# the strip metric with a projective, non-affine translation


@dataclass
class ShiftBundle:
    """Strip metric together with its distinguished unit translation."""

    chart: MetricChart
    tau: ChartMap
    killing: VectorField
    f: ScalarField
    a: float
    eps: float
    f_max: float
    eps_bound: float
    scale_field: ScalarField
    shear_field: ScalarField


def projective_shift(f=None, a=2.0, eps=0.5):
    """Strip metric whose unit x-translation is projective but not affine.

    The scale A(x) multiplies by a per period and the shear Lambda(x) picks
    up eps * A(x)^3 per period, both frozen on plateaus of width 0.1 around
    integer x so the seams are smooth.  f must be 1-periodic and
    nonnegative with positive maximum m; nondegeneracy on every period
    needs 0 < eps < (a^3 - 1) / (m a^3).
    """
    a, eps, w = float(a), float(eps), 0.1
    if not a > 1.0:
        raise ZooError("the growth rate a must exceed 1")
    if f is None:
        f = expr.sin(math.pi * X) ** 2

    f_min, f_max = _sampled_bounds(f, np.linspace(0.0, 1.0, 2001))
    if f_min < -1e-12:
        raise ZooError("profile f must be nonnegative")
    if f_max <= 0.0:
        raise ZooError("profile f must have positive maximum")
    bound = (a ** 3 - 1.0) / (f_max * a ** 3)
    if not 0.0 < eps < bound:
        raise ZooError("eps=%g outside the admissible interval (0, %g)"
                       % (eps, bound))

    n = expr.floor_of(X)
    u = X - n
    ramp = expr.smoothstep((u - w) / (1.0 - 2.0 * w))
    alpha = 1.0 + (a - 1.0) * ramp
    a_n = expr.exp(math.log(a) * n)
    a_3n = expr.exp(3.0 * math.log(a) * n)
    alpha3 = alpha * alpha * alpha
    scale = alpha * a_n
    shear = eps * ramp + ((1.0 - a_3n) * (eps / (1.0 - a ** 3))) * alpha3
    big_a3 = alpha3 * a_3n
    fu = expr.substitute(f, u, Y)
    den = 1.0 + shear * fu

    chart = MetricChart(
        name="projective-shift[a=%g,eps=%g]" % (a, eps),
        g11=big_a3 * shear / (den * den),
        g12=big_a3 / den,
        g22=big_a3 * fu / den,
        domain=Domain(), signature=Signature.LORENTZIAN,
        sample_box=(-2.0, 3.0, 0.0, 1.0)).validate()
    tau = ChartMap("unit-shift", X + 1.0, Y,
                   inverse=ChartMap("unit-shift-inv", X - 1.0, Y))
    k = VectorField("translation", expr.const(0.0), expr.const(1.0))
    return ShiftBundle(chart, tau, k, f, a, eps, f_max, bound, scale, shear)


def shift_relation_residual(bundle, x, n):
    """Residual of the n-period closure rule for the shift metric.

    a^-n (G(x) + eps (1 - a^3n)/(1 - a^3) Q(x)) must equal
    (det G(x) / det G(x+n))^(2/3) G(x+n), where G(x) is the coefficient
    matrix over x and Q = L L^T comes from the row L = (g12, g22) of the
    vertical Killing field.  n is an integer number of periods.
    """
    n = int(n)
    a, eps = bundle.a, bundle.eps

    def mat(t):
        e, ff, g = bundle.chart.coefficients_at((t, 0.0))
        return np.array([[e, ff], [ff, g]])

    g1 = mat(float(x))
    g2 = mat(float(x) + n)
    row = g1[1]
    q = np.outer(row, row)
    mu = eps * (1.0 - a ** (3.0 * n)) / (1.0 - a ** 3)
    lhs = a ** float(-n) * (g1 + mu * q)
    return float(_closure_residuals(lhs[None], g1[None], g2[None])[0])


def sample_shift_relation(bundle, n, seed=None):
    """Worst n-period relation residual over n random draws of a point x
    in [-2, 2) and a period count in [-2, 4)."""
    rng = np.random.default_rng(resolve_seed(seed))
    worst = 0.0
    for _ in range(n):
        x = float(rng.uniform(-2.0, 2.0))
        k = int(rng.integers(-2, 4))
        worst = max(worst, shift_relation_residual(bundle, x, k))
    return worst


def shift_seam_residual(bundle):
    """Two-sided mismatch of the scale and shear profiles at the seams.

    Compares value, first, and second x-derivative at 1e-4 on either side
    of the seams x = 0, 1, 2, 3; the plateaus should make every mismatch
    vanish outright.
    """
    delta = 1e-4
    out = 0.0
    for fld in (bundle.scale_field, bundle.shear_field):
        d1 = fld.diff("x")
        d2 = d1.diff("x")
        for x0 in (0.0, 1.0, 2.0, 3.0):
            for g in (fld, d1, d2):
                left = expr.evaluate(g, (x0 - delta, 0.0))
                right = expr.evaluate(g, (x0 + delta, 0.0))
                out = max(out, abs(left - right) / max(1.0, abs(right)))
    return out


# ---------------------------------------------------------------------------
# separable metrics


def liouville_profiles():
    """The default separable profiles h1 = 2 + sin 4 pi x, h2 = 5 - sin 4 pi y.

    Both have period 1/2, and h2(x + 1/4) = h1(x) + 3, so the swap by a
    quarter period is an isometry of the metric they define.
    """
    return (2.0 + expr.sin(4.0 * math.pi * X),
            5.0 - expr.sin(4.0 * math.pi * Y))


def liouville_chart(h1=None, h2=None, sign=1, periods=(None, None)):
    """Separable metric (h1(x) + h2(y)) (dx^2 + sign dy^2).

    Returns the chart and its quadratic separation integral.  The sum
    h1 + h2 must keep one sign on the sample box.  Missing profiles are
    the defaults of liouville_profiles().
    """
    sign = int(sign)
    if sign not in (1, -1):
        raise ZooError("sign must be +1 or -1")
    d1, d2 = liouville_profiles()
    h1 = d1 if h1 is None else h1
    h2 = d2 if h2 is None else h2
    w = h1 + h2
    box = (0.0, 1.0, 0.0, 1.0)

    lo, hi = _sampled_bounds(w, np.linspace(box[0], box[1], 21),
                             np.linspace(box[2], box[3], 21))
    if lo < 1e-9 and hi > -1e-9:
        raise ZooError("h1 + h2 changes sign or vanishes on the sample box")

    sig = Signature.LORENTZIAN if sign == -1 else Signature.RIEMANNIAN
    chart = MetricChart(
        name="liouville", g11=w, g12=expr.const(0.0),
        g22=expr.const(float(sign)) * w, domain=Domain(),
        signature=sig, sample_box=box, periods=periods).validate()
    return chart, liouville_integral(h1, h2, sign=sign)


# ---------------------------------------------------------------------------
# the closed-form identities behind the constructions


@dataclass(frozen=True)
class Identity:
    """One closed-form identity: its spot check and the tolerance it meets.

    run returns (report fields, residual); the identity holds when the
    residual is at most tol.  The names of run's parameters, out of
    samples, seed and tmax, are the parameters the check reads; run's own
    defaults stand for samples and tmax when they are not given.
    """

    tol: float
    run: Callable

    @property
    def reads(self):
        return tuple(inspect.signature(self.run).parameters)


def _rescaling(seed, samples=1000):
    worst, _ = sample_rescaling_identity(samples, seed=seed)
    return {"samples": samples, "seed": seed, "worst_residual": worst}, worst


def _shift_relation(seed, samples=100):
    worst = sample_shift_relation(projective_shift(), samples, seed=seed)
    return {"samples": samples, "seed": seed, "worst_residual": worst}, worst


def _tannery_reparam(samples=101):
    worst = tannery_reparam_residual(samples)
    return {"samples": samples, "worst_residual": worst}, worst


def _liouville_variants(seed, samples=20, tmax=1.0):
    # the separation integral against its commonly misprinted variant on
    # the default separable chart; only the standard form has to conserve
    chart, sep = liouville_chart()
    alt = liouville_integral_printed(*liouville_profiles(), sign=1)
    std, other = (check_conservation(chart, i, n_samples=samples, t_max=tmax,
                                     seed=seed).max_drift for i in (sep, alt))
    return {"seed": seed, "separable_drift": std,
            "alternate_form_drift": other}, std


IDENTITIES = {
    "rescaling": Identity(1e-10, _rescaling),
    "shift-relation": Identity(1e-8, _shift_relation),
    "tannery-reparam": Identity(1e-10, _tannery_reparam),
    "liouville-variants": Identity(1e-6, _liouville_variants),
}


# ---------------------------------------------------------------------------
# the catalogue


@dataclass
class ZooBundle:
    """A chart plus the structure that makes it worth cataloguing."""

    chart: MetricChart
    killing: Optional[VectorField] = None
    integrals: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict)


@dataclass
class ZooEntry:
    name: str
    summary: str
    build: Callable[..., ZooBundle]


def _killing_bundle(chart, k, **kwargs):
    """Bundle of a chart with Killing field k and its energy and Clairaut
    integrals."""
    return ZooBundle(chart, killing=k,
                     integrals={"energy": energy_integral(chart),
                                "clairaut": clairaut_integral(chart, k)},
                     **kwargs)


def _build_flat():
    chart = MetricChart(
        name="flat", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=expr.const(1.0), domain=Domain(),
        signature=Signature.RIEMANNIAN,
        sample_box=(-2.0, 2.0, -2.0, 2.0)).validate()
    return _killing_bundle(
        chart, VectorField("translation", expr.const(0.0), expr.const(1.0)))


def _killing_entry(constructor, **defaults):
    """The build function of an entry whose constructor returns a chart and
    its Killing field.  defaults holds only the catalogue's defaults that
    differ from the constructor's own; given parameters override them."""
    def build(**kwargs):
        return _killing_bundle(*constructor(**dict(defaults, **kwargs)))
    return build


def _build_shift(**kwargs):
    bundle = projective_shift(**kwargs)
    return _killing_bundle(bundle.chart, bundle.killing,
                           maps={"shift": bundle.tau},
                           extras={"shift_bundle": bundle})


def _build_liouville(**kwargs):
    # the default profiles have period 1/2 in both coordinates
    default = kwargs.get("h1") is None and kwargs.get("h2") is None
    chart, sep = liouville_chart(
        periods=(0.5, 0.5) if default else (None, None), **kwargs)
    return ZooBundle(chart,
                     integrals={"energy": energy_integral(chart),
                                "separable": sep})


def _build_truncation(**kwargs):
    base_chart, k = tannery_chart()
    tb = clairaut_truncation(base_chart, k, **kwargs)
    return ZooBundle(tb.partner, killing=k,
                     integrals={"energy": energy_integral(tb.partner),
                                "defining": tb.integral})


def catalogue():
    """Name -> ZooEntry table of every chart the package ships."""
    entries = [
        ZooEntry("flat", "Euclidean plane, the control chart", _build_flat),
        ZooEntry("clifton-pohl",
                 "null metric 2 dx dy/(x^2+y^2) off the origin",
                 _killing_entry(clifton_pohl)),
        ZooEntry("band",
                 "Lorentzian strip family over a profile f with Killing d/dy",
                 _killing_entry(band_chart, a=2.0, l=0.3)),
        ZooEntry("punctured-family",
                 "projective partners of the punctured-plane null metric",
                 _killing_entry(punctured_plane_family)),
        ZooEntry("tannery",
                 "rotation surface (c+h(cos r))^2 dr^2 + sin^2 r dtheta^2",
                 _killing_entry(tannery_chart)),
        ZooEntry("tannery-deformed",
                 "Clairaut-square deformation of the rotation surface",
                 _killing_entry(tannery_deformed)),
        ZooEntry("projective-shift",
                 "strip whose unit x-translation is projective, not affine",
                 _build_shift),
        ZooEntry("liouville",
                 "separable metric (h1(x)+h2(y))(dx^2 + s dy^2)",
                 _build_liouville),
        ZooEntry("clairaut-truncation",
                 "partner metric where the rotation field is short",
                 _build_truncation),
    ]
    return {e.name: e for e in entries}


def build_bundle(name, **kwargs):
    """Build one catalogue entry by name, passing parameter overrides."""
    table = catalogue()
    if name not in table:
        raise KeyError("unknown chart %r; available: %s"
                       % (name, ", ".join(sorted(table))))
    return table[name].build(**kwargs)
