"""Geodesic flow integration.

The stepper is an embedded Dormand-Prince 5(4) pair with the first-same-as-
last optimization, a PI step-size controller and a quartic dense-output
interpolant per accepted step.  On top of it sit the geodesic system, the
geodesic by the Euclidean arc length of its chart image (for comparing
unparametrised curves), the geodesic jointly with the scalar Jacobi
equation of its normal Jacobi field (for conjugate points) and closure
detection for periodic orbits.  Every trace is a GeodesicTrace, started
from a GeodesicState and, for the Jacobi field, jn = 0 and jp = 1.

The systems have four or six components, too few for numpy to pay off: a
numpy call costs more than the arithmetic it does on four floats.  So the
stepper runs on plain Python floats.  States are tuples, and one step
attempt is generated per system and chart, equations written into the
step: it is straight-line code in which each stage combination, the
system's right-hand side at that stage, the fifth-order update and the
error estimate are written out term by term, with the zero entries of the
tableau dropped (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4-5).  Each stage's right-hand side is one expression tree
with the chart's bundle: `_SYSTEMS` builds the system's derivative as
trees over the chart's fields (the Christoffel symbols and, for the Jacobi
system, the curvature) and the state's components, and
metric._Runtime.source writes them with the emitter compiled fields use.
So a constant entry of the chart, such as a Christoffel symbol its
symmetry makes 0, folds away with every term it kills, and a node the
bundle and the system share is computed once.  The stage finiteness tests,
the curvature's degeneracy test and the error norm stay source text.
No stage calls anything but the elementary functions.  The step names the
state s and its components s0, s1, ..., so the right-hand side reads each
stage's point as the chart's own x and y.  The same source
generates the plain rhs(s) that starts a trace.  The step is compiled, by
expr.compile_function, on a chart runtime's first trace of the system and
kept on the runtime.  An
accepted step keeps only its stages; the coefficients of its interpolant
are built from them when the dense output is evaluated, which most traces
never are.  Only the finished trace is turned into arrays.  The sums run in
a fixed order without fused multiply-adds, so the results do not depend on
the machine's BLAS.  The dense output refuses to extrapolate: it raises
ValueError a few ulps outside the traced range.

Every trace runs at the tolerances `ATOL` (1e-11) and `RTOL` (1e-10) on a
budget of `MAX_STEPS` (300 000) step attempts, with `H_MIN` (1e-13) as the
smallest step; the stepper reads these module constants once per trace.
A trace counts its right-hand side evaluations (n_rhs): two to start, the
initial slope and the step-size guess, then six per attempted step, a step
that a domain exit drops included.

Traces terminate for one of five reasons: the requested parameter time was
reached, the trajectory left the chart domain (checked at the end and the
midpoint of each step and, on a chart with an excluded disc, along the
chord of the step), the step size stalled (the numerical signature of
hitting a metric singularity or a finite-time blowup), closure was detected
by the observer, or the step budget ran out.

An observer, if given, is called as observer(t0, t1, y1, dense) after every
accepted step from t0 to t1, with y1 the state at t1 and dense the
interpolant over the steps so far, this one included.  A true return value
ends the trace there as `closure-detected`; the observer keeps whatever it
found in its own scope, and the trace does not refer to it.

A blowup shows up as accepted steps that shrink geometrically without end:
on x(t) = 1/(1 - t) the step size falls about one decade every 160 steps all
the way down to `H_MIN`.  The stepper reads that stall early, as in DOPRI5's
"step size too small" exit (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.4): once an accepted step is smaller than `_STALL` (1e-3) times the
largest step the trace has accepted, the trace ends as a singularity.
Regular traces keep their steps well above that: no step but a final one cut
short to land on t_max falls below 6.7e-3 of the largest before it, over
50 sampled states per catalogue chart and every trace the equivalence
decider draws for the benchmark pairs.  A blowup crosses 1e-3 after about a
quarter of the steps it would take to reach `H_MIN`.

One kind of regular trace does stall: a geodesic grazing a coordinate
pole, where the chart rather than the metric degenerates.  On the round
sphere in colatitude/longitude coordinates a great circle passing within
1e-3 of a pole shrinks its steps to 2e-4 of their largest and grows them
back; passing within 1e-5, it shrinks them to 1e-6.  So a stalled step ends
the trace only when the metric is not degenerating there: the degeneracy
ratio |det g| / max(E^2, F^2, G^2) (metric.degeneracy_ratio) at the new
point must not have fallen below `_DEGENERATING` (1e-2) times its value at
the trace start.  The ratio is read only on stalled steps.  Near a pole it
is about sin^2 of the colatitude: the grazes above stall only where it is
below 6.4e-5 of its start, and carry on.  On every measured blowup (the
catalogue states above and the decider traces) it stays above 0.97 of its
start.  `H_MIN` and `MAX_STEPS` remain the last-resort floors.
"""

from __future__ import annotations

import csv
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from enum import Enum
from math import isfinite
from typing import Optional

import numpy as np

from .expr import (EVAL_ERRORS, X, Y, _JN, _JP, _VX, _VY, compile_function,
                   sqrt)
from .metric import DomainError, degeneracy_ratio

__all__ = [
    "Termination", "DROP_REASONS", "GeodesicState", "GeodesicTrace",
    "ClosureReport", "integrate_geodesic", "integrate_by_arclength",
    "find_conjugate_points", "detect_closure", "golden_min", "trace_to_csv",
]


class Termination(str, Enum):
    TIME_LIMIT = "time-limit"
    DOMAIN_EXIT = "domain-exit"
    SINGULARITY = "singularity"
    CLOSURE = "closure-detected"
    STEP_BUDGET = "step-budget"

    @property
    def abandoned(self):
        """The integrator gave up on the trace before it could end."""
        return self in (Termination.SINGULARITY, Termination.STEP_BUDGET)


# the values of GeodesicTrace.drop_reason other than None
DROP_REASONS = ("short", Termination.SINGULARITY.value,
                Termination.STEP_BUDGET.value)


# tolerances, smallest step and step budget of every trace
ATOL = 1e-11
RTOL = 1e-10
H_MIN = 1e-13
MAX_STEPS = 300_000


@dataclass(frozen=True)
class GeodesicState:
    x: float
    y: float
    vx: float
    vy: float
    t: float = 0.0


# Dormand-Prince 5(4) tableau: stage weights _A (row i weighs stages
# 1..i), _E the 5th- minus the embedded 4th-order weights, and the
# dense-output matrix _P.  Every system is autonomous, so the nodes do not
# appear.  The 5th-order weights are the last row of _A, so stage 7 is
# evaluated at the new state itself and becomes the next step's first stage
# (FSAL).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
# y(t0 + u h) = y0 + h * sum over stages s of k_s (_P[s] . [u, u^2, u^3, u^4])
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# stage weights of the interpolant at the step midpoint u = 1/2, the point
# the domain test checks besides the step end
_MID = tuple(sum(p * w for p, w in zip(row, (0.5, 0.25, 0.125, 0.0625)))
             for row in _P)
# the stages the interpolant weighs (all but stage 2), kept per accepted step
_DENSE = tuple(s for s, row in enumerate(_P) if any(row))

_RHS_ERRORS = EVAL_ERRORS + (FloatingPointError,)

# An accepted step below _STALL times the trace's largest accepted step ends
# the trace as a singularity, unless the degeneracy ratio of the metric has
# fallen below _DEGENERATING times its start value (see the module docstring).
_STALL = 1e-3
_DEGENERATING = 1e-2


def _combo(weights, names):
    """The weighted sum as source, left to right, without zero weights."""
    return " + ".join(v if w == 1.0 else "%r * %s" % (w, v)
                      for w, v in zip(weights, names) if w)


def _interpolant():
    """interpolate(y0, h, u, k1, k3, k4, k5, k6, k7): a component at t0 + u h.

    The four coefficients of the quartic are the stage combinations of _P,
    and Horner's rule evaluates it.  The arguments may be floats or numpy
    arrays: either way the same operations run in the same order, so the
    values agree bit for bit.
    """
    names = ["k%d" % (s + 1) for s in _DENSE]
    q = [_combo([_P[s][m] for s in _DENSE], names) for m in range(4)]
    horner = "(%s) + u * ((%s) + u * ((%s) + u * (%s)))" % tuple(q)
    src = ("def interpolate(y0, h, u, %s):\n"
           "    return y0 + h * u * (%s)\n" % (", ".join(names), horner))
    return compile_function(src, "interpolate", "<geoproj.flow interpolant>")


_interpolate = _interpolant()


class DenseOutput:
    """Piecewise quartic interpolant over the accepted steps.

    ts and ys are the trace's own lists of times and states, shared with the
    stepper rather than copied: step i starts at ts[i] with state ys[i] and
    has length hs[i], so ts holds one entry more than hs.  ks[i] holds the
    step's six stages that the interpolant weighs (k1, k3 to k7), component
    by component: component j's stages are ks[i][6j:6j+6].  They are packed
    as C doubles: a tuple of Python floats takes three times the memory,
    which long traces notice.  The quartic's coefficients are built from the
    stages only when the interpolant is evaluated: most traces, such as the
    conservation traces and every trace that ends in a singularity, never
    are.  Calling the interpolant evaluates every component at one time, or
    one component alone; positions() evaluates x and y at an array of times
    in one pass, through the same interpolate function, so its values equal
    the scalar ones bit for bit.  Evaluating outside the traced range raises
    ValueError.
    """

    def __init__(self, ts, ys):
        self.ts = ts
        self.ys = ys
        self.hs = []
        self.ks = []

    def _check_range(self, t):
        """Raise ValueError unless t lies in the traced range, up to 4 ulps."""
        if not self.hs:
            raise ValueError("empty trace has no interpolant")
        lo, hi = self.ts[0], self.ts[len(self.hs)]
        slack = 4.0 * math.ulp(max(abs(lo), abs(hi)))
        if not lo - slack <= t <= hi + slack:
            raise ValueError("t = %r is outside the trace [%r, %r]"
                             % (t, lo, hi))

    def __call__(self, t, j=None):
        """The state at t as an array, or its component j alone as the
        float the array holds there."""
        self._check_range(t)
        ts, hs = self.ts, self.hs
        i = max(bisect_right(ts, t, 0, len(hs)) - 1, 0)
        h, k = hs[i], memoryview(self.ks[i]).cast("d")
        u = (t - ts[i]) / h
        if j is not None:
            return _interpolate(self.ys[i][j], h, u, *k[6 * j:6 * j + 6])
        return np.array([_interpolate(y, h, u, *k[6 * j:6 * j + 6])
                         for j, y in enumerate(self.ys[i])])

    def positions(self, ts):
        """x and y at the times ts, as an array of shape (len(ts), 2).

        One searchsorted finds every time's step, then the interpolant runs
        on whole columns of the packed stages.
        """
        ts = np.asarray(ts, dtype=float)
        self._check_range(float(np.min(ts)))
        self._check_range(float(np.max(ts)))
        n = len(self.hs)
        t0 = np.array(self.ts[:n])
        i = np.maximum(np.searchsorted(t0, ts, side="right") - 1, 0)
        h = np.array(self.hs)[i]
        u = (ts - t0[i]) / h
        y0 = np.array(self.ys[:n])[i, :2]
        k = np.frombuffer(b"".join(self.ks)).reshape(n, -1)[i, :12]
        out = np.empty((len(ts), 2))
        for j in (0, 1):
            out[:, j] = _interpolate(y0[:, j], h, u, *k[:, 6 * j:6 * j + 6].T)
        return out


def _rms(v):
    return math.sqrt(sum(x * x for x in v) / len(v))


# The right-hand sides as trees: per system, the state's components as
# leaves, whether it reads the curvature kq, the function that builds one
# tree per component of the derivative from the chart's fields (name ->
# field, see metric._Runtime._fields), and the start values of the
# components after x, y, vx, vy.  Each tree is built as its formula reads,
# in Python's left-to-right operation order, and the folds of the tree
# constructors drop every term a constant field kills.  The components'
# names must differ from the generated step's own: h, s, k1, s<j>, z<j>,
# k<i>_<j>, a_s<j>, a_z<j>, e<j>, err, atol, rtol, the bundle's E, F, G,
# det, v<i> and r, and the compile namespace's (isfinite, pack, sqrt, ...);
# the state is s, so x and y are the chart's own coordinates.
def _acceleration(t):
    return (-(t["a"] * _VX * _VX + 2.0 * t["b"] * _VX * _VY
              + t["c"] * _VY * _VY),
            -(t["d"] * _VX * _VX + 2.0 * t["e"] * _VX * _VY
              + t["f"] * _VY * _VY))


def _jacobi(t):
    # a Jacobi field with J(0) = 0 on a surface is J = alpha gamma' + jn N,
    # N parallel and transverse to gamma'; only jn decides conjugacy, and
    #   jn'' = -K g(gamma', gamma') jn,  jp = jn',  jn(0) = 0, jp(0) = 1
    # for every causal character of the geodesic (do Carmo, Riemannian
    # Geometry ch. 5; O'Neill, Semi-Riemannian Geometry ch. 10)
    ev = t["E"] * _VX * _VX + 2.0 * t["F"] * _VX * _VY + t["G"] * _VY * _VY
    return (_VX, _VY) + _acceleration(t) + (_JP, -t["kq"] * ev * _JN)


def _arclength(t):
    # the geodesic divided by its chart speed |(vx, vy)|: the parameter is
    # the chart image's Euclidean arc length; vx, vy stay the affine velocity
    w = 1.0 / sqrt(_VX * _VX + _VY * _VY)
    return (_VX * w, _VY * w) + tuple(w * a for a in _acceleration(t))


_SYSTEMS = {
    "geodesic": ((X, Y, _VX, _VY), False,
                 lambda t: (_VX, _VY) + _acceleration(t), ()),
    "jacobi": ((X, Y, _VX, _VY, _JN, _JP), True, _jacobi, (0.0, 1.0)),
    "arclength": ((X, Y, _VX, _VY), False, _arclength, ()),
}


def _abs(v):
    """abs(v) as source: the same float in every case, -0.0 and nan
    included, without a call."""
    return "(%s if %s > 0.0 else 0.0 - %s)" % (v, v, v)


def _step_source(names, body, outs):
    """Source of bind(atol, rtol) -> (rhs, attempt) for one system on one
    chart: names are the state's components, and body and outs the lines
    and the derivative's components metric._Runtime.source writes for the
    system's right-hand side.

    rhs(s) is the system's derivative at the state s, as a tuple.
    attempt(h, s, k1) evaluates stages 2 to 7 of one DP5 step from s with
    first stage k1 and returns (err, z, k7, k, mx, my): the error norm, the
    5th-order state, the last stage, the packed stages of DenseOutput and
    the midpoint position.  s<j> are the components of s, and each stage
    sets its state under names, where the body reads it.  Each stage
    evaluates the right-hand side inline, bundle included, and raises
    FloatingPointError unless all its components are finite: k * 0.0 is
    +-0.0 for a finite k and nan otherwise, so one isfinite over the sum of
    those tests them all.
    Every sum is written out term by term on plain floats, without the
    tableau's zero entries.
    """
    n = len(names)
    comps = range(n)

    def combo(weights, j):
        return _combo(weights, ["k%d_%d" % (s + 1, j) for s in range(7)])

    lines = ["def bind(atol, rtol):",
             "    def rhs(s):",
             "        %s, = s" % ", ".join(names)]
    lines += ["        " + b for b in body]
    lines += ["        return (%s,)" % ", ".join(outs),
              "    def attempt(h, s, k1):",
              "        %s, = s" % ", ".join("s%d" % j for j in comps),
              "        %s, = k1" % ", ".join("k1_%d" % j for j in comps)]
    for i in range(1, 7):
        for j, v in enumerate(names):
            # stage 7 is evaluated at the 5th-order state z itself
            lhs = "%s = z%d" % (v, j) if i == 6 else v
            lines.append("        %s = s%d + h * (%s)"
                         % (lhs, j, combo(_A[i], j)))
        lines += ["        " + b for b in body]
        lines += ["        k%d_%d = %s" % (i + 1, j, out)
                  for j, out in enumerate(outs)]
        lines += ["        if not isfinite(%s):" % " + ".join(
                      "k%d_%d * 0.0" % (i + 1, j) for j in comps),
                  "            raise FloatingPointError("
                  "'stage %d is not finite')" % (i + 1)]
    # the scale atol + rtol * max(abs(s), abs(z)), where max(a, b) is a
    # unless b > a
    for j in comps:
        lines += ["        a_s%d = %s" % (j, _abs("s%d" % j)),
                  "        a_z%d = %s" % (j, _abs("z%d" % j)),
                  "        e%d = h * (%s) / (atol + rtol * (a_z%d if a_z%d > "
                  "a_s%d else a_s%d))" % (j, combo(_E, j), j, j, j, j)]
    lines.append("        err = sqrt((%s) / %d)"
                 % (" + ".join("e%d * e%d" % (j, j) for j in comps), n))
    kept = ", ".join("k%d_%d" % (s + 1, j) for j in comps for s in _DENSE)
    lines.append("        return (err, (%s,), (%s,), pack(%s), %s)" % (
        ", ".join("z%d" % j for j in comps),
        ", ".join("k7_%d" % j for j in comps), kept,
        ", ".join("s%d + h * (%s)" % (j, combo(_MID, j)) for j in (0, 1))))
    lines.append("    return rhs, attempt")
    return "\n".join(lines) + "\n"


def _binder(rt, system):
    """The compiled bind function of the system on the chart runtime rt,
    built on the runtime's first trace of the system, kept in rt.compiled."""
    fn = rt.compiled.get(system)
    if fn is None:
        leaves, curvature, build, _ = _SYSTEMS[system]
        names = [v.name for v in leaves]
        body, outs = rt.source(build, curvature)
        src = _step_source(names, body, outs)
        fn = rt.compiled[system] = rt.compile(
            src, "bind", "<geoproj.flow dp5 %s>" % system,
            isfinite=isfinite, FloatingPointError=FloatingPointError,
            pack=struct.Struct("%dd" % (len(_DENSE) * len(names))).pack)
    return fn


def _initial_step(rhs, y0, f0, t_span, atol, rtol):
    scale = [atol + rtol * abs(a) for a in y0]
    d0 = _rms([a / s for a, s in zip(y0, scale)])
    d1 = _rms([b / s for b, s in zip(f0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = rhs([a + h0 * b for a, b in zip(y0, f0)])
        d2 = _rms([(c - b) / s for c, b, s in zip(f1, f0, scale)]) / h0
    except _RHS_ERRORS:
        d2 = d1
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, t_span)


def _chord_hits_disc(x0, y0, x1, y1, r2):
    """Whether the segment from (x0, y0) to (x1, y1), whose ends lie outside
    the closed origin disc of squared radius r2, passes through it."""
    dx = x1 - x0
    dy = y1 - y0
    d2 = dx * dx + dy * dy
    # the segment's closest point to the origin lies strictly between its
    # ends when the projection s of -(x0, y0) on it does
    s = -(x0 * dx + y0 * dy)
    if not 0.0 < s < d2:
        return False
    cross = x0 * dy - y0 * dx
    return cross * cross <= r2 * d2


def _adaptive_rk(system, rt, t0, y0, t_max, observer=None):
    """Core stepper: the system (a key of _SYSTEMS) on the chart runtime rt.

    The right-hand side raising one of _RHS_ERRORS rejects the step.
    rt.in_domain tests the first two components of the state at the end and
    the midpoint of each step; on a chart with an excluded disc, the chord of
    the step must miss it too.  The metric's degeneracy ratio comes from
    rt.coeffs.  Returns the trace fields (ts, ys, termination, dense,
    n_accepted, n_rejected, n_rhs).
    """
    atol, rtol, h_min, max_steps = ATOL, RTOL, H_MIN, MAX_STEPS
    rhs, attempt = _binder(rt, system)(atol, rtol)
    in_domain = rt.in_domain
    r2 = rt.exclude_r2
    y = tuple(map(float, y0))
    t = float(t0)
    try:
        f = rhs(y)
    except _RHS_ERRORS as exc:
        raise DomainError("right-hand side fails at the initial state: %s" % exc)
    if not all(map(isfinite, f)):
        raise DomainError("right-hand side is not finite at the initial state")

    ts = [t]
    ys = [y]
    dense = DenseOutput(ts, ys)
    ts_append, ys_append = ts.append, ys.append
    hs_append, ks_append = dense.hs.append, dense.ks.append
    h = _initial_step(rhs, y, f, t_max - t0, atol, rtol)
    err_prev = 1e-4
    n_acc = 0
    n_rej = 0
    termination = Termination.TIME_LIMIT
    h_peak = 0.0
    ratio0 = None
    t_end = t_max - 1e-14 * max(1.0, abs(t_max))

    while t < t_end:
        if n_acc + n_rej >= max_steps:
            termination = Termination.STEP_BUDGET
            break
        rest = t_max - t
        if rest < h:
            h = rest
        if h < h_min:
            termination = Termination.SINGULARITY
            break

        try:
            err, y1, k7, k, mx, my = attempt(h, y, f)
            if not isfinite(err):
                raise FloatingPointError("error estimate is not finite")
        except _RHS_ERRORS:
            n_rej += 1
            h = max(0.1 * h, h_min * 0.5)
            err_prev = 1e-4
            continue

        if err <= 1.0:
            t1 = t + h
            if not (in_domain(y1[0], y1[1]) and in_domain(mx, my)) or (
                    r2 > 0.0 and _chord_hits_disc(y[0], y[1], y1[0], y1[1],
                                                  r2)):
                # the trace ends inside the domain, before this step
                termination = Termination.DOMAIN_EXIT
                break
            hs_append(h)
            ks_append(k)
            ts_append(t1)
            ys_append(y1)
            n_acc += 1
            if observer is not None and observer(t, t1, y1, dense):
                termination = Termination.CLOSURE
                break
            t = t1
            y = y1
            f = k7  # first-same-as-last
            if h > h_peak:
                h_peak = h
            if h < _STALL * h_peak and t < t_end:
                if ratio0 is None:
                    ratio0 = degeneracy_ratio(*rt.coeffs(ys[0][0], ys[0][1]))
                ratio = degeneracy_ratio(*rt.coeffs(y[0], y[1]))
                if not ratio < _DEGENERATING * ratio0:
                    termination = Termination.SINGULARITY
                    break
            # min(hi, max(lo, q)) and max(err, 1e-10) as comparisons, which
            # give the same float: max(a, b) is a unless b > a, and min(a,
            # b) is a unless b < a
            q = 0.9 * err ** -0.17 * err_prev ** 0.04 if err > 0 else 10.0
            h *= (q if q < 10.0 else 10.0) if q > 0.2 else 0.2
            err_prev = 1e-10 if 1e-10 > err else err
        else:
            n_rej += 1
            q = 0.9 * err ** -0.2
            h *= (q if q < 0.9 else 0.9) if q > 0.2 else 0.2

    # two evaluations start the trace, and every attempted step makes six,
    # the step a domain exit drops included
    attempts = n_acc + n_rej + (termination is Termination.DOMAIN_EXIT)
    return (np.array(ts), np.array(ys), termination, dense, n_acc, n_rej,
            2 + 6 * attempts)


@dataclass
class GeodesicTrace:
    """One trace: ys holds a row per time in ts, the columns x, y, vx, vy,
    then for the jacobi system jn, the Jacobi field's component along a
    parallel field transverse to gamma', and its derivative jp."""

    chart_name: str
    ts: np.ndarray
    ys: np.ndarray
    termination: Termination
    dense: DenseOutput
    n_accepted: int
    n_rejected: int
    n_rhs: int

    def final_state(self):
        x, y, vx, vy = self.ys[-1][:4]
        return GeodesicState(x, y, vx, vy, t=float(self.ts[-1]))

    @property
    def length(self):
        return float(self.ts[-1] - self.ts[0])

    @property
    def drop_reason(self):
        """Why a decider cannot measure along the trace, or None if it can.

        An abandoned trace gives its termination ("singularity": past the
        stall the numbers say nothing; "step-budget"), and a trace of fewer
        than 3 points or shorter than 1e-3 gives "short".  The conservation
        traces, both overlap traces and the reversibility traces of the
        acceptance suite are all dropped by this one rule.
        """
        if self.termination.abandoned:
            return self.termination.value
        if len(self.ts) < 3 or self.length < 1e-3:
            return "short"
        return None


@dataclass
class ClosureReport:
    closed: bool
    period: Optional[float]
    min_distance: float
    tol: float
    trace: GeodesicTrace = dc_field(repr=False)


def _run(chart, system, state, span, observer=None):
    """Step the system from the state at state.t to state.t + span inside
    the chart, its further components starting at their _SYSTEMS values;
    span is the arclength system's length, the others' t_max."""
    if not 0.0 < span < math.inf:
        raise ValueError("%s must be positive"
                         % ("length" if system == "arclength" else "t_max"))
    rt = chart.runtime()
    if not rt.in_domain(state.x, state.y):
        raise DomainError("initial state (%g, %g) is outside chart %r"
                          % (state.x, state.y, chart.name))
    y0 = (state.x, state.y, state.vx, state.vy) + _SYSTEMS[system][3]
    return GeodesicTrace(chart.name, *_adaptive_rk(system, rt, state.t, y0,
                                                   state.t + span, observer))


def integrate_geodesic(chart, state, t_max, observer=None):
    """Integrate the geodesic through the state for parameter length t_max."""
    return _run(chart, "geodesic", state, t_max, observer)


def integrate_by_arclength(chart, state, length):
    """Integrate the geodesic through the state for the Euclidean arc length
    `length` of its chart image: ts are state.t plus the arc length, whatever
    the state's speed, and the velocity columns are the affine velocity."""
    return _run(chart, "arclength", state, length)


def find_conjugate_points(chart, state, t_max):
    """Parameter times of conjugate points along the geodesic through state.

    Integrates the normal part jn of the Jacobi field with J(0) = 0 (see
    _SYSTEMS); conjugate points are the zeros of jn for t > 0, bracketed by
    sign changes between accepted steps and refined by bisection on jn's
    interpolant, until the bracket is 1e-8 wide or rounding stops it from
    shrinking.  Returns (times, trace), the jacobi system's trace.
    """
    if state.vx == 0.0 and state.vy == 0.0:
        raise ValueError("zero initial velocity has no geodesic")
    jt = _run(chart, "jacobi", state, t_max)

    w = jt.ys[:, 4]
    times = []
    for i in range(1, len(jt.ts) - 1):
        a, b = jt.ts[i], jt.ts[i + 1]
        wa, wb = w[i], w[i + 1]
        if wa == 0.0:
            times.append(float(a))
            continue
        if wa * wb < 0.0:
            lo, hi, wlo = float(a), float(b), wa
            while hi - lo > 1e-8:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break   # the float spacing here exceeds 1e-8
                wm = jt.dense(mid, 4)
                if wm == 0.0:
                    lo = hi = mid
                    break
                if wlo * wm < 0.0:
                    hi = mid
                else:
                    lo, wlo = mid, wm
            times.append(0.5 * (lo + hi))
    if len(jt.ts) > 1 and w[-1] == 0.0:
        times.append(float(jt.ts[-1]))
    return times, jt


def golden_min(f, a, b, tol):
    """Golden-section search for a minimum of f on [a, b].

    Narrows the bracket until it is at most tol wide, or until rounding
    stops it from shrinking (tol below the float spacing at a and b).
    Returns (t, f(t)) for the better of the two interior probes.
    """
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol and a < x1 < x2 < b:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
    t = x1 if f1 <= f2 else x2
    return t, min(f1, f2)


def detect_closure(chart, state, t_max, tol=1e-6):
    """Detect whether the geodesic through state closes up within t_max.

    A geodesic counts as closed when the full phase-space point (position,
    raw velocity) returns within tol of the start; positions are compared
    modulo the chart's coordinate periods.  Returns a ClosureReport carrying
    the trace (terminated at the detected period when closure happens); the
    trace does not refer back to the report.  A tol outside (0, inf) or a
    zero velocity raises ValueError.

    The return distance is watched on a grid finer than the accepted steps,
    through the dense output: on stretches the integrator resolves exactly
    the steps grow so large that every step endpoint would miss the dip.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if state.vx == 0.0 and state.vy == 0.0:
        raise ValueError("zero initial velocity has no geodesic")
    px, py = chart.periods
    x0, y0, vx0, vy0 = state.x, state.y, state.vx, state.vy
    v_scale = max(float(np.hypot(vx0, vy0)), 1e-12)

    def wrap(d, period):
        if period is None:
            return d
        d = math.fmod(d, period)
        if d > 0.5 * period:
            d -= period
        elif d < -0.5 * period:
            d += period
        return d

    def distance_of(yv):
        dx = wrap(yv[0] - x0, px)
        dy = wrap(yv[1] - y0, py)
        dv = math.hypot(yv[2] - vx0, yv[3] - vy0) / v_scale
        return math.hypot(dx, dy) + dv

    arm_radius = max(1e-3, 10.0 * tol)
    h_watch = t_max / 512.0
    best = math.inf
    armed = False
    # the last three sub-samples (time, distance), the oldest first
    ta = da = tb = db = tc = dc = None
    closure = None      # (period, distance) once the orbit closes

    def observer(t0, t1, y1, dense):
        nonlocal best, armed, ta, da, tb, db, tc, dc, closure
        n_sub = max(1, int(math.ceil((t1 - t0) / h_watch)))
        for j in range(1, n_sub + 1):
            ta, da, tb, db = tb, db, tc, dc
            tc = t1 if j == n_sub else t0 + (t1 - t0) * (j / n_sub)
            dc = distance_of(y1 if j == n_sub else dense(tc))
            if not armed:
                armed = dc > arm_radius
                continue
            best = min(best, dc)
            if ta is None or not (db <= da and db <= dc):
                continue

            tstar, dstar = golden_min(lambda t: distance_of(dense(t)),
                                      ta, tc, 1e-10)
            best = min(best, dstar)
            if dstar <= tol:
                closure = (float(tstar - state.t), float(dstar))
                return True
        return False

    trace = integrate_geodesic(chart, state, t_max, observer=observer)
    if closure:
        return ClosureReport(True, *closure, tol, trace)
    return ClosureReport(False, None, float(best), tol, trace)


def trace_to_csv(trace, fileobj, columns=()):
    """Write t, x, y, vx, vy and the named columns, one row per trace point.

    columns is a sequence of (name, values) with one value per row, such as
    FiberIntegral.along(trace).
    """
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["t", "x", "y", "vx", "vy"] + [name for name, _ in columns])
    table = np.column_stack([trace.ts, trace.ys[:, :4]]
                            + [values for _, values in columns])
    for row in table.tolist():
        writer.writerow([repr(v) for v in row])
