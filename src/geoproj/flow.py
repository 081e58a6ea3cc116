"""Geodesic flow integration.

The stepper is an embedded Dormand-Prince 5(4) pair with the first-same-as-
last optimization, a PI step-size controller and a quartic dense-output
interpolant per accepted step.  On top of it sit the geodesic system, the
joint geodesic + Jacobi system (for conjugate points) and closure detection
for periodic orbits.

Traces terminate for one of five reasons: the requested parameter time was
reached, the trajectory left the chart domain, the step size collapsed (the
numerical signature of hitting a metric singularity or a finite-time
blowup), closure was detected by the observer, or the step budget
`max_steps` ran out.

A blowup shows up as accepted steps that shrink geometrically without end:
on x(t) = 1/(1 - t) the step size falls about one decade every 160 steps all
the way down to `h_min`.  The stepper reads that collapse early: once an
accepted step is smaller than `_COLLAPSE` times the largest step the trace
has accepted, the trace ends as a singularity, as in DOPRI5's "step size
too small" exit (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4).
Regular traces keep their smallest step well above that: at worst 7e-3 of
their largest on sampled catalogue geodesics, in the acceptance criteria
and in the benchmark workloads.  A regular trace whose steps have to shrink further is cut too.  On the
round sphere in colatitude/longitude coordinates that happens to a great
circle passing within about 1e-4 of a pole; at 1e-3 the steps shrink to
2e-4 of their largest and the trace runs on.  `h_min` remains the
last-resort floor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Optional

import numpy as np

from .metric import DomainError

__all__ = [
    "Termination", "IntegratorOptions", "GeodesicState", "GeodesicTrace",
    "JacobiTrace", "ClosureReport", "integrate_geodesic", "integrate_jacobi",
    "find_conjugate_points", "detect_closure", "trace_to_csv",
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


@dataclass(frozen=True)
class IntegratorOptions:
    atol: float = 1e-11
    rtol: float = 1e-10
    h_min: float = 1e-13
    max_steps: int = 300_000


@dataclass(frozen=True)
class GeodesicState:
    x: float
    y: float
    vx: float
    vy: float
    t: float = 0.0

    def position(self):
        return (self.x, self.y)

    def velocity(self):
        return (self.vx, self.vy)

    def as_array(self):
        return np.array([self.x, self.y, self.vx, self.vy])


# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = _A[6]
# difference between the 5th and embedded 4th order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# dense-output coefficients: y(t0 + u h) = y0 + h * (K^T P) @ [u, u^2, u^3, u^4]
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_RHS_ERRORS = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)

# An accepted step below this fraction of the trace's largest accepted step
# ends the trace as a singularity (see the module docstring).
_COLLAPSE = 3e-5


class DenseOutput:
    """Piecewise quartic interpolant over the accepted steps."""

    def __init__(self):
        self.t0s = []
        self.hs = []
        self.y0s = []
        self.qs = []

    def append(self, t0, h, y0, q):
        self.t0s.append(t0)
        self.hs.append(h)
        self.y0s.append(y0)
        self.qs.append(q)

    @property
    def t_min(self):
        return self.t0s[0]

    @property
    def t_max(self):
        return self.t0s[-1] + self.hs[-1]

    def __call__(self, t):
        if not self.t0s:
            raise ValueError("empty trace has no interpolant")
        idx = np.searchsorted(self.t0s, t, side="right") - 1
        idx = min(max(idx, 0), len(self.t0s) - 1)
        t0, h, y0, q = self.t0s[idx], self.hs[idx], self.y0s[idx], self.qs[idx]
        u = (t - t0) / h
        p = np.array([u, u * u, u ** 3, u ** 4])
        return y0 + h * (q @ p)


@dataclass
class _RunResult:
    ts: np.ndarray
    ys: np.ndarray
    termination: Termination
    dense: DenseOutput
    n_accepted: int
    n_rejected: int
    observer_payload: object = None


def _rms(v):
    return math.sqrt(float(np.mean(v * v)))


def _initial_step(rhs, t0, y0, f0, t_span, atol, rtol):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = rhs(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
    except _RHS_ERRORS:
        d2 = d1
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, t_span)


def _adaptive_rk(rhs, t0, y0, t_max, opts, in_domain=None, observer=None):
    """Core stepper.  rhs(t, y) -> array; exceptions reject the step."""
    y = np.asarray(y0, dtype=float)
    n = y.size
    t = float(t0)
    try:
        f = np.asarray(rhs(t, y), dtype=float)
    except _RHS_ERRORS as exc:
        raise DomainError("right-hand side fails at the initial state: %s" % exc)
    if not np.all(np.isfinite(f)):
        raise DomainError("right-hand side is not finite at the initial state")

    ts = [t]
    ys = [y.copy()]
    dense = DenseOutput()
    h = _initial_step(rhs, t, y, f, t_max - t0, opts.atol, opts.rtol)
    err_prev = 1e-4
    n_acc = 0
    n_rej = 0
    termination = Termination.TIME_LIMIT
    payload = None
    K = np.empty((7, n))
    h_peak = 0.0
    t_end = t_max - 1e-14 * max(1.0, abs(t_max))

    while t < t_end:
        if n_acc + n_rej >= opts.max_steps:
            termination = Termination.STEP_BUDGET
            break
        h = min(h, t_max - t)
        if h < opts.h_min:
            termination = Termination.SINGULARITY
            break

        failed = False
        K[0] = f
        y1 = None
        for i in range(1, 7):
            # stage 6 re-evaluates at y1 itself (A[6] == B), giving FSAL
            try:
                ki = rhs(t + _C[i] * h, y + h * (_A[i] @ K[:i]))
            except _RHS_ERRORS:
                failed = True
                break
            K[i] = ki
            if not np.all(np.isfinite(K[i])):
                failed = True
                break
            if i == 5:
                y1 = y + h * (_B @ K[:6])

        if not failed:
            err_vec = h * (_E @ K)
            scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y1))
            err = _rms(err_vec / scale)
        if failed or not math.isfinite(err):
            n_rej += 1
            h = max(0.1 * h, opts.h_min * 0.5)
            err_prev = 1e-4
            continue

        if err <= 1.0:
            t1 = t + h
            q = K.T @ _P
            dense.append(t, h, y.copy(), q)
            mid = y + h * (q @ np.array([0.5, 0.25, 0.125, 0.0625]))
            inside = True
            if in_domain is not None:
                inside = in_domain(y1) and in_domain(mid)
            if not inside:
                # drop the offending segment; the trace ends inside the domain
                dense.t0s.pop(), dense.hs.pop(), dense.y0s.pop(), dense.qs.pop()
                termination = Termination.DOMAIN_EXIT
                break
            ts.append(t1)
            ys.append(y1.copy())
            n_acc += 1
            stop = None
            if observer is not None:
                stop = observer(t, t1, y1, dense)
            if stop is not None:
                termination, payload = stop
                break
            t = t1
            y = y1
            f = K[6].copy()  # first-same-as-last
            h_peak = max(h_peak, h)
            if h < _COLLAPSE * h_peak and t < t_end:
                termination = Termination.SINGULARITY
                break
            factor = 0.9 * err ** -0.17 * err_prev ** 0.04 if err > 0 else 10.0
            h *= min(10.0, max(0.2, factor))
            err_prev = max(err, 1e-10)
        else:
            n_rej += 1
            h *= min(0.9, max(0.2, 0.9 * err ** -0.2))

    return _RunResult(np.array(ts), np.array(ys), termination, dense,
                      n_acc, n_rej, payload)


@dataclass
class GeodesicTrace:
    chart_name: str
    ts: np.ndarray
    ys: np.ndarray
    termination: Termination
    dense: DenseOutput
    n_accepted: int
    n_rejected: int
    closure: Optional["ClosureReport"] = None

    def initial_state(self):
        return self.state_at_index(0)

    def final_state(self):
        return self.state_at_index(len(self.ts) - 1)

    def state_at_index(self, i):
        x, y, vx, vy = self.ys[i][:4]
        return GeodesicState(x, y, vx, vy, t=float(self.ts[i]))

    def at(self, t):
        x, y, vx, vy = self.dense(t)[:4]
        return GeodesicState(float(x), float(y), float(vx), float(vy), t=float(t))

    @property
    def length(self):
        return float(self.ts[-1] - self.ts[0])


@dataclass
class JacobiTrace:
    chart_name: str
    ts: np.ndarray
    ys: np.ndarray   # columns x, y, vx, vy, jx, jy, wx, wy
    termination: Termination
    dense: DenseOutput
    n_accepted: int
    n_rejected: int

    def jacobi_cross(self, t=None):
        """cross(J, gamma') at sample times (or one t): the conjugate detector."""
        if t is None:
            return self.ys[:, 4] * self.ys[:, 3] - self.ys[:, 5] * self.ys[:, 2]
        v = self.dense(t)
        return float(v[4] * v[3] - v[5] * v[2])


@dataclass
class ClosureReport:
    closed: bool
    period: Optional[float]
    min_distance: float
    t_at_min: Optional[float]
    tol: float
    trace: Optional[GeodesicTrace] = dc_field(default=None, repr=False)


def _geodesic_rhs(runtime):
    chris = runtime.christoffel

    def rhs(t, y):
        _, _, _, c1, c2 = chris(y[0], y[1])
        vx, vy = y[2], y[3]
        a1 = -(c1[0] * vx * vx + 2.0 * c1[1] * vx * vy + c1[2] * vy * vy)
        a2 = -(c2[0] * vx * vx + 2.0 * c2[1] * vx * vy + c2[2] * vy * vy)
        return np.array([vx, vy, a1, a2])

    return rhs


def _jacobi_rhs(runtime):
    chris = runtime.christoffel
    curv = runtime.curvature

    def rhs(t, y):
        x, yy, vx, vy, jx, jy, wx, wy = y
        E, F, G, c1, c2 = chris(x, yy)
        kq = curv(x, yy)
        a1 = -(c1[0] * vx * vx + 2.0 * c1[1] * vx * vy + c1[2] * vy * vy)
        a2 = -(c2[0] * vx * vx + 2.0 * c2[1] * vx * vy + c2[2] * vy * vy)
        gvj1 = c1[0] * vx * jx + c1[1] * (vx * jy + vy * jx) + c1[2] * vy * jy
        gvj2 = c2[0] * vx * jx + c2[1] * (vx * jy + vy * jx) + c2[2] * vy * jy
        gvw1 = c1[0] * vx * wx + c1[1] * (vx * wy + vy * wx) + c1[2] * vy * wy
        gvw2 = c2[0] * vx * wx + c2[1] * (vx * wy + vy * wx) + c2[2] * vy * wy
        ev = E * vx * vx + 2.0 * F * vx * vy + G * vy * vy
        gjv = E * jx * vx + F * (jx * vy + jy * vx) + G * jy * vy
        # covariant Jacobi equation in components:
        #   dJ/dt = W - Gamma(v, J),  dW/dt = -K (g(v,v) J - g(J,v) v) - Gamma(v, W)
        return np.array([
            vx, vy, a1, a2,
            wx - gvj1, wy - gvj2,
            -kq * (ev * jx - gjv * vx) - gvw1,
            -kq * (ev * jy - gjv * vy) - gvw2,
        ])

    return rhs


def _require_inside(chart, state):
    if not chart.runtime().in_domain(state.x, state.y):
        raise DomainError("initial state (%g, %g) is outside chart %r"
                          % (state.x, state.y, chart.name))


def integrate_geodesic(chart, state, t_max, opts=None, observer=None):
    """Integrate the geodesic through the state for parameter length t_max."""
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    opts = opts or IntegratorOptions()
    _require_inside(chart, state)
    rt = chart.runtime()
    rhs = _geodesic_rhs(rt)

    def in_domain(y):
        return rt.in_domain(y[0], y[1])

    res = _adaptive_rk(rhs, state.t, state.as_array(), state.t + t_max, opts,
                       in_domain=in_domain, observer=observer)
    trace = GeodesicTrace(chart.name, res.ts, res.ys, res.termination,
                          res.dense, res.n_accepted, res.n_rejected)
    if isinstance(res.observer_payload, ClosureReport):
        trace.closure = res.observer_payload
    return trace


def integrate_jacobi(chart, trace, j0, dj0, opts=None):
    """Integrate the Jacobi equation jointly with the base geodesic.

    The base geodesic is re-integrated from the trace's initial state over
    the same parameter range, so the variational data never relies on
    interpolating a previously stored trajectory.
    """
    opts = opts or IntegratorOptions()
    s0 = trace.initial_state()
    _require_inside(chart, s0)
    rt = chart.runtime()
    y0 = np.array([s0.x, s0.y, s0.vx, s0.vy, j0[0], j0[1], dj0[0], dj0[1]])

    def in_domain(y):
        return rt.in_domain(y[0], y[1])

    res = _adaptive_rk(_jacobi_rhs(rt), s0.t, y0, float(trace.ts[-1]), opts,
                       in_domain=in_domain)
    return JacobiTrace(chart.name, res.ts, res.ys, res.termination,
                       res.dense, res.n_accepted, res.n_rejected)


def find_conjugate_points(chart, state, t_max, opts=None):
    """Parameter times of conjugate points along the geodesic through state.

    Integrates the Jacobi field with J(0) = 0 and a unit first derivative
    transverse to the initial velocity; conjugate points are the zeros of
    cross(J, gamma') for t > 0, refined by bisection on the interpolant.
    Returns (times, jacobi_trace).
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    opts = opts or IntegratorOptions()
    _require_inside(chart, state)
    speed = math.hypot(state.vx, state.vy)
    if speed == 0.0:
        raise ValueError("zero initial velocity has no geodesic")
    u = (-state.vy / speed, state.vx / speed)
    rt = chart.runtime()
    y0 = np.array([state.x, state.y, state.vx, state.vy, 0.0, 0.0, u[0], u[1]])

    def in_domain(y):
        return rt.in_domain(y[0], y[1])

    res = _adaptive_rk(_jacobi_rhs(rt), state.t, y0, state.t + t_max, opts,
                       in_domain=in_domain)
    jt = JacobiTrace(chart.name, res.ts, res.ys, res.termination,
                     res.dense, res.n_accepted, res.n_rejected)

    w = jt.jacobi_cross()
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
                wm = jt.jacobi_cross(mid)
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


def _golden_min(f, a, b, tol=1e-10):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
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


def detect_closure(chart, state, t_max, tol=1e-6, opts=None):
    """Detect whether the geodesic through state closes up within t_max.

    A geodesic counts as closed when the full phase-space point (position,
    raw velocity) returns within tol of the start; positions are compared
    modulo the chart's coordinate periods.  Returns a ClosureReport carrying
    the trace (terminated at the detected period when closure happens).

    The return distance is watched on a grid finer than the accepted steps,
    through the dense output: on stretches the integrator resolves exactly
    the steps grow so large that every step endpoint would miss the dip.
    """
    px, py = chart.periods
    x0, y0 = state.x, state.y
    v0 = np.array([state.vx, state.vy])
    v_scale = max(float(np.hypot(*v0)), 1e-12)

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
        dv = math.hypot(yv[2] - v0[0], yv[3] - v0[1]) / v_scale
        return math.hypot(dx, dy) + dv

    arm_radius = max(1e-3, 10.0 * tol)
    h_watch = (t_max - state.t) / 512.0
    history = []
    best = {"d": math.inf, "t": None}
    armed = {"on": False}

    def observer(t0, t1, y1, dense):
        n_sub = max(1, int(math.ceil((t1 - t0) / h_watch)))
        for j in range(1, n_sub + 1):
            tj = t1 if j == n_sub else t0 + (t1 - t0) * (j / n_sub)
            dj = distance_of(y1 if j == n_sub else dense(tj))
            history.append((tj, dj))
            if not armed["on"]:
                if dj > arm_radius:
                    armed["on"] = True
                continue
            if dj < best["d"]:
                best["d"], best["t"] = dj, tj
            if len(history) < 3:
                continue
            (ta, da), (tb, db), (tc, dc) = history[-3], history[-2], history[-1]
            if not (db <= da and db <= dc):
                continue

            tstar, dstar = _golden_min(lambda t: distance_of(dense(t)), ta, tc)
            if dstar < best["d"]:
                best["d"], best["t"] = dstar, tstar
            if dstar <= tol:
                report = ClosureReport(True, float(tstar - state.t),
                                       float(dstar), float(tstar), tol)
                return (Termination.CLOSURE, report)
        return None

    trace = integrate_geodesic(chart, state, t_max, opts=opts, observer=observer)
    if trace.closure is not None:
        report = trace.closure
        report.trace = trace
        return report
    report = ClosureReport(False, None, float(best["d"]),
                           best["t"], tol, trace=trace)
    trace.closure = report
    return report


def trace_to_csv(chart, trace, fileobj, extra_columns=()):
    """Write t, x, y, vx, vy, energy and any extra named columns.

    extra_columns is a sequence of (name, fn) with fn(state) -> float.
    """
    coeffs = chart.runtime().coeffs
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["t", "x", "y", "vx", "vy", "energy"]
                    + [name for name, _ in extra_columns])
    for i in range(len(trace.ts)):
        s = trace.state_at_index(i)
        E, F, G = coeffs(s.x, s.y)
        energy = E * s.vx ** 2 + 2.0 * F * s.vx * s.vy + G * s.vy ** 2
        row = [repr(float(v)) for v in
               (s.t, s.x, s.y, s.vx, s.vy, energy)]
        row += [repr(float(fn(s))) for _, fn in extra_columns]
        writer.writerow(row)
