"""Geodesic flow integration.

The stepper is DOP853, the order-8 Runge-Kutta method of Dormand and
Prince with Hairer's 5th/3rd-order error estimate, the first-same-as-last
optimization, a step-size controller with the order-8 exponent 1/8 and
the method's order-7 dense-output interpolant per accepted step (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.5-6).  On top of it sit the geodesic system, the
geodesic by the Euclidean arc length of its chart image (for comparing
unparametrised curves), the geodesic jointly with the scalar Jacobi
equation of its normal Jacobi field (for conjugate points) and closure
detection for periodic orbits.  Every trace is a GeodesicTrace, started
from a GeodesicState and, for the Jacobi field, jn = 0 and jp = 1.

The systems have four or six components, too few for numpy to pay off: a
numpy call costs more than the arithmetic it does on four floats.  So the
stepper runs on plain Python floats.  States are tuples, and one step
attempt is generated per system and chart: straight-line code in which
each stage's point, the order-8 update and the error estimate are written
out term by term, with the zero entries of the tableau dropped.  The
system's right-hand side rhs(s) is generated with it, as one expression
tree per component with the chart's bundle: `_SYSTEMS` builds the system's
derivative as trees over the chart's fields (the Christoffel symbols and,
for the Jacobi system, the curvature) and the state's components, and
metric._Runtime.source writes them with the emitter compiled fields use.
So a constant entry of the chart, such as a Christoffel symbol its
symmetry makes 0, folds away with every term it kills, and a node the
bundle and the system share is computed once.  rhs tests its components
for finiteness, and each stage calls it; it calls nothing but the
elementary functions.  The step is compiled, by expr.compile_function, on
a chart runtime's first trace of the system and kept on the runtime.  An
accepted step keeps only the stages its interpolant needs; the
interpolant, which takes three more stages, is built from them for a step
only when the dense output is evaluated there, and most traces never are.
Only the finished trace is turned into arrays.  The sums run in a fixed
order without fused multiply-adds, so the results do not depend on the
machine's BLAS.  The dense output refuses to extrapolate: it raises
ValueError a few ulps outside the traced range.

Every trace runs at the tolerances `ATOL` (1e-11) and `RTOL` (1e-10) on a
budget of `MAX_STEPS` (300 000) step attempts, with `H_MIN` (1e-13) as the
smallest step; the stepper reads these module constants once per trace.
A trace counts its right-hand side evaluations (n_rhs): two to start, the
initial slope and the step-size guess, then stages 2 to 12 per attempted
step and stage 13 per attempt whose error passed, the step a domain exit
drops included; that is 12 per accepted and 11 per rejected step.  An
attempt that a failing stage cuts short is counted as if it ran all 11.
The dense output counts its own evaluations, three per step it builds the
interpolant of (DenseOutput.n_rhs).

Traces terminate for one of five reasons: the requested parameter time was
reached, the trajectory left the chart domain (checked at the end of each
step and at the midpoint of the cubic Hermite interpolant through its ends
and their slopes, (y0 + y1) / 2 + h (k1 - k13) / 8, since no stage lies at
the midpoint; and, on a chart with an excluded disc, along the chord of
the step), the step size stalled (the numerical signature of hitting a
metric singularity or a finite-time blowup), closure was detected by the
observer, or the step budget ran out.

An observer, if given, is called as observer(t0, t1, y1, dense) after every
accepted step from t0 to t1, with y1 the state at t1 and dense the
interpolant over the steps so far, this one included.  A true return value
ends the trace there as `closure-detected`; the observer keeps whatever it
found in its own scope, and the trace does not refer to it.

A blowup shows up as accepted steps that shrink geometrically without end:
on x(t) = 1/(1 - t) the step size falls about one decade every 23 steps all
the way down to `H_MIN`.  The stepper reads that stall early, as in
Hairer's "step size too small" exit: once an accepted step is smaller than
`_STALL` (1e-3) times the largest step the trace has accepted, the trace
ends as a singularity.  Regular traces keep their steps well above that: no
step but a final one cut short to land on t_max falls below 9.9e-3 of the
largest before it, over 50 sampled states per catalogue chart and every
trace the equivalence decider draws for the benchmark pairs at seed 12345
(at decider seed 4242 one projective-shift trace reaches 1.3e-3).  A
blowup crosses 1e-3 after about a quarter of the steps it would take to
reach `H_MIN`.

One kind of regular trace does stall: a geodesic grazing a coordinate
pole, where the chart rather than the metric degenerates.  On the round
sphere in colatitude/longitude coordinates a great circle passing within
1e-3 of a pole shrinks its steps to 3.8e-4 of their largest and grows them
back; passing within 1e-5, it shrinks them to 3e-6.  A coordinate pole
shrinks a coefficient of the metric (G = sin^2 x there), while a metric
singularity blows one up (g11 ~ 1/cos^4 x at the truncation partner's
equator).  So a stalled step ends the trace unless the metric degenerates
there as at a pole: the degeneracy ratio |det g| / max(E^2, F^2, G^2)
(metric.degeneracy_ratio) at the new point has fallen below
`_DEGENERATING` (1e-2) times its value at the trace start, and the size
max(|E|, |F|, |G|) has not grown past `_GROWN` (1e2) times its start
value.  Both are read only on stalled steps.  Near a pole the ratio is
about sin^2 of the colatitude: the grazes above stall only where it is
below 1.8e-5 of its start, with the size at most its start, and carry on.
On every measured blowup (the catalogue states above and the decider
traces at seeds 12345, 4242 and 99) the ratio stays above 0.97 of its
start.  Where it falls at a metric singularity, at the truncation
partner's equator and the deformed tannery chart's band edge in those
decider traces, the size has grown 2.5e6 times or more.  Excusing those
stalls let a trace run through the singularity and back.  `H_MIN` and
`MAX_STEPS` remain the last-resort floors.
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
    "find_conjugate_points", "detect_closure", "brent_min", "trace_to_csv",
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


# DOP853, the order-8 Runge-Kutta method of Dormand and Prince with
# Hairer's 5th/3rd-order error estimate and order-7 dense output (Hairer,
# Norsett & Wanner, Solving ODEs I, sec. II.5-6), its coefficients as
# published with their code dop853.f.  _C are the nodes of stages 1 to 16
# and _ROWS[i] weighs stages 1 to i for stage i + 1.  Every system is
# autonomous, so the nodes only document the tableau.  Stages 1 to 12 make
# a step; the order-8 weights _B are the row of stage 13, which is
# evaluated at the new state itself and becomes the next step's first
# stage (FSAL).  Stages 14 to 16 serve the dense output alone.
_C = (0.0, 0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
      0.281649658092772603273242802490, 0.333333333333333333333333333333,
      0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
      1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778)
_ROWS = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
     0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_B = _ROWS[12]
# the 5th-order error weights, and the 3rd-order weights _BHH that the
# order-8 weights minus them give the 3rd-order error weights
_ER = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
      -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
      0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
      0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
      -0.2235530786388629525884427845e-1)
_BHH = (0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0,
        0.220588235294117647058823529412e-1)
# the dense output's coefficients c3 to c6 of a component (see
# _interpolate) are h times these rows' weighted sums of stages 1 to 16
_D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
)


_RHS_ERRORS = EVAL_ERRORS + (FloatingPointError,)

# An accepted step below _STALL times the trace's largest accepted step ends
# the trace as a singularity, unless the metric degenerates there as at a
# coordinate pole: its degeneracy ratio has fallen below _DEGENERATING
# times its start value while its size max(|E|, |F|, |G|) has not grown
# past _GROWN times its start value (see the module docstring).
_STALL = 1e-3
_DEGENERATING = 1e-2
_GROWN = 1e2


def _combo(weights, names):
    """The weighted sum as source, left to right, without zero weights."""
    return " + ".join(v if w == 1.0 else "%r * %s" % (w, v)
                      for w, v in zip(weights, names) if w)


# the stages a step keeps for its dense output: those the extra stages 14
# to 16 and the rows _D weigh, stage 13 among them
_KEPT = tuple(s for s in range(13)
              if any(row[s] for row in _ROWS[13:] + _D))


def _interpolate(y0, u, c0, c1, c2, c3, c4, c5, c6):
    """A component at t0 + u h on a step from y0, by the coefficients the
    step's interpolant function returns for it: the order-7 polynomial

      y0 + u (c0 + v (c1 + u (c2 + v (c3 + u (c4 + v (c5 + u c6)))))),

    v = 1 - u, as in dop853.f's contd8.  The arguments may be floats or
    numpy arrays: either way the same operations run in the same order, so
    the values agree bit for bit.
    """
    v = 1.0 - u
    return y0 + u * (c0 + v * (c1 + u * (c2 + v * (c3 + u * (
        c4 + v * (c5 + u * c6))))))


class DenseOutput:
    """Piecewise order-7 interpolant over the accepted steps.

    ts and ys are the trace's own lists of times and states, shared with the
    stepper rather than copied: step i starts at ts[i] with state ys[i] and
    has length hs[i], so ts holds one entry more than hs.  ks[i] holds the
    step's stages that the interpolant needs (see _kept), packed as C
    doubles: a tuple of Python floats takes three times the memory, which
    long traces notice.  The interpolant of a step is built from them and
    the system's right-hand side rhs (see _interpolant_source) only when a
    time in that step is evaluated: it takes three more right-hand side
    evaluations (stages 14 to 16), which n_rhs counts, and most traces,
    such as the conservation traces and every trace that ends in a
    singularity, are never evaluated.
    The seven coefficients per component are kept in cs, by step.  Calling
    the interpolant evaluates every component at one time, or one component
    alone; positions() evaluates x and y at an array of times in one pass,
    through the same _interpolate, so its values equal the scalar ones bit
    for bit.  Evaluating outside the traced range raises ValueError.
    """

    def __init__(self, ts, ys, rhs=None):
        self.ts = ts
        self.ys = ys
        self.hs = []
        self.ks = []
        self.cs = {}
        self.n_rhs = 0
        self.rhs = rhs

    def _check_range(self, t):
        """Raise ValueError unless t lies in the traced range, up to 4 ulps."""
        if not self.hs:
            raise ValueError("empty trace has no interpolant")
        lo, hi = self.ts[0], self.ts[len(self.hs)]
        slack = 4.0 * math.ulp(max(abs(lo), abs(hi)))
        if not lo - slack <= t <= hi + slack:
            raise ValueError("t = %r is outside the trace [%r, %r]"
                             % (t, lo, hi))

    def _coefficients(self, i):
        """Step i's coefficients, packed, built on the first request."""
        c = self.cs.get(i)
        if c is None:
            y0 = self.ys[i]
            c = self.cs[i] = _interpolant(len(y0))(
                self.rhs, self.hs[i], y0, self.ys[i + 1],
                *memoryview(self.ks[i]).cast("d"))
            self.n_rhs += 3
        return c

    def __call__(self, t, j=None):
        """The state at t as an array, or its component j alone as the
        float the array holds there."""
        self._check_range(t)
        ts = self.ts
        i = max(bisect_right(ts, t, 0, len(self.hs)) - 1, 0)
        c = memoryview(self._coefficients(i)).cast("d")
        u = (t - ts[i]) / self.hs[i]
        if j is not None:
            return _interpolate(self.ys[i][j], u, *c[7 * j:7 * j + 7])
        return np.array([_interpolate(y, u, *c[7 * j:7 * j + 7])
                         for j, y in enumerate(self.ys[i])])

    def positions(self, ts):
        """x and y at the times ts, as an array of shape (len(ts), 2).

        One searchsorted finds every time's step, then the interpolant runs
        on whole columns of the coefficients of those steps.
        """
        ts = np.asarray(ts, dtype=float)
        self._check_range(float(np.min(ts)))
        self._check_range(float(np.max(ts)))
        n = len(self.hs)
        t0 = np.array(self.ts[:n])
        i = np.maximum(np.searchsorted(t0, ts, side="right") - 1, 0)
        steps, at = np.unique(i, return_inverse=True)
        c = np.frombuffer(b"".join([self._coefficients(s) for s in
                                    steps.tolist()])).reshape(len(steps), -1)
        c = c[at, :14]
        u = (ts - t0[i]) / np.array(self.hs)[i]
        y0 = np.array(self.ys[:n])[i, :2]
        out = np.empty((len(ts), 2))
        for j in (0, 1):
            out[:, j] = _interpolate(y0[:, j], u, *c[:, 7 * j:7 * j + 7].T)
        return out


def _rms(v):
    return math.sqrt(sum(x * x for x in v) / len(v))


def _shape(E, F, G):
    """The metric's degeneracy ratio and its size max(|E|, |F|, |G|)."""
    return degeneracy_ratio(E, F, G), max(abs(E), abs(F), abs(G))


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


def _combo_k(weights, j):
    """The weighted sum of the stages' component j as source."""
    return _combo(weights, ["k%d_%d" % (s + 1, j) for s in range(16)])


def _stage(i, n):
    """The statement that sets stage i's n components k<i>_<j> to rhs at
    the stage's point, from the state components s<j>."""
    return "%s, = rhs((%s,))" % (
        ", ".join("k%d_%d" % (i, j) for j in range(n)),
        ", ".join("s%d + h * (%s)" % (j, _combo_k(_ROWS[i - 1], j))
                  for j in range(n)))


def _kept(n):
    """The names of the stages a step keeps, in DenseOutput.ks's order:
    stages 1 and 6 to 12 component by component, then stage 13's
    components."""
    return (["k%d_%d" % (s + 1, j) for j in range(n) for s in _KEPT[:-1]]
            + ["k13_%d" % j for j in range(n)])


def _step_source(names, body, outs):
    """Source of bind(atol, rtol) -> (rhs, attempt) for one system on one
    chart: names are the state's components, and body and outs the
    lines and the derivative's components metric._Runtime.source writes
    for the system's right-hand side.

    rhs(s) is the system's derivative at the state s, as a tuple: the body
    reads the state under names, and rhs raises FloatingPointError unless
    all the derivative's components are finite (k * 0.0 is +-0.0 for a
    finite k and nan otherwise, so one isfinite over the sum of those tests
    them all).  attempt(h, s, k1) evaluates stages 2 to 12 of one DOP853
    step from s with first stage k1 and returns (err, z, k): the error
    norm, the order-8 state and the stages 1 and 6 to 12 packed for
    DenseOutput, component by component.  Stage 13, rhs(z), is left to the
    caller, for an accepted step alone.  s<j> and z<j> are the components
    of s and z, and k<i>_<j> those of stage i.  Each stage calls rhs on its
    point: written into every stage, the bundle would triple the compiled
    code for little gain.  Every sum is written out term by term on plain
    floats, without the tableau's zero entries.
    """
    n = len(names)
    comps = range(n)
    lines = ["def rhs(s):",
             "    %s, = s" % ", ".join(names)]
    lines += ["    " + b for b in body]
    lines += ["    f%d = %s" % (j, o) for j, o in enumerate(outs)]
    lines += ["    if not isfinite(%s):" % " + ".join(
                  "f%d * 0.0" % j for j in comps),
              "        raise FloatingPointError("
              "'right-hand side is not finite')",
              "    return (%s,)" % ", ".join("f%d" % j for j in comps),
              "def bind(atol, rtol):",
              "    def attempt(h, s, k1):",
              "        %s, = s" % ", ".join("s%d" % j for j in comps),
              "        %s, = k1" % ", ".join("k1_%d" % j for j in comps)]
    lines += ["        " + _stage(i, n) for i in range(2, 13)]
    # the scale atol + rtol * max(abs(s), abs(z)), where max(a, b) is a
    # unless b > a, and the 5th- and 3rd-order error terms over it
    e3 = tuple(b - c for b, c in zip(_B, _BHH))
    for j in comps:
        lines += ["        z%d = s%d + h * (%s)" % (j, j, _combo_k(_B, j)),
                  "        a_s%d = %s" % (j, _abs("s%d" % j)),
                  "        a_z%d = %s" % (j, _abs("z%d" % j)),
                  "        w%d = atol + rtol * (a_z%d if a_z%d > a_s%d else "
                  "a_s%d)" % (j, j, j, j, j),
                  "        e%d = (%s) / w%d" % (j, _combo_k(_ER, j), j),
                  "        g%d = (%s) / w%d" % (j, _combo_k(e3, j), j)]
    # h |e|^2 / sqrt(n (|e|^2 + 0.01 |g|^2)), 0 where e is 0 and nan
    # where it is nan
    lines += ["        e = %s" % " + ".join("e%d * e%d" % (j, j)
                                           for j in comps),
              "        g = %s" % " + ".join("g%d * g%d" % (j, j)
                                           for j in comps),
              "        err = h * e / sqrt(%d.0 * (e + 0.01 * g)) if e > 0.0 "
              "else e" % n,
              "        return (err, (%s,), pack(%s))" % (
                  ", ".join("z%d" % j for j in comps),
                  ", ".join(_kept(n)[:-n])),
              "    return rhs, attempt"]
    return "\n".join(lines) + "\n"


def _interpolant_source(n):
    """Source of interpolant(rhs, h, s, z, *k) for a system of n
    components: with rhs the system's right-hand side and k the stages a
    step from s to z keeps (see _kept), it evaluates stages 14 to 16 and
    returns the seven coefficients per component of _interpolate on the
    step, packed component by component.  It does not depend on the
    chart, so one serves every system of n components."""
    lines = ["def interpolant(rhs, h, s, z, %s):" % ", ".join(_kept(n)),
             "    %s, = s" % ", ".join("s%d" % j for j in range(n)),
             "    %s, = z" % ", ".join("z%d" % j for j in range(n))]
    lines += ["    " + _stage(i, n) for i in range(14, 17)]
    coeffs = []
    for j in range(n):
        lines += ["    c0_%d = z%d - s%d" % (j, j, j),
                  "    c1_%d = h * k1_%d - c0_%d" % (j, j, j),
                  "    c2_%d = 2.0 * c0_%d - h * (k13_%d + k1_%d)"
                  % (j, j, j, j)]
        lines += ["    c%d_%d = h * (%s)" % (m + 3, j, _combo_k(row, j))
                  for m, row in enumerate(_D)]
        coeffs += ["c%d_%d" % (m, j) for m in range(7)]
    lines.append("    return pack(%s)" % ", ".join(coeffs))
    return "\n".join(lines) + "\n"


_INTERPOLANTS = {}


def _interpolant(n):
    """The compiled interpolant for systems of n components, built on the
    first dense evaluation of such a system."""
    fn = _INTERPOLANTS.get(n)
    if fn is None:
        fn = _INTERPOLANTS[n] = compile_function(
            _interpolant_source(n), "interpolant",
            "<geoproj.flow dop853 interpolant %d>" % n,
            pack=struct.Struct("%dd" % (7 * n)).pack)
    return fn


def _binder(rt, system):
    """The compiled bind function of the system on the chart runtime rt,
    built on the runtime's first trace of the system, kept in rt.compiled."""
    fn = rt.compiled.get(system)
    if fn is None:
        leaves, curvature, build, _ = _SYSTEMS[system]
        n = len(leaves)
        body, outs = rt.source(build, curvature)
        src = _step_source([v.name for v in leaves], body, outs)
        fn = rt.compiled[system] = rt.compile(
            src, "bind", "<geoproj.flow dop853 %s>" % system,
            isfinite=isfinite, FloatingPointError=FloatingPointError,
            pack=struct.Struct("%dd" % ((len(_KEPT) - 1) * n)).pack)
    return fn


def _initial_step(rhs, y0, f0, t_span, atol, rtol):
    # Hairer's hinit for a method of order 8
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
    h1 = (0.01 / dm) ** 0.125 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
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
    the step must miss it too.  The metric's coefficients come from
    rt.coeffs.  Returns the trace fields (ts, ys, termination, dense,
    n_accepted, n_rejected, n_rhs).
    """
    atol, rtol, h_min, max_steps = ATOL, RTOL, H_MIN, MAX_STEPS
    rhs, attempt = _binder(rt, system)(atol, rtol)
    pack_f = struct.Struct("%dd" % len(y0)).pack
    in_domain = rt.in_domain
    r2 = rt.exclude_r2
    y = tuple(map(float, y0))
    t = float(t0)
    try:
        f = rhs(y)
    except _RHS_ERRORS as exc:
        raise DomainError("right-hand side fails at the initial state: %s" % exc)

    ts = [t]
    ys = [y]
    dense = DenseOutput(ts, ys, rhs)
    ts_append, ys_append = ts.append, ys.append
    hs_append, ks_append = dense.hs.append, dense.ks.append
    h = _initial_step(rhs, y, f, t_max - t0, atol, rtol)
    n_acc = 0
    n_rej = 0
    n_last = 0      # evaluations of stage 13
    termination = Termination.TIME_LIMIT
    h_peak = 0.0
    start = None
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
            err, y1, k = attempt(h, y, f)
            if err <= 1.0:
                n_last += 1
                f1 = rhs(y1)
            elif not isfinite(err):
                raise FloatingPointError("error estimate is not finite")
        except _RHS_ERRORS:
            n_rej += 1
            h = max(0.1 * h, h_min * 0.5)
            continue

        # the step-size factor 0.9 err^(-1/8) of an order-8 method, kept in
        # [0.2, 10] after an accepted step and in [0.2, 0.9] after a
        # rejected one; min(hi, max(lo, q)) as comparisons, which give the
        # same float: max(a, b) is a unless b > a, and min(a, b) is a
        # unless b < a
        q = 0.9 * err ** -0.125 if err > 0.0 else 10.0
        if err <= 1.0:
            t1 = t + h
            # the cubic Hermite interpolant's midpoint: DOP853 has no stage
            # at u = 1/2
            mh = 0.125 * h
            if not (in_domain(y1[0], y1[1]) and in_domain(
                    0.5 * (y[0] + y1[0]) + mh * (f[0] - f1[0]),
                    0.5 * (y[1] + y1[1]) + mh * (f[1] - f1[1]))) or (
                    r2 > 0.0 and _chord_hits_disc(y[0], y[1], y1[0], y1[1],
                                                  r2)):
                # the trace ends inside the domain, before this step
                termination = Termination.DOMAIN_EXIT
                break
            hs_append(h)
            ks_append(k + pack_f(*f1))
            ts_append(t1)
            ys_append(y1)
            n_acc += 1
            if observer is not None and observer(t, t1, y1, dense):
                termination = Termination.CLOSURE
                break
            t = t1
            y = y1
            f = f1  # first-same-as-last
            if h > h_peak:
                h_peak = h
            if h < _STALL * h_peak and t < t_end:
                if start is None:
                    start = _shape(*rt.coeffs(ys[0][0], ys[0][1]))
                ratio, size = _shape(*rt.coeffs(y[0], y[1]))
                if not (ratio < _DEGENERATING * start[0]
                        and size <= _GROWN * start[1]):
                    termination = Termination.SINGULARITY
                    break
            h *= (q if q < 10.0 else 10.0) if q > 0.2 else 0.2
        else:
            n_rej += 1
            h *= (q if q < 0.9 else 0.9) if q > 0.2 else 0.2

    # two evaluations start the trace; every attempted step makes stages 2
    # to 12, the step a domain exit drops included, and the attempts whose
    # error passed also stage 13
    attempts = n_acc + n_rej + (termination is Termination.DOMAIN_EXIT)
    return (np.array(ts), np.array(ys), termination, dense, n_acc, n_rej,
            2 + 11 * attempts + n_last)


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


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
# brent_min stops where the values at its three parabola points lie within
# this many ulps of the best
_FLAT_ULPS = 4


def brent_min(f, a, b, tol):
    """Brent's minimiser for f on [a, b]: parabolic steps through the three
    best points, golden-section steps where a parabola would not shrink
    the bracket fast enough (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5).

    Narrows the bracket around the best point t until t is at most tol / 2
    from either end, so the bracket is at most tol wide, or until rounding
    stops it: no probe comes closer to t than the larger of tol / 4 and the
    float spacing at t.  It also stops, returning the best probe, where f
    is flat to rounding: once the three points the parabola goes through,
    t, w and v, are distinct and f(w) and f(v) both read within
    _FLAT_ULPS ulps of f(t).  Two points are not enough: the first
    golden-section probe mirrors the first point about the middle of the
    bracket, so on a minimum near the middle the two read alike without f
    being flat.  Returns (t, f(t)).
    """
    # t is the best point so far, w the second best and v the previous w
    t = w = v = a + _GOLDEN * (b - a)
    ft = fw = fv = f(t)
    # the last step, and the one before it (after a golden-section step,
    # the side of the bracket that step divided)
    step = prev = 0.0
    while True:
        mid = 0.5 * (a + b)
        near = max(0.25 * tol, math.ulp(t))
        if max(t - a, b - t) <= 2.0 * near:
            return t, ft
        parabolic = False
        if abs(prev) > near:
            r = (t - w) * (ft - fv)
            q = (t - v) * (ft - fw)
            p = (t - v) * q - (t - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept the parabola's vertex when it lies inside the bracket
            # and the step is under half the step before last
            parabolic = (abs(p) < abs(0.5 * q * prev)
                         and q * (a - t) < p < q * (b - t))
            prev = step
        if parabolic:
            step = p / q
            if t + step - a < 2.0 * near or b - (t + step) < 2.0 * near:
                step = near if t < mid else -near
        else:
            prev = (b - t) if t < mid else (a - t)
            step = _GOLDEN * prev
        u = t + (step if abs(step) >= near else math.copysign(near, step))
        fu = f(u)
        if fu <= ft:
            if u < t:
                b = t
            else:
                a = t
            v, fv, w, fw, t, ft = w, fw, t, ft, u, fu
        else:
            if u < t:
                a = u
            else:
                b = u
            if fu <= fw or w == t:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == t or v == w:
                v, fv = u, fu
        flat = _FLAT_ULPS * math.ulp(ft)
        if t != w != v != t and abs(fw - ft) <= flat \
                and abs(fv - ft) <= flat:
            return t, ft


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
    A dip on that grid is refined by brent_min on the dense output, to a
    bracket at most 1e-10 wide in t.
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

            tstar, dstar = brent_min(lambda t: distance_of(dense(t)),
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
