"""Deciding how two metrics on a shared chart are related.

Three graded relations, in decreasing strength: isometry (same metric after
a coordinate change), affinity (same parametrised geodesics), projective
equivalence (same geodesics up to reparametrisation).  Isometry and affinity
along a map phi compare g with phi^* g at sampled points p, without building
phi^* g as a chart: its coefficients are J^T g(phi(p)) J and its connection
(J^-1)^k_c (G^c_ab(phi(p)) J^a_i J^b_j + d_i d_j phi^c) by the chain rule,
with phi, its Jacobian J and its second derivatives from the map's one
compiled bundle (ChartMap.jet), and p lies in phi^* g's domain when phi(p)
lies in g's, as pullback's substituted domain has it.  Projective
equivalence is decided by conserving the pair integral and by shooting the
same initial conditions through both flows and comparing the traced curves.
The Liouville symmetry search at the bottom looks for the specific swap maps
that exchange the two profile functions of a separable metric.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import expr, sampling
from .expr import X, Y
# integrate_geodesic and pullback are unused here: perfbench/spans.py wraps
# them by these names
from .flow import brent_min, integrate_by_arclength, integrate_geodesic
from .integrals import (DegenerateRatioError, check_conservation,
                        darboux_integral)
from .metric import ChartMap, DomainError, pullback

__all__ = [
    "EquivalenceReport", "MapCheck", "LiouvilleSymmetry",
    "check_projective_equivalence", "check_isometry", "check_affinity",
    "liouville_isometry_search", "liouville_swap_map",
]

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
INCONCLUSIVE = "inconclusive"

# the largest distance between the two traced curves that counts as overlap
OVERLAP_TOL = 1e-4


@dataclass
class EquivalenceReport:
    """Outcome of the projective-equivalence test for one metric pair."""

    g: str
    gbar: str
    verdict: str
    max_drift: float
    max_overlap: float
    n_conserved: int
    n_overlap: int
    drift_tol: float
    overlap_tol: float
    seed: int
    reason: str = ""

    def to_json_dict(self):
        return {
            "schema": 2,
            "g": self.g,
            "gbar": self.gbar,
            "verdict": self.verdict,
            "max_drift": self.max_drift,
            "max_overlap": self.max_overlap,
            "n_traces": min(self.n_conserved, self.n_overlap),
            "n_conserved": self.n_conserved,
            "n_overlap": self.n_overlap,
            "drift_tol": self.drift_tol,
            "overlap_tol": self.overlap_tol,
            "seed": self.seed,
            "reason": self.reason,
        }


def check_projective_equivalence(g, gbar, n_traces=20, drift_tol=1e-6,
                                 t_max=1.0, seed=None):
    """Decide whether two metrics share their unparametrised geodesics.

    Two independent measurements.  First, the pair integral built from the
    determinant ratio must be conserved along the flow of g (max drift per
    unit parameter over sampled geodesics).  Second, shooting the same
    initial point and velocity through both flows must trace the same curve:
    both are traced by the Euclidean arc length of their chart image, so
    t_max is an arc length here and a parameter length for the conservation
    traces, and compared at 51 equal arc lengths over the arc both cover;
    they must stay within OVERLAP_TOL.  Both measurements leave out the
    traces that have a GeodesicTrace.drop_reason, and the overlap test
    also the states outside gbar's domain.

    The verdict is "equivalent" only if both measurements pass with enough
    usable traces, "not-equivalent" if either fails by a factor of ten, and
    "inconclusive" in between, or when the pair integral cannot be built or
    g's sample box holds too little of its domain to sample.
    """
    seed = sampling.resolve_seed(seed)

    try:
        pair = darboux_integral(g, gbar)
        conservation = check_conservation(
            g, pair, n_samples=n_traces, t_max=t_max, seed=seed,
            tol=drift_tol)
    except (DegenerateRatioError, DomainError) as err:
        return EquivalenceReport(
            g=g.name, gbar=gbar.name, verdict=INCONCLUSIVE,
            max_drift=math.inf, max_overlap=math.inf, n_conserved=0,
            n_overlap=0, drift_tol=drift_tol, overlap_tol=OVERLAP_TOL,
            seed=seed, reason=str(err))

    rng = np.random.default_rng(seed + 1)
    in_bar = gbar.runtime().in_domain
    fractions = np.linspace(0.0, 1.0, 51)
    overlaps = []
    attempts = 0
    wanted = min(8, n_traces)
    while len(overlaps) < wanted and attempts < 20 * wanted:
        attempts += 1
        try:
            state = sampling.sample_states(g, 1, rng)[0]
        except DomainError:
            break
        if not in_bar(state.x, state.y):
            continue
        # the partner is traced only when the trace of g is usable
        trace_g = integrate_by_arclength(g, state, t_max)
        if trace_g.drop_reason is not None:
            continue
        trace_b = integrate_by_arclength(gbar, state, t_max)
        if trace_b.drop_reason is not None:
            continue
        at = state.t + fractions * min(trace_g.length, trace_b.length)
        a, b = trace_g.dense.positions(at), trace_b.dense.positions(at)
        overlaps.append(float(np.max(np.hypot(*(a - b).T))))

    max_overlap = max(overlaps) if overlaps else math.inf
    n_cons, n_over = conservation.n_used, len(overlaps)

    if n_cons >= 5 and n_over >= 3 \
            and conservation.max_drift <= drift_tol \
            and max_overlap <= OVERLAP_TOL:
        verdict, reason = EQUIVALENT, ""
    elif (n_cons >= 3 and conservation.max_drift > 10.0 * drift_tol) \
            or (n_over >= 3 and max_overlap > 10.0 * OVERLAP_TOL):
        verdict, reason = NOT_EQUIVALENT, ""
    else:
        verdict = INCONCLUSIVE
        reason = ("too few usable traces (%d conserved, %d overlap)"
                  % (n_cons, n_over)) if (n_cons < 5 or n_over < 3) else \
            "measurements inside the gray zone"
    return EquivalenceReport(
        g=g.name, gbar=gbar.name, verdict=verdict,
        max_drift=conservation.max_drift, max_overlap=max_overlap,
        n_conserved=n_cons, n_overlap=n_over, drift_tol=drift_tol,
        overlap_tol=OVERLAP_TOL, seed=seed, reason=reason)


@dataclass
class MapCheck:
    """Result of comparing a metric with its pullback along a map."""

    kind: str
    chart: str
    map_name: str
    max_residual: float
    tol: float
    n_points: int
    passed: bool

    def to_json_dict(self):
        return {
            "schema": 1,
            "kind": self.kind,
            "chart": self.chart,
            "map": self.map_name,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "pass": self.passed,
        }


def _congruence(m11, m12, m22, ux, uy, vx, vy):
    """The entries 11, 12 and 22 of J^T M J, for the symmetric M with
    entries m11, m12, m22 and J = [[ux, uy], [vx, vy]]."""
    return (m11 * ux * ux + 2.0 * m12 * ux * vx + m22 * vx * vx,
            m11 * ux * uy + m12 * (ux * vy + uy * vx) + m22 * vx * vy,
            m11 * uy * uy + 2.0 * m12 * uy * vy + m22 * vy * vy)


def _pulled_coefficients(coeffs, jet):
    """(E, F, G) of phi^* g at p by the chain rule, J^T g(phi(p)) J, where
    jet is phi.jet at p and coeffs is g's coefficient evaluator."""
    u, v, ux, uy, vx, vy = jet[:6]
    return _congruence(*coeffs(u, v), ux, uy, vx, vy)


def _pulled_connection(christoffel_at, jet):
    """The Christoffel symbols of phi^* g at p by the chain rule, in the
    order of the runtime's christoffel evaluator (G^1_11, G^1_12, G^1_22,
    G^2_11, G^2_12, G^2_22):

        Gbar^k_ij = (J^-1)^k_c (G^c_ab(phi(p)) J^a_i J^b_j + d_i d_j phi^c)

    where jet is phi.jet at p and christoffel_at is g's runtime evaluator.
    A singular J raises ZeroDivisionError."""
    u, v, ux, uy, vx, vy, uxx, uxy, uyy, vxx, vxy, vyy = jet
    _, _, _, a, b, c, d, e, f = christoffel_at(u, v)
    t1 = _congruence(a, b, c, ux, uy, vx, vy)
    t2 = _congruence(d, e, f, ux, uy, vx, vy)
    t1 = (t1[0] + uxx, t1[1] + uxy, t1[2] + uyy)
    t2 = (t2[0] + vxx, t2[1] + vxy, t2[2] + vyy)
    det = ux * vy - uy * vx
    return (tuple((vy * p - uy * q) / det for p, q in zip(t1, t2))
            + tuple((ux * q - vx * p) / det for p, q in zip(t1, t2)))


def _map_check(kind, g, phi, tol, n, seed, values, scale):
    """Worst relative gap between g and phi^* g at up to n points of g.

    The points p are drawn one by one from g's sample box into g's domain,
    with up to 200 n draws.  phi^* g is not built: at each p,
    values(x, y, jet) gives the tuples a of g at p and b of phi^* g at p
    by the chain rule from jet = phi.jet(x, y), and the gap is
    max |a - b| / scale(a, b).  p belongs to phi^* g's domain when g's
    in_domain holds at phi(p), the rule pullback's substituted domain
    states; other points are drawn again.  A point where the jet raises or
    is not finite, where J is singular, or where values raises or gives a
    value that is not finite counts, with a gap of inf.  A map whose jet
    cannot be built (differentiating it folds a constant to a value that
    is not finite) fails with no point checked and a residual of inf.
    """
    try:
        jet_at = phi.jet
    except expr.ExpressionError:
        return MapCheck(kind, g.name, phi.name, math.inf, tol, 0, False)
    rng = np.random.default_rng(sampling.resolve_seed(seed))
    inside = g.runtime().in_domain
    worst, n_points, attempts = 0.0, 0, 0
    while n_points < n and attempts < 200 * n:
        attempts += 1
        try:
            x, y = sampling.sample_points(g, 1, rng)[0]
        except DomainError:
            break
        gap = math.inf
        try:
            jet = jet_at(x, y)
            if all(map(math.isfinite, jet)):
                if not inside(jet[0], jet[1]):
                    continue
                if jet[2] * jet[5] != jet[3] * jet[4]:
                    a, b = values(x, y, jet)
                    if all(map(math.isfinite, a + b)):
                        gap = (max(map(abs, map(operator.sub, a, b)))
                               / scale(a, b))
        except expr.EVAL_ERRORS:
            pass
        n_points += 1
        worst = max(worst, gap)
    return MapCheck(kind, g.name, phi.name,
                    worst if n_points else math.inf, tol, n_points,
                    bool(n_points) and worst <= tol)


def check_isometry(g, phi, tol=1e-8, n=40, seed=None):
    """Is phi an isometry, pulling g back to itself?

    Compares g's coefficients (E, F, G) at sampled points p with those of
    phi^* g, J^T g(phi(p)) J by the chain rule, normalised by the larger
    of the two coefficient scales.  phi^* g's domain is where phi(p) lies
    in g's domain; a point where phi or J is not finite, or J is singular,
    fails the check (see _map_check).
    """
    coeffs = g.runtime().coeffs
    return _map_check(
        "isometry", g, phi, tol, n, seed,
        lambda x, y, jet: (coeffs(x, y), _pulled_coefficients(coeffs, jet)),
        lambda a, b: max(1e-12, *map(abs, a + b)))


def check_affinity(g, phi, tol=1e-6, n=40, seed=None):
    """Does phi preserve the parametrised geodesics (the connection)?

    Compares g's Christoffel symbols at sampled points p with those of
    phi^* g, taken by the chain rule from g's symbols at phi(p), J and the
    second derivatives of phi (_pulled_connection), relative to the
    larger of 1 and g's largest symbol.  Isometries pass, and so do the
    affine maps that rescale the metric without bending its geodesics; a
    merely projective map fails.  The domain rule and the failing points
    are those of check_isometry.
    """
    chris = g.runtime().christoffel
    return _map_check(
        "affinity", g, phi, tol, n, seed,
        lambda x, y, jet: (chris(x, y)[3:], _pulled_connection(chris, jet)),
        lambda a, b: max(1.0, *map(abs, a)))


# ---------------------------------------------------------------------------
# the separable-metric symmetry search


@dataclass
class LiouvilleSymmetry:
    """Search result for a profile-swapping isometry of a separable metric."""

    found: bool
    kind: Optional[str]
    k: float
    c: float
    residual: float
    degenerate: bool
    candidates: dict = dc_field(default_factory=dict)


def liouville_swap_map(k, kind="swap"):
    """The candidate isometry of a separable metric for offset k.

    "swap" is (x, y) -> (y + k, x + k); "anti-swap" reverses orientation,
    (x, y) -> (-y + k, -x - k).  Both exchange the roles of the two profile
    functions.
    """
    k = float(k)
    if kind == "swap":
        return ChartMap("swap[k=%g]" % k, Y + k, X + k,
                        inverse=ChartMap("swap-inv", Y - k, X - k))
    if kind == "anti-swap":
        return ChartMap("anti-swap[k=%g]" % k, -Y + k, -X - k,
                        inverse=ChartMap("anti-swap-inv", -Y - k, -X + k))
    raise ValueError("kind must be 'swap' or 'anti-swap'")


def _profile_loop(field, var):
    """One compiled function (args, out) that appends to the list out the
    field's value at each argument of the list args, taken as the
    coordinate var with the other coordinate 0.0.  The loop body is the
    lines compile_fields writes, so every value is bit for bit the one
    compile_fields gives, and a point costs no Python call of its own.  If
    an argument raises, out holds the values before it."""
    lines, (value,) = expr.emit([field])
    src = ("def _profile(args, out):\n    %s = 0.0\n"
           "    for %s in args:\n%s        out.append(%s)\n"
           % ("y" if var == "x" else "x", var,
              "".join("        %s\n" % line for line in lines), value))
    return expr.compile_function(src, "_profile",
                                 "<geoproj.projective profile>")


def _profile_values(field, name, var):
    """The function from an array of arguments to the array of the
    field's values that _profile_loop compiles.  Where a value raises or
    is not finite, it raises expr.EvaluationError naming the profile and
    the argument."""
    loop = _profile_loop(field, var)

    def fail(arg, why):
        return expr.EvaluationError(
            "profile %s at %s = %r: %s" % (name, var, arg, why),
            point=(arg, 0.0) if var == "x" else (0.0, arg))

    def values(args):
        args, out = args.tolist(), []
        try:
            loop(args, out)
        except expr.EVAL_ERRORS as exc:
            raise fail(args[len(out)], str(exc)) from exc
        vals = np.array(out)
        finite = np.isfinite(vals)
        if not finite.all():
            i = int(np.argmin(finite))
            raise fail(args[i], "evaluated to %r" % out[i])
        return vals
    return values


def liouville_isometry_search(h1, h2, period):
    """Search for a swap or anti-swap isometry of the separable metric.

    Finds the best of 512 offsets k over one period, once per
    orientation, and refines it by Brent's minimiser (flow.brent_min) on
    the bracket of one grid step either side of it.  The bracket is taken
    cyclically: at the first offset it reaches below k = 0, so a minimum
    at or just below 0 lies inside it; a refined k is reported modulo the
    period, in [0, period).  An orientation is accepted when its combined
    residual (profile match after the swap plus the forced 2k-periodicity
    of h1, both sampled at 256 points) is at most 1e-8.  The swap is
    reported when it is accepted, the anti-swap when only it is; when
    neither is, the result is not found and carries the smaller of the two
    residuals.  So two orientations that both hold at rounding level
    report the swap.  Constant profile pairs are flagged degenerate: every
    offset works, so the best offset (0 for constant profiles) is reported
    unrefined, and k is not meaningful.  A profile that raises or gives a
    value that is not finite at a sample point raises expr.EvaluationError
    naming the profile and the point.

    Each profile is compiled into one loop over a list of arguments
    (_profile_loop), so a list of sample points costs one Python call.
    The sample points xs and the offsets ks lie on one grid, points[n] =
    n * period / 512, as xs[i] = points[2i] and ks[j] = points[j].  The
    search reads xs[i] + ks[j] as points[2i + j] and xs[i] + 2 ks[j] as
    points[2i + 2j], so it evaluates h2 once per grid point and its
    negative (the anti-swap's argument -xs - k) and h1 once per even grid
    point.  On a power-of-two period each sum is the grid point bit for
    bit; on other periods the two can differ in the last bit, which can
    only change which of two offsets with residuals equal to rounding is
    refined.

    The best offset of an orientation is found in two steps.  A screen
    gives each offset's total from sliding sums over the grids: with a the
    256 shifted h2 values of the offset, b = h1(xs) and e = h1(xs + 2k),
    the total is (sum a^2 - 2 sum ab + sum e^2 - 2 sum eb + 2 sum b^2) / 256
    - ((sum a - sum b) / 256)^2, and each sum over the 512 offsets is one
    np.correlate per offset parity.  Each of the screened total and the
    exact one (the row formula swap_term + period_term) rounds to within
    6.2 gamma w / 256 of the true total, where gamma = m u / (1 - m u)
    bounds the relative error of a sum of m <= 260 terms in any order, u
    is the unit roundoff and w = sum a^2 + sum e^2 + 2 sum b^2.  An offset
    is a candidate when its screened total less err = 32 gamma w / 256 +
    1e-300 (the 1e-300 covers underflow) is at most the smallest screened
    total plus its err, or when one of these is not finite.  The exact
    rows' sums of squares stay below 8 w, and err is formed from 16 w, so
    no exact row overflows where err is finite.  The exact rows are
    computed at the candidates only, and the first candidate with the
    smallest exact total is the offset np.argmin over all 512 exact totals
    would pick.  Each orientation keeps one or two candidates on the
    benchmark's pairs; constant profiles keep all 512.

    A refinement probe is one offset off the grid: its 256 arguments go
    to the loop as they are, and the refined residual and c are those of
    the best probe, not evaluated again.
    """
    period = float(period)
    if not (0.0 < period < math.inf):
        raise ValueError("period must be positive and finite")
    n_x, n_k = 256, 512
    points = np.arange(2 * (n_x - 1 + n_k - 1) + 1) * (period / n_k)
    xs, ks = points[:2 * n_x:2], points[:n_k]

    h1_at = _profile_values(h1, "h1", "x")
    h2_at = _profile_values(h2, "h2", "y")
    h2_grid = h2_at(points[:2 * (n_x - 1) + n_k])
    h2_grid_neg = h2_at(-points[:2 * (n_x - 1) + n_k])
    h1_even = h1_at(points[::2])
    h1v = h1_even[:n_x]
    h2v = h2_grid[:2 * n_x:2]
    degenerate = (float(np.var(h1v)) < 1e-18
                  and float(np.var(h2v)) < 1e-18)

    def mean(a):
        """The mean of each row, bit for bit as np.mean(a, axis=1)."""
        return np.add.reduce(a, axis=1) / n_x

    def swap_term(h2_vals):
        """Mean-square failure of h2(o(x, k)) = h1(x) + c and the constant
        c, per row of h2_vals (one row per offset)."""
        diff = h2_vals - h1v
        c = mean(diff)
        return mean((diff - c[:, None]) ** 2), c

    def period_term(h1_vals):
        """Mean-square failure of the 2k-periodicity of h1 the swap
        condition forces, per row of h1_vals = h1(xs + 2k)."""
        return mean((h1_vals - h1v) ** 2)

    def total(k, orient):
        r, c = swap_term(h2_at(xs + k if orient > 0 else -xs - k)[None])
        p = period_term(h1_at(xs + 2.0 * k)[None])
        return float(r[0] + p[0]), float(c[0])

    ones = np.ones(n_x)
    cols = np.arange(n_x)
    u = 2.0 ** -53
    gamma = (n_x + 4) * u / (1.0 - (n_x + 4) * u)
    with np.errstate(over="ignore", invalid="ignore"):
        sb, sb2 = np.add.reduce(h1v), np.dot(h1v, h1v)
        se2 = np.correlate(h1_even * h1_even, ones)
        period_sum = se2 - 2.0 * np.correlate(h1_even, h1v) + sb2

    def sliding(grid, weights):
        """sum_i grid[2i + j] weights[i] for each offset j."""
        out = np.empty(n_k)
        for q in (0, 1):
            out[q::2] = np.correlate(grid[q::2], weights)
        return out

    def best_offset(grid):
        """The offset np.argmin picks among all exact totals of the
        orientation whose shifted h2 values are grid[2i + j]."""
        with np.errstate(over="ignore", invalid="ignore"):
            sa, sa2 = sliding(grid, ones), sliding(grid * grid, ones)
            m = (sa - sb) / n_x
            screened = ((sa2 - 2.0 * sliding(grid, h1v) + sb2 + period_sum)
                        / n_x - m * m)
            err = 16.0 * (sa2 + se2 + 2.0 * sb2) * (2.0 * gamma / n_x) \
                + 1e-300
            lo, hi = screened - err, screened + err
        bad = ~(np.isfinite(lo) & np.isfinite(hi))
        cut = np.min(hi[~bad]) if not bad.all() else math.inf
        js = np.flatnonzero(bad | (lo <= cut))[:, None]
        exact = (swap_term(grid[2 * cols + js])[0]
                 + period_term(h1_even[cols + js]))
        return int(js[np.argmin(exact), 0])

    best = {}
    for kind, orient, grid in (("swap", +1, h2_grid),
                               ("anti-swap", -1, h2_grid_neg)):
        k_ref = float(ks[best_offset(grid)])
        if degenerate:
            res, c = total(k_ref, orient)
        else:
            # c of each probe, by offset: brent_min returns its best probe
            cs = {}

            def residual(k):
                r, cs[k] = total(k, orient)
                return r
            k_ref, res = brent_min(residual, k_ref - period / n_k,
                                   k_ref + period / n_k, 1e-13)
            c = cs[k_ref]
        k = k_ref % period   # a k_ref just below 0 can round to period
        best[kind] = (res, k if k < period else 0.0, c)

    accepted = [kk for kk in best if best[kk][0] <= 1e-8]
    found = bool(accepted)
    kind = accepted[0] if found else min(best, key=lambda kk: best[kk][0])
    res, k, c = best[kind]
    return LiouvilleSymmetry(
        found=found, kind=kind if found else None,
        k=k if found else math.nan, c=c if found else math.nan,
        residual=res, degenerate=degenerate,
        candidates={kk: {"residual": v[0], "k": v[1], "c": v[2]}
                    for kk, v in best.items()})
