"""Deciding how two metrics on a shared chart are related.

Three graded relations, in decreasing strength: isometry (same metric after
a coordinate change), affinity (same parametrised geodesics), projective
equivalence (same geodesics up to reparametrisation).  Isometry and affinity
are decided by direct coefficient or connection comparison along a map;
projective equivalence by conserving the pair integral and by shooting the
same initial conditions through both flows and comparing the traced curves.
The Liouville symmetry search at the bottom looks for the specific swap maps
that exchange the two profile functions of a separable metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import expr, sampling
from .expr import X, Y
# integrate_geodesic is unused here: perfbench/spans.py wraps it by this name
from .flow import golden_min, integrate_by_arclength, integrate_geodesic
from .integrals import (DegenerateRatioError, check_conservation,
                        darboux_integral)
from .metric import ChartMap, DomainError, christoffel, pullback

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


def _comparison_points(g, pulled, n, seed):
    rng = np.random.default_rng(sampling.resolve_seed(seed))
    inside = pulled.runtime().in_domain
    pts = []
    attempts = 0
    while len(pts) < n and attempts < 200 * n:
        attempts += 1
        try:
            p = sampling.sample_points(g, 1, rng)[0]
        except DomainError:
            break
        if inside(*p):
            pts.append(p)
    return pts


def _map_check(kind, g, phi, tol, n, seed, values, scale):
    """Worst relative gap between values(g, p) and values(phi^* g, p).

    The gap at a sampled point p is max |a - b| / scale(a, b).
    """
    pulled = pullback(g, phi, name="%s*%s" % (phi.name, g.name))
    worst = 0.0
    pts = _comparison_points(g, pulled, n, seed)
    for p in pts:
        a, b = values(g, p), values(pulled, p)
        worst = max(worst, float(np.max(np.abs(a - b)) / scale(a, b)))
    passed = bool(pts) and worst <= tol
    return MapCheck(kind, g.name, phi.name, worst if pts else math.inf,
                    tol, len(pts), passed)


def check_isometry(g, phi, tol=1e-8, n=40, seed=None):
    """Is phi an isometry, pulling g back to itself?

    Compares coefficient triples of g and of its pullback along phi at
    sampled points, normalised by the local coefficient scale.
    """
    return _map_check(
        "isometry", g, phi, tol, n, seed,
        lambda chart, p: np.array(chart.coefficients_at(p)),
        lambda a, b: max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12))


def check_affinity(g, phi, tol=1e-6, n=40, seed=None):
    """Does phi preserve the parametrised geodesics (the connection)?

    Compares the Christoffel symbols of g with those of its pullback along
    phi at sampled points.  Isometries pass, and so do the affine maps that
    rescale the metric without bending its geodesics; a merely projective
    map fails.
    """
    return _map_check("affinity", g, phi, tol, n, seed, christoffel,
                      lambda a, b: max(np.max(np.abs(a)), 1.0))


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
    """One compiled function from a list of arguments to the list of the
    field's values, each argument taken as the coordinate var and the other
    coordinate as 0.0.  The loop body is the lines compile_fields writes,
    so every value is bit for bit the one compile_fields gives, and a
    point costs no Python call of its own."""
    lines, (value,) = expr.emit([field])
    src = ("def _profile(args):\n    %s = 0.0\n    out = []\n"
           "    for %s in args:\n%s        out.append(%s)\n    return out\n"
           % ("y" if var == "x" else "x", var,
              "".join("        %s\n" % line for line in lines), value))
    return expr.compile_function(src, "_profile",
                                 "<geoproj.projective profile>")


def liouville_isometry_search(h1, h2, period):
    """Search for a swap or anti-swap isometry of the separable metric.

    Scans the offset k over 512 points of one period, refines the best
    candidates by golden-section search, and accepts when the combined
    residual (profile match after the swap plus the forced 2k-periodicity
    of h1, both sampled at 256 points) drops below 1e-8.  Reports the
    smallest accepted k.  Constant profile pairs are flagged degenerate:
    every offset works and the returned k is not meaningful.

    Each profile is compiled into one loop over a list of arguments
    (_profile_loop), so a block of sample points costs one Python call.
    The scan takes the offsets in blocks of 32 and evaluates each profile
    once per distinct argument in a block (the shifted sample points fall
    on a fine grid, so most repeat); the block size bounds the scan's
    temporary memory.  The periodicity term does not depend on the
    orientation, so the scan computes it once for both.  A golden-section
    probe is one offset, whose 256 arguments do not repeat: they go to
    the loop as they are.
    """
    period = float(period)
    if not (0.0 < period < math.inf):
        raise ValueError("period must be positive and finite")
    grid, block = 512, 32
    xs = np.linspace(0.0, period, 256, endpoint=False)

    h1_loop = _profile_loop(h1, "x")
    h2_loop = _profile_loop(h2, "y")

    def values(loop, arr):
        if len(arr) == 1:
            return np.array(loop(arr[0].tolist()))[None]
        # keyed on the bit pattern, so 0.0 and -0.0 stay apart
        keys, inv = np.unique(arr.ravel().view(np.int64),
                              return_inverse=True)
        vals = np.array(loop(keys.view(np.float64).tolist()))
        return vals[inv].reshape(arr.shape)

    h1v = values(h1_loop, xs)
    h2v = values(h2_loop, xs)
    degenerate = (float(np.var(h1v)) < 1e-18
                  and float(np.var(h2v)) < 1e-18)

    def swap_terms(ks, orient):
        """Mean-square failure of h2(o(x, k)) = h1(x) + c and the constant
        c at each offset of ks."""
        k = ks[:, None]
        diff = values(h2_loop, xs + k if orient > 0 else -xs - k) - h1v
        c = np.mean(diff, axis=1)
        return np.mean((diff - c[:, None]) ** 2, axis=1), c

    def period_term(ks):
        """Mean-square failure of the 2k-periodicity of h1 the swap
        condition forces, at each offset of ks."""
        return np.mean((values(h1_loop, xs + 2.0 * ks[:, None]) - h1v) ** 2,
                       axis=1)

    def total(k, orient):
        ks = np.array([k])
        r, c = swap_terms(ks, orient)
        return float(r[0] + period_term(ks)[0]), float(c[0])

    ks = np.linspace(0.0, period, grid, endpoint=False)
    blocks = [ks[j:j + block] for j in range(0, grid, block)]
    periodic = [period_term(b) for b in blocks]
    best = {}
    for kind, orient in (("swap", +1), ("anti-swap", -1)):
        vals = np.concatenate([swap_terms(b, orient)[0] + p
                               for b, p in zip(blocks, periodic)])
        i = int(np.argmin(vals))
        lo = float(ks[max(i - 1, 0)])
        hi = float(ks[min(i + 1, grid - 1)])
        if hi <= lo:
            hi = lo + period / grid
        k_ref, _ = golden_min(lambda k: total(k, orient)[0], lo, hi,
                              1e-13)
        if abs(k_ref) < 1e-12 or abs(k_ref - period) < 1e-12:
            k_ref = abs(k_ref) % period
        res, c = total(k_ref, orient)
        best[kind] = (res, k_ref % period, c)

    kind = min(best, key=lambda kk: best[kk][0])
    res, k, c = best[kind]
    found = res <= 1e-8
    return LiouvilleSymmetry(
        found=found, kind=kind if found else None,
        k=k if found else math.nan, c=c if found else math.nan,
        residual=res, degenerate=degenerate,
        candidates={kk: {"residual": v[0], "k": v[1], "c": v[2]}
                    for kk, v in best.items()})
