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
from .flow import IntegratorOptions, integrate_geodesic
from .integrals import (DegenerateRatioError, check_conservation,
                        darboux_integral)
from .metric import ChartMap, christoffel, pullback

__all__ = [
    "EquivalenceReport", "MapCheck", "LiouvilleSymmetry",
    "check_projective_equivalence", "check_isometry", "check_affinity",
    "liouville_isometry_search", "liouville_swap_map",
]

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
INCONCLUSIVE = "inconclusive"


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
            "schema": 1,
            "g": self.g,
            "gbar": self.gbar,
            "verdict": self.verdict,
            "max_drift": self.max_drift,
            "max_overlap": self.max_overlap,
            "n_traces": min(self.n_conserved, self.n_overlap),
            "seed": self.seed,
        }


def _resample_by_arclength(points, fractions, total):
    """Positions at the given fractions of total chord length."""
    seg = np.hypot(np.diff(points[:, 0]), np.diff(points[:, 1]))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    want = fractions * total
    return np.column_stack([np.interp(want, s, points[:, 0]),
                            np.interp(want, s, points[:, 1])])


def _chord_length(points):
    return float(np.sum(np.hypot(np.diff(points[:, 0]),
                                 np.diff(points[:, 1]))))


def _dense_positions(trace, n=400):
    """Positions sampled uniformly in parameter from the dense output.

    The raw accepted steps can be long; comparing two traces through their
    step endpoints alone would measure the step pattern, not the curve.
    """
    ts = np.linspace(float(trace.ts[0]), float(trace.ts[-1]), n)
    out = np.empty((n, 2))
    for i, t in enumerate(ts):
        out[i] = trace.dense(float(t))[:2]
    return out


def check_projective_equivalence(g, gbar, n_traces=20, drift_tol=1e-6,
                                 overlap_tol=1e-4, t_max=1.0, seed=None,
                                 opts=None):
    """Decide whether two metrics share their unparametrised geodesics.

    Two independent measurements.  First, the pair integral built from the
    determinant ratio must be conserved along the flow of g (max drift per
    unit parameter over sampled geodesics).  Second, shooting the same
    initial point and velocity through both flows must trace the same curve:
    both traces are resampled by chord length and compared pointwise over
    the arc both of them cover.

    The verdict is "equivalent" only if both measurements pass with enough
    usable traces, "not-equivalent" if either fails by a factor of ten, and
    "inconclusive" in between or when the pair integral cannot be built.
    """
    seed = sampling.default_seed() if seed is None else int(seed)
    opts = opts or IntegratorOptions()

    try:
        pair = darboux_integral(g, gbar)
    except DegenerateRatioError as err:
        return EquivalenceReport(
            g=g.name, gbar=gbar.name, verdict=INCONCLUSIVE,
            max_drift=math.inf, max_overlap=math.inf, n_conserved=0,
            n_overlap=0, drift_tol=drift_tol, overlap_tol=overlap_tol,
            seed=seed, reason=str(err))

    conservation = check_conservation(
        g, pair, n_samples=n_traces, t_max=t_max, seed=seed,
        tol=drift_tol, opts=opts)

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
        except (ValueError, sampling.DomainError):
            break
        if not in_bar(state.x, state.y):
            continue
        tr_g = integrate_geodesic(g, state, t_max, opts=opts)
        tr_b = integrate_geodesic(gbar, state, t_max, opts=opts)
        ok = []
        for tr in (tr_g, tr_b):
            if len(tr.ts) < 5 or tr.termination.abandoned:
                break
            pts = _dense_positions(tr)
            if _chord_length(pts) < 1e-3:
                break
            ok.append(pts)
        if len(ok) < 2:
            continue
        arc = min(_chord_length(ok[0]), _chord_length(ok[1]))
        a = _resample_by_arclength(ok[0], fractions, arc)
        b = _resample_by_arclength(ok[1], fractions, arc)
        overlaps.append(float(np.max(np.hypot(*(a - b).T))))

    max_overlap = max(overlaps) if overlaps else math.inf
    n_cons, n_over = conservation.n_used, len(overlaps)

    if n_cons >= 5 and n_over >= 3 \
            and conservation.max_drift <= drift_tol \
            and max_overlap <= overlap_tol:
        verdict, reason = EQUIVALENT, ""
    elif (n_cons >= 3 and conservation.max_drift > 10.0 * drift_tol) \
            or (n_over >= 3 and max_overlap > 10.0 * overlap_tol):
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
        overlap_tol=overlap_tol, seed=seed, reason=reason)


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
    rng = np.random.default_rng(sampling.default_seed()
                                if seed is None else int(seed))
    inside = pulled.runtime().in_domain
    pts = []
    attempts = 0
    while len(pts) < n and attempts < 200 * n:
        attempts += 1
        try:
            p = sampling.sample_points(g, 1, rng)[0]
        except sampling.DomainError:
            break
        if inside(*p):
            pts.append(p)
    return pts


def check_isometry(g, phi, target=None, tol=1e-8, n=40, seed=None):
    """Is phi an isometry pulling target (default g itself) back to g?

    Compares coefficient triples of g and of the pullback of target along
    phi at sampled points, normalised by the local coefficient scale.
    """
    target = g if target is None else target
    pulled = pullback(target, phi, name="%s*%s" % (phi.name, target.name))
    worst = 0.0
    pts = _comparison_points(g, pulled, n, seed)
    for p in pts:
        a = np.array(g.coefficients_at(p))
        b = np.array(pulled.coefficients_at(p))
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
        worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    passed = bool(pts) and worst <= tol
    return MapCheck("isometry", g.name, phi.name, worst if pts else math.inf,
                    tol, len(pts), passed)


def check_affinity(g, phi, target=None, tol=1e-6, n=40, seed=None):
    """Does phi preserve the parametrised geodesics (the connection)?

    Compares the Christoffel symbols of g with those of the pullback of
    target (default g) along phi at sampled points.  Isometries pass, and
    so do the affine maps that rescale the metric without bending its
    geodesics; a merely projective map fails.
    """
    target = g if target is None else target
    pulled = pullback(target, phi, name="%s*%s" % (phi.name, target.name))
    worst = 0.0
    pts = _comparison_points(g, pulled, n, seed)
    for p in pts:
        a = christoffel(g, p)
        b = christoffel(pulled, p)
        scale = max(np.max(np.abs(a)), 1.0)
        worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    passed = bool(pts) and worst <= tol
    return MapCheck("affinity", g.name, phi.name, worst if pts else math.inf,
                    tol, len(pts), passed)


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

    def to_json_dict(self):
        return {
            "schema": 1,
            "found": self.found,
            "kind": self.kind,
            "k": self.k,
            "c": self.c,
            "residual": self.residual,
            "degenerate": self.degenerate,
        }


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


def _swap_residual(h1v, h2_at, xs, k, orient):
    """Mean-square failure of h2(o(x, k)) = h1(x) + const plus the
    2k-periodicity of h1 that the swap condition forces."""
    if orient > 0:
        shifted = h2_at(xs + k)
    else:
        shifted = h2_at(-xs - k)
    diff = shifted - h1v
    c = float(np.mean(diff))
    r = float(np.mean((diff - c) ** 2))
    return r, c


def _h1_period_residual(h1_at, xs, k):
    return float(np.mean((h1_at(xs + 2.0 * k) - h1_at(xs)) ** 2))


def _golden_refine(fn, lo, hi, iters=80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
        if b - a < 1e-13:
            break
    return (a + b) / 2.0


def liouville_isometry_search(h1, h2, period, grid=512, samples=256,
                              accept_tol=1e-8):
    """Search for a swap or anti-swap isometry of the separable metric.

    Scans the offset k over one period, refines the best candidates, and
    accepts when the combined residual (profile match after the swap plus
    the forced 2k-periodicity of h1) drops below accept_tol.  Reports the
    smallest accepted k.  Constant profile pairs are flagged degenerate:
    every offset works and the returned k is not meaningful.
    """
    period = float(period)
    if period <= 0.0:
        raise ValueError("period must be positive")
    xs = np.linspace(0.0, period, samples, endpoint=False)

    h1c = expr.compile_fields([h1])
    h2c = expr.compile_fields([h2])

    def h1_at(arr):
        return np.array([h1c(float(t), 0.0)[0] for t in arr])

    def h2_at(arr):
        return np.array([h2c(0.0, float(t))[0] for t in arr])

    h1v = h1_at(xs)
    h2v = h2_at(xs)
    degenerate = (float(np.var(h1v)) < 1e-18
                  and float(np.var(h2v)) < 1e-18)

    def total(k, orient):
        r, _ = _swap_residual(h1v, h2_at, xs, k, orient)
        return r + _h1_period_residual(h1_at, xs, k)

    ks = np.linspace(0.0, period, grid, endpoint=False)
    best = {}
    for kind, orient in (("swap", +1), ("anti-swap", -1)):
        vals = np.array([total(float(k), orient) for k in ks])
        i = int(np.argmin(vals))
        lo = ks[max(i - 1, 0)]
        hi = ks[min(i + 1, grid - 1)]
        if hi <= lo:
            hi = lo + period / grid
        k_ref = _golden_refine(lambda k: total(k, orient), lo, hi)
        if abs(k_ref) < 1e-12 or abs(k_ref - period) < 1e-12:
            k_ref = abs(k_ref) % period
        res = total(k_ref, orient)
        _, c = _swap_residual(h1v, h2_at, xs, k_ref, orient)
        best[kind] = (res, k_ref % period, c)

    kind = min(best, key=lambda kk: best[kk][0])
    res, k, c = best[kind]
    found = res <= accept_tol
    return LiouvilleSymmetry(
        found=found, kind=kind if found else None,
        k=k if found else math.nan, c=c if found else math.nan,
        residual=res, degenerate=degenerate,
        candidates={kk: {"residual": v[0], "k": v[1], "c": v[2]}
                    for kk, v in best.items()})
