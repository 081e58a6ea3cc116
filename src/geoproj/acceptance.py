"""End-to-end acceptance checks for the whole package.

Each criterion exercises one advertised behaviour at fixed tolerances and
returns a CriterionResult; run_all executes all ten in order and never lets
one crash take down the rest.  The test suite and the command line both
print one PASS/FAIL line per criterion from these results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import expr, sampling, zoo
from .expr import X
from .flow import (GeodesicState, Termination, detect_closure,
                   find_conjugate_points, integrate_geodesic)
from .integrals import (check_conservation, darboux_integral, energy_integral,
                        integral_pullback)
from .metric import (CausalClass, Domain, MetricChart, Signature, classify,
                     gaussian_curvature, gaussian_curvature_limit,
                     metric_eval, pullback)
from .projective import (EQUIVALENT, NOT_EQUIVALENT, check_affinity,
                         check_isometry, check_projective_equivalence,
                         liouville_isometry_search, liouville_swap_map)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: str
    elapsed: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return "[%2d] %s  %s  (%.1fs)  %s" % (
            self.cid, status, self.description, self.elapsed, self.details)

    def to_json_dict(self):
        # elapsed is wall-clock time: it stays on the printed line, out of
        # the JSON, so the same seed gives byte-identical reports
        return {"schema": 1, "id": self.cid,
                "description": self.description, "pass": self.passed,
                "details": self.details}


def _result(cid, passed, details):
    return CriterionResult(cid, _DESC[cid], passed, details)


_BAND_MEMBERS = [(2.0, 0.3), (-1.0, 0.4), (1.0, -0.5)]
_FAMILY_MEMBERS = [(1.0, 0.0), (1.0, 0.5), (2.0, -1.0)]


def criterion_1(seed):
    """Strip family members share unparametrised geodesics with the
    normal form 2 dx dy + f dy^2."""
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    worst_drift, worst_overlap = 0.0, 0.0
    for i, (a, l) in enumerate(_BAND_MEMBERS):
        member, _ = zoo.band_chart(a=a, l=l)
        t0 = time.perf_counter()
        report = check_projective_equivalence(
            base, member, n_traces=20, drift_tol=1e-6, t_max=1.0,
            seed=seed + i)
        pair_elapsed = time.perf_counter() - t0
        if report.verdict != EQUIVALENT:
            return _result(
                1, False,
                "pair (a=%g,l=%g) verdict %s, drift %.3g, overlap %.3g"
                % (a, l, report.verdict, report.max_drift, report.max_overlap))
        if pair_elapsed > 10.0:
            return _result(
                1, False, "pair (a=%g,l=%g) took %.1fs, budget 10s"
                % (a, l, pair_elapsed))
        worst_drift = max(worst_drift, report.max_drift)
        worst_overlap = max(worst_overlap, report.max_overlap)
    return _result(
        1, True, "3 pairs equivalent, worst drift %.2e, worst overlap %.2e"
        % (worst_drift, worst_overlap))


def criterion_2(seed):
    """A spoiled partner with an extra x dy^2 term is rejected."""
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    f = expr.sin(math.pi * X) ** 2
    spoiled = MetricChart(
        name="band-spoiled", g11=expr.const(0.0), g12=expr.const(1.0),
        g22=f + X, domain=Domain(), signature=Signature.LORENTZIAN,
        sample_box=(0.0, 1.0, 0.0, 1.0)).validate()
    report = check_projective_equivalence(
        base, spoiled, n_traces=20, drift_tol=1e-6, t_max=1.0, seed=seed)
    ok = report.verdict == NOT_EQUIVALENT and report.max_drift >= 1e-2
    return _result(
        2, ok, "verdict %s, drift %.3g (needs >= 1e-2)"
        % (report.verdict, report.max_drift))


def criterion_3(seed):
    """Curvature fingerprints of the punctured-plane family."""
    worst = 0.0
    for a, l in _FAMILY_MEMBERS:
        chart, _ = zoo.punctured_plane_family(a, l)
        want_diag = -2.0 * a * a * (a + l)
        got_diag = gaussian_curvature(chart, (1.0, 1.0))
        err = abs(got_diag - want_diag) / max(1.0, abs(want_diag))
        worst = max(worst, err)
        want_axis = -a * a * l
        got_axis = gaussian_curvature_limit(chart, (1.0, 0.0), (0.0, 1.0))
        err = abs(got_axis - want_axis) / max(1.0, abs(want_axis))
        worst = max(worst, err)
        if worst > 1e-5:
            return _result(
                3, False,
                "member (a=%g,l=%g): diagonal %.6g (want %.6g), axis %.6g "
                "(want %.6g)" % (a, l, got_diag, want_diag, got_axis,
                                 want_axis))
    cp, _ = zoo.clifton_pohl()
    cp_axis = gaussian_curvature(cp, (1.0, 0.0))
    cp_diag = gaussian_curvature(cp, (1.0, 1.0))
    worst = max(worst, abs(cp_axis), abs(cp_diag + 2.0) / 2.0)
    if worst > 1e-5:
        return _result(
            3, False,
            "null-plane chart: axis %.6g (want 0), diagonal %.6g (want -2)"
            % (cp_axis, cp_diag))
    return _result(
        3, True,
        "3 members plus the null-plane chart, worst fingerprint error "
        "%.2e (tol 1e-5)" % worst)


def criterion_4(seed):
    """No conjugate points along sampled family geodesics; the sphere
    control must produce one at parameter pi."""
    for a, l in _FAMILY_MEMBERS:
        chart, _ = zoo.punctured_plane_family(a, l)
        rng = np.random.default_rng(seed)
        states = sampling.sample_states(chart, 20, rng)
        for st in states:
            times, _ = find_conjugate_points(chart, st, 1.2)
            if times:
                return _result(
                    4, False,
                    "member (a=%g,l=%g) produced a conjugate point at "
                    "t=%.6g from (%.3f,%.3f)" % (a, l, times[0], st.x, st.y))
    sphere, _ = zoo.tannery_chart()
    times, _ = find_conjugate_points(
        sphere, GeodesicState(math.pi / 2, 0.3, 0.0, 1.0), 4.0)
    if not times or abs(times[0] - math.pi) > 1e-5:
        return _result(
            4, False, "sphere control found %r, wanted pi +- 1e-5" % (times,))
    return _result(
        4, True, "60 family segments clean; sphere control at %.8f" % times[0])


def criterion_5(seed):
    """The strip closure identity over 1000 random admissible tuples."""
    tol = zoo.IDENTITIES["rescaling"].tol
    worst, tup = zoo.sample_rescaling_identity(1000, seed=seed)
    ok = worst <= tol
    detail = "worst residual %.2e (tol %g)" % (worst, tol)
    if not ok:
        detail += " at tuple %r" % (tup,)
    return _result(5, ok, detail)


def criterion_6(seed):
    """Deformed rotation surface: Lorentzian band, closed spacelike
    geodesics, exact lightlike cone, characteristic curve identity."""
    deformed, _ = zoo.tannery_deformed(l=-2.0)
    base, _ = zoo.tannery_chart()

    r0 = math.pi / 4
    margin = 0.02 * (math.pi - 2 * r0)
    rs = np.linspace(r0 + margin, math.pi - r0 - margin, 50)
    ths = np.linspace(0.0, 2.0 * math.pi, 50)
    for r in rs:
        for th in ths:
            if deformed.det_at((float(r), float(th))) >= 0.0:
                return _result(
                    6, False,
                    "determinant sign wrong at (%.4f, %.4f)" % (r, th))

    rng = np.random.default_rng(seed)
    n_closed = 0
    for _ in range(20):
        c2 = rng.uniform(0.55, 0.95)
        r_lo = math.asin(math.sqrt(c2 + 0.02))
        r = rng.uniform(r_lo + 0.02, math.pi - r_lo - 0.02)
        s = math.sin(r) ** 2
        vy = math.copysign(math.sqrt(c2) / s, rng.uniform(-1.0, 1.0))
        vx = math.copysign(math.sqrt(max(1.0 - c2 / s, 0.0)),
                           rng.uniform(-1.0, 1.0))
        st = GeodesicState(r, rng.uniform(0.0, 2.0 * math.pi), vx, vy)
        rep = detect_closure(deformed, st, t_max=150.0, tol=1e-5)
        if not rep.closed:
            return _result(
                6, False,
                "spacelike geodesic from (%.4f,%.4f) v=(%.4f,%.4f) did not "
                "close within t=150" % (st.x, st.y, st.vx, st.vy))
        n_closed += 1

    worst_cone = 0.0
    for _ in range(20):
        r = rng.uniform(r0 + 0.1, math.pi - r0 - 0.1)
        s = math.sin(r) ** 2
        vy = math.copysign(1.0 / (math.sqrt(2.0) * s), rng.uniform(-1, 1))
        vx2 = 1.0 - s * vy * vy
        vx = math.copysign(math.sqrt(max(vx2, 0.0)), rng.uniform(-1, 1))
        p = (r, rng.uniform(0.0, 2.0 * math.pi))
        if abs(metric_eval(base, p, (vx, vy)) - 1.0) > 1e-10:
            return _result(6, False, "cone sample lost base normalisation")
        worst_cone = max(worst_cone, abs(metric_eval(deformed, p, (vx, vy))))
        if classify(deformed, p, (vx, vy)) is not CausalClass.LIGHTLIKE:
            return _result(
                6, False,
                "constructed cone vector not classified lightlike at "
                "(%.4f, %.4f)" % p)
    if worst_cone > 1e-8:
        return _result(
            6, False, "lightlike cone residual %.2e exceeds 1e-8" % worst_cone)

    tol = zoo.IDENTITIES["tannery-reparam"].tol
    worst_reparam = zoo.tannery_reparam_residual(101)
    if worst_reparam > tol:
        return _result(
            6, False, "characteristic curve residual %.2e exceeds %g"
            % (worst_reparam, tol))

    return _result(
        6, True,
        "2500 grid determinants negative; %d spacelike closures; cone "
        "residual %.1e; curve residual %.1e"
        % (n_closed, worst_cone, worst_reparam))


def criterion_7(seed):
    """Shift metric: nondegeneracy bounds, smooth seams, closure relation,
    and a translation that is projective but neither affine nor isometric."""
    t0 = time.perf_counter()
    bundle = zoo.projective_shift()
    g = bundle.chart

    lam_lo = -1.0 / bundle.f_max
    f_periodic = expr.substitute(bundle.f, X - expr.floor_of(X), expr.Y)
    for x in np.linspace(-3.0, 4.0, 200):
        lam = expr.evaluate(bundle.shear_field, (float(x), 0.0))
        fv = expr.evaluate(f_periodic, (float(x), 0.0))
        if not (lam > lam_lo and 1.0 + lam * fv > 0.0):
            return _result(7, False, "bounds fail at x=%.4f" % x)

    seam = zoo.shift_seam_residual(bundle)
    if seam > 1e-8:
        return _result(7, False, "seam residual %.2e exceeds 1e-8" % seam)

    tol = zoo.IDENTITIES["shift-relation"].tol
    worst_rel = zoo.sample_shift_relation(bundle, 100, seed=seed)
    if worst_rel > tol:
        return _result(
            7, False,
            "closure relation residual %.2e exceeds %g" % (worst_rel, tol))

    iso = check_isometry(g, bundle.tau, n=30, seed=seed)
    aff = check_affinity(g, bundle.tau, n=30, seed=seed)
    moved = pullback(g, bundle.tau, name="shifted")
    eq = check_projective_equivalence(g, moved, n_traces=15, t_max=0.7,
                                      seed=seed)
    if iso.passed or aff.passed or eq.verdict != EQUIVALENT:
        return _result(
            7, False,
            "translation grading wrong: isometry=%s affinity=%s "
            "projective=%s" % (iso.passed, aff.passed, eq.verdict))

    try:
        zoo.projective_shift(eps=bundle.eps_bound * 1.01)
        gate = False
    except zoo.ZooError:
        gate = True
    if not gate:
        return _result(7, False, "out-of-range eps was accepted")

    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        return _result(7, False, "criterion took %.1fs, budget 30s" % elapsed)
    return _result(
        7, True,
        "bounds hold; seams %.1e; relation %.1e; translation projective "
        "only; eps gate closed" % (seam, worst_rel))


def criterion_8(seed):
    """Truncation by the rotation field: boundary kernel and conserved
    pair integral inside the region."""
    base, k = zoo.tannery_chart()
    tb = zoo.clairaut_truncation(base, k, l=1.0)

    worst_kernel = 0.0
    for th in (0.7, 2.1, 4.4):
        for vy in (1.0, -1.0):
            worst_kernel = max(worst_kernel, abs(
                tb.integral.value((math.pi / 2, th), (0.0, vy))))
    if worst_kernel > 1e-10:
        return _result(
            8, False,
            "boundary kernel residual %.2e exceeds 1e-10" % worst_kernel)

    for s in sampling.sample_states(tb.base, 50, np.random.default_rng(seed)):
        p = (s.x, s.y)
        if tb.partner.det_at(p) <= 0.0:
            return _result(
                8, False, "partner degenerates at %r inside the region" % (p,))
        norm = metric_eval(tb.base, p, (s.vx, s.vy))
        if norm <= 0.0:
            continue
        v = (s.vx / math.sqrt(norm), s.vy / math.sqrt(norm))
        if tb.integral.value(p, v) <= 0.0:
            return _result(
                8, False,
                "defining form not positive at %r inside the region" % (p,))

    pair = darboux_integral(tb.base, tb.partner)
    report = check_conservation(tb.base, pair, n_samples=20, t_max=0.8,
                                seed=seed, tol=1e-6)
    if not report.passed or report.n_used < 10:
        return _result(
            8, False,
            "pair integral drift %.3g over %d usable traces (tol 1e-6)"
            % (report.max_drift, report.n_used))
    return _result(
        8, True,
        "kernel %.1e; form positive on 50 interior samples; drift %.2e "
        "over %d traces" % (worst_kernel, report.max_drift, report.n_used))


def criterion_9(seed):
    """Separable symmetry search: finds the quarter-period swap with its
    constant, rejects a mismatched pair, and the found map is an isometry
    that moves the separation integral to a new conserved quantity."""
    found = liouville_isometry_search(*zoo.liouville_profiles(), period=0.5)
    swap = found.candidates["swap"]
    if not found.found or abs(swap["k"] - 0.25) > 1e-6 \
            or abs(swap["c"] - 3.0) > 1e-6:
        return _result(
            9, False, "search returned k=%.8g c=%.8g residual=%.2e"
            % (swap["k"], swap["c"], swap["residual"]))

    chart, sep = zoo.liouville_chart()
    phi = liouville_swap_map(swap["k"], "swap")
    iso = check_isometry(chart, phi, n=30, seed=seed)
    if not iso.passed:
        return _result(
            9, False, "found map fails the isometry check (residual %.2e)"
            % iso.max_residual)

    pulled = integral_pullback(sep, phi, name="swapped-separable")
    p, v = (0.3, 0.6), (0.7, -0.4)
    moved = abs(sep.value(p, v) - pulled.value(p, v))
    if moved <= 1e-3:
        return _result(
            9, False, "pulled integral coincides with the original (diff %.2e)"
            % moved)
    cons = check_conservation(chart, pulled, n_samples=10, t_max=0.8,
                              seed=seed, tol=1e-6)
    if not cons.passed:
        return _result(
            9, False,
            "pulled integral drifts %.3g (tol 1e-6)" % cons.max_drift)

    neg = liouville_isometry_search(
        2.0 + expr.sin(2.0 * math.pi * expr.X),
        2.0 + expr.sin(4.0 * math.pi * expr.Y), period=1.0)
    if neg.found or any(c["residual"] < 1e-3
                        for c in neg.candidates.values()):
        return _result(
            9, False, "mismatched pair was accepted (residuals %r)"
            % {k: v["residual"] for k, v in neg.candidates.items()})

    return _result(
        9, True,
        "swap k=%.8f c=%.8f; isometry %.1e; integral moved %.2g and "
        "conserved %.1e; negative pair rejected"
        % (swap["k"], swap["c"], iso.max_residual, moved, cons.max_drift))


def criterion_10(seed):
    """Energy conservation and flow reversibility across the catalogue."""
    t0 = time.perf_counter()
    lines = []
    for name, entry in zoo.catalogue().items():
        bundle = entry.build()
        chart = bundle.chart
        rep = check_conservation(chart, energy_integral(chart),
                                 n_samples=50, t_max=0.5, seed=seed,
                                 tol=1e-7)
        if not rep.passed or rep.n_used < 25:
            return _result(
                10, False,
                "%s: energy drift %.3g over %d usable traces (tol 1e-7)"
                % (name, rep.max_drift, rep.n_used))

        rng = np.random.default_rng(seed + 7)
        states = sampling.sample_states(chart, 12, rng)
        worst_rev, used = 0.0, 0
        for st in states:
            fwd = integrate_geodesic(chart, st, 0.4)
            if fwd.drop_reason is not None:
                continue
            end = fwd.final_state()
            back = integrate_geodesic(
                chart, GeodesicState(end.x, end.y, -end.vx, -end.vy),
                fwd.length)
            if back.termination is not Termination.TIME_LIMIT:
                continue
            b = back.final_state()
            v0 = math.hypot(st.vx, st.vy)
            err = (math.hypot(b.x - st.x, b.y - st.y)
                   + math.hypot(b.vx + st.vx, b.vy + st.vy) / (1.0 + v0))
            worst_rev = max(worst_rev, err)
            used += 1
        if used < 6 or worst_rev > 1e-6:
            return _result(
                10, False,
                "%s: reversibility %.3g over %d round trips (tol 1e-6)"
                % (name, worst_rev, used))
        lines.append("%s %.1e/%.1e" % (name, rep.max_drift, worst_rev))

    elapsed = time.perf_counter() - t0
    if elapsed > 300.0:
        return _result(
            10, False, "criterion took %.0fs, budget 300s" % elapsed)
    return _result(10, True, "drift/reversal per chart: " + ", ".join(lines))


_DESC = {
    1: "strip family members share geodesics with the normal form",
    2: "spoiled strip partner is rejected",
    3: "punctured-family curvature fingerprints",
    4: "no conjugate points in the families; sphere control at pi",
    5: "strip closure identity on 1000 random tuples",
    6: "deformed rotation surface: band, closures, cone, curve",
    7: "shift metric: bounds, seams, relation, projective-only shift",
    8: "truncation partner: boundary kernel, conserved pair integral",
    9: "separable symmetry search: positive and negative instances",
    10: "energy conservation and reversibility across the catalogue",
}

CRITERIA = [
    (1, criterion_1), (2, criterion_2), (3, criterion_3), (4, criterion_4),
    (5, criterion_5), (6, criterion_6), (7, criterion_7), (8, criterion_8),
    (9, criterion_9), (10, criterion_10),
]


def run_all(seed=None):
    """Run the ten acceptance criteria; a crash is a failure, not an abort."""
    seed = sampling.resolve_seed(seed)
    results = []
    for cid, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            res = fn(seed)
        except Exception as err:
            res = _result(cid, False,
                          "raised %s: %s" % (type(err).__name__, err))
        res.elapsed = time.perf_counter() - t0
        results.append(res)
    return results
