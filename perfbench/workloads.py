"""The three benchmark workloads: set-up, ops and the expected-answer table.

Each workload is a list of op kinds run in a fixed cycle.  Op i runs kind
(i + run seed) % len(kinds) with a seed drawn from (run seed, i), so one
run seed fixes every input.  The equivalence ops are the exception: they
pin the deciders' own default seed (see EQUIVALENCE_DECIDER_SEED).

An op returns an Outcome: whether it matched its expected answer, its
worst error as a share of that error's tolerance, and a short answer
string that the determinism check compares between runs.

geoproj is reached only through its public modules and always through the
module attribute (``projective.check_isometry``, never a name imported into
this file), so that the traced run can wrap each entry point where callers
look it up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from geoproj import expr, flow, integrals, metric, projective, sampling, zoo

CONJUGATE_T_MAX = 4.0
CONJUGATE_TOL = 1e-5           # absolute, as in acceptance criterion 4
CLOSURE_T_MAX = 150.0
CLOSURE_TOL = 1e-5             # as in acceptance criterion 6
POLE_CLEARANCE = 0.3           # sphere scans keep this colatitude from a pole
FINGERPRINT_TOL = 1e-5         # as in acceptance criterion 3
RESCALING_TOL = 1e-10          # as in acceptance criterion 5
KERNEL_TOL = 1e-10             # as in acceptance criterion 8
SEARCH_TOL = 1e-6              # k and c of the positive search, criterion 9
IDENTITY_TOL = 1e-10           # pullback and pair-integral closed forms
ROUND_TRIP_TOL = 1e-12         # chart_to_dict -> chart_from_dict

# The deciders' default sampling seed (sampling.default_seed without
# GEOPROJ_SEED).  The cost of one equivalence call swings by +-40% with its
# seed, because the seed decides how many sampled traces run into a
# singularity, and a 36 s run holds only about three calls per pair.  With
# a decider seed drawn per op, ops_per_s spread by 0.19 to 0.34 (quartile
# distance over median) across ten run seeds; pinned, the calls are the
# same in every run and only the machine moves the figure.
EQUIVALENCE_DECIDER_SEED = 12345

FAMILY_MEMBERS = [(1.0, 0.0), (1.0, 0.5), (2.0, -1.0)]
BAND_MEMBERS = [(2.0, 0.3), (-1.0, 0.4), (1.0, -0.5)]

# ---------------------------------------------------------------------------
# expected answers, one entry per op kind

EXPECTED_VERDICT = {
    "band-a2-l0.3": projective.EQUIVALENT,
    "band-a-1-l0.4": projective.EQUIVALENT,
    "band-a1-l-0.5": projective.EQUIVALENT,
    "punctured-family": projective.EQUIVALENT,
    "tannery": projective.EQUIVALENT,
    "projective-shift": projective.EQUIVALENT,
    # Reads "inconclusive" at the pinned seed: drift about 2e-10 but overlap
    # about 9e-4, inside the gray zone.  That is a defect of the overlap
    # test, not of the pair, so the expected answer stays "equivalent": the
    # op is listed as a known-defect op and counts in fail_frac until the
    # defect is fixed.
    "truncation": projective.EQUIVALENT,
    "spoiled-strip": projective.NOT_EQUIVALENT,
}

EXPECTED_MAP_CHECK = {
    "isometry-shift": False,
    "affinity-shift": False,
    "isometry-liouville-swap": True,
    "affinity-liouville-swap": True,
}

EXPECTED_SEARCH = {
    "liouville-search-positive": (0.25, 3.0),
    "liouville-search-negative": None,
}


def conjugate_times(chart, state, t_max):
    """Closed form on the round sphere: conjugate points at k pi / |v|_g."""
    speed = math.sqrt(metric.metric_eval(chart, (state.x, state.y),
                                         (state.vx, state.vy)))
    out, k = [], 1
    while k * math.pi / speed < t_max:
        out.append(k * math.pi / speed)
        k += 1
    return out


def fingerprints(a, l):
    """Criterion-3 closed forms: K at (1, 1) and the axis limit at (1, 0)."""
    return -2.0 * a * a * (a + l), -a * a * l


# ---------------------------------------------------------------------------
# op plumbing


@dataclass
class Outcome:
    ok: bool
    err_to_tol: Optional[float]    # None where no error is measured
    answer: str
    known_defect: bool = False     # a wrong answer of a documented kind


@dataclass
class OpKind:
    name: str
    run: Callable[[int], Outcome]   # op seed -> Outcome


def op_seed(seed, i):
    """Seed of op i in a run with the given seed."""
    seq = np.random.SeedSequence([int(seed), int(i)])
    return int(seq.generate_state(1)[0])


def _rel_residual(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def warm(charts):
    """First runtime() and curvature call on each chart: lazy compilation
    belongs to set-up, not to the first op."""
    for chart in charts:
        p = chart.grid_points(2)[0]
        chart.runtime()
        metric.gaussian_curvature(chart, p)


def _spoiled_strip():
    """Criterion 2's spoiled partner: an extra x dy^2 term on the strip."""
    f = expr.sin(math.pi * expr.X) ** 2
    return metric.MetricChart(
        name="band-spoiled", g11=expr.const(0.0), g12=expr.const(1.0),
        g22=f + expr.X, domain=metric.Domain(),
        signature=metric.Signature.LORENTZIAN,
        sample_box=(0.0, 1.0, 0.0, 1.0)).validate()


def equivalence_pairs():
    """(name, g, gbar, decider keyword overrides) for every catalogue pair."""
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    pairs = []
    for a, l in BAND_MEMBERS:
        member, _ = zoo.band_chart(a=a, l=l)
        pairs.append(("band-a%g-l%g" % (a, l), base, member, {}))
    punctured, _ = zoo.punctured_plane_family()
    cp, _ = zoo.clifton_pohl()
    pairs.append(("punctured-family", punctured, cp, {}))
    sphere, _ = zoo.tannery_chart()
    deformed, _ = zoo.tannery_deformed()
    pairs.append(("tannery", sphere, deformed, {}))
    shift = zoo.projective_shift()
    moved = metric.pullback(shift.chart, shift.tau, name="shifted")
    pairs.append(("projective-shift", shift.chart, moved,
                  {"t_max": 0.7, "n_traces": 15}))
    sphere2, rot = zoo.tannery_chart()
    trunc = zoo.clairaut_truncation(sphere2, rot, l=1.0)
    pairs.append(("truncation", trunc.base, trunc.partner, {}))
    pairs.append(("spoiled-strip", base, _spoiled_strip(), {}))
    return pairs


# ---------------------------------------------------------------------------
# equivalence


def setup_equivalence():
    pairs = equivalence_pairs()
    warm({id(c): c for _, g, b, _ in pairs for c in (g, b)}.values())
    return [OpKind(name, _equivalence_op(name, g, gbar, kw))
            for name, g, gbar, kw in pairs]


def _equivalence_op(name, g, gbar, kw):
    want = EXPECTED_VERDICT[name]

    def run(seed):
        rep = projective.check_projective_equivalence(
            g, gbar, seed=EQUIVALENCE_DECIDER_SEED, **kw)
        ok = rep.verdict == want
        err = None
        if ok and want == projective.EQUIVALENT:
            err = max(rep.max_drift / rep.drift_tol,
                      rep.max_overlap / rep.overlap_tol)
        # The one documented defect at the pinned seed: the truncation pair
        # reads "inconclusive" (README.md, "Known defect").  It counts in
        # fail_frac but not as a failed op; any other wrong verdict is a
        # failed op and turns correct false.
        known = (not ok and name == "truncation"
                 and rep.verdict == projective.INCONCLUSIVE)
        return Outcome(ok, err, "%s %d/%d" % (rep.verdict, rep.n_conserved,
                                              rep.n_overlap), known)

    return run


# ---------------------------------------------------------------------------
# orbits


def setup_orbits():
    sphere, _ = zoo.tannery_chart()
    deformed, _ = zoo.tannery_deformed(l=-2.0)
    warm([sphere, deformed])
    return [OpKind("conjugate-sphere", _conjugate_op(sphere)),
            OpKind("closure-deformed", _closure_op(deformed))]


def _sphere_state(chart, rng):
    """A sampled state whose great circle keeps clear of both poles.

    Clairaut's relation puts the circle's closest approach to a pole at
    sin r_min = sin^2 r |v_theta| / |v|_g.
    """
    clear = math.sin(POLE_CLEARANCE)
    while True:
        st = sampling.sample_states(chart, 1, rng)[0]
        speed = math.sqrt(metric.metric_eval(chart, (st.x, st.y),
                                             (st.vx, st.vy)))
        if math.sin(st.x) ** 2 * abs(st.vy) / speed >= clear:
            return st


def _conjugate_op(sphere):
    def run(seed):
        rng = np.random.default_rng(seed)
        st = _sphere_state(sphere, rng)
        want = conjugate_times(sphere, st, CONJUGATE_T_MAX)
        times, jt = flow.find_conjugate_points(sphere, st, CONJUGATE_T_MAX)
        ok = (len(times) == len(want)
              and jt.termination is flow.Termination.TIME_LIMIT)
        err = None
        if ok:
            err = max([abs(t - w) / CONJUGATE_TOL
                       for t, w in zip(times, want)] + [0.0])
            ok = err <= 1.0
        return Outcome(ok, err if ok else None,
                       "%d conjugate %s" % (len(times), jt.termination.value))

    return run


def _deformed_state(rng):
    """Criterion 6's recipe for a spacelike state of the deformed sphere."""
    c2 = rng.uniform(0.55, 0.95)
    r_lo = math.asin(math.sqrt(c2 + 0.02))
    r = rng.uniform(r_lo + 0.02, math.pi - r_lo - 0.02)
    s = math.sin(r) ** 2
    vy = math.copysign(math.sqrt(c2) / s, rng.uniform(-1.0, 1.0))
    vx = math.copysign(math.sqrt(max(1.0 - c2 / s, 0.0)),
                       rng.uniform(-1.0, 1.0))
    return flow.GeodesicState(r, rng.uniform(0.0, 2.0 * math.pi), vx, vy)


def _closure_op(deformed):
    def run(seed):
        st = _deformed_state(np.random.default_rng(seed))
        rep = flow.detect_closure(deformed, st, t_max=CLOSURE_T_MAX,
                                  tol=CLOSURE_TOL)
        err = rep.min_distance / CLOSURE_TOL if rep.closed else None
        return Outcome(rep.closed, err,
                       "closed" if rep.closed else "open")

    return run


# ---------------------------------------------------------------------------
# symbolic


def setup_symbolic():
    shift = zoo.projective_shift()
    liouville, _ = zoo.liouville_chart()
    members = [zoo.punctured_plane_family(a, l)[0] for a, l in FAMILY_MEMBERS]
    cp, _ = zoo.clifton_pohl()
    sphere, rot = zoo.tannery_chart()
    catalogue = [(name, zoo.build_bundle(name).chart)
                 for name in sorted(zoo.catalogue())]
    pairs = equivalence_pairs()
    warm({id(c): c for c in
          [shift.chart, liouville, cp, sphere] + members
          + [c for _, c in catalogue]
          + [c for _, g, b, _ in pairs for c in (g, b)]}.values())

    swap = projective.liouville_swap_map(0.25, "swap")
    ops = [
        OpKind("isometry-shift", _map_check_op(
            "isometry-shift", projective.check_isometry, shift.chart,
            shift.tau)),
        OpKind("affinity-shift", _map_check_op(
            "affinity-shift", projective.check_affinity, shift.chart,
            shift.tau)),
        OpKind("isometry-liouville-swap", _map_check_op(
            "isometry-liouville-swap", projective.check_isometry, liouville,
            swap)),
        OpKind("affinity-liouville-swap", _map_check_op(
            "affinity-liouville-swap", projective.check_affinity, liouville,
            swap)),
        OpKind("liouville-search-positive", _search_op(
            "liouville-search-positive",
            2.0 + expr.sin(4.0 * math.pi * expr.X),
            5.0 - expr.sin(4.0 * math.pi * expr.Y), 0.5)),
        OpKind("liouville-search-negative", _search_op(
            "liouville-search-negative",
            2.0 + expr.sin(2.0 * math.pi * expr.X),
            2.0 + expr.sin(4.0 * math.pi * expr.Y), 1.0)),
        OpKind("pullback-shift", _pullback_op(shift.chart, shift.tau)),
        OpKind("truncation-build", _truncation_op(sphere, rot)),
        OpKind("fingerprints", _fingerprint_op(members, cp)),
        OpKind("rescaling-identity", _rescaling_op()),
    ]
    ops += [OpKind("pair-integral-" + name, _pair_integral_op(g, gbar))
            for name, g, gbar, _ in pairs]
    ops += [OpKind("round-trip-" + name, _round_trip_op(chart))
            for name, chart in catalogue]
    return ops


def _map_check_op(name, check, chart, cmap):
    want = EXPECTED_MAP_CHECK[name]

    def run(seed):
        res = check(chart, cmap, seed=seed)
        ok = res.passed == want
        err = res.max_residual / res.tol if ok and want else None
        return Outcome(ok, err, "pass" if res.passed else "fail")

    return run


def _search_op(name, h1, h2, period):
    want = EXPECTED_SEARCH[name]

    def run(seed):
        res = projective.liouville_isometry_search(h1, h2, period=period)
        if want is None:
            ok = not res.found and all(c["residual"] >= 1e-3
                                       for c in res.candidates.values())
            return Outcome(ok, None, "found" if res.found else "none")
        swap = res.candidates["swap"]
        err = max(abs(swap["k"] - want[0]), abs(swap["c"] - want[1])) \
            / SEARCH_TOL
        ok = bool(res.found) and err <= 1.0
        return Outcome(ok, float(err) if ok else None,
                       "found %s" % res.kind if res.found else "none")

    return run


def _pullback_op(chart, cmap):
    """Pulled coefficients against J^T g(phi(p)) J at sampled points."""
    def run(seed):
        pulled = metric.pullback(chart, cmap, name="pulled")
        rng = np.random.default_rng(seed)
        worst = 0.0
        for p in sampling.sample_points(pulled, 8, rng):
            e, f, g = chart.coefficients_at(cmap.apply(p))
            jac = cmap.jacobian(p)
            want = jac.T @ np.array([[e, f], [f, g]]) @ jac
            got = pulled.coefficients_at(p)
            worst = max(worst, _rel_residual(
                got, (want[0, 0], want[0, 1], want[1, 1])))
        err = worst / IDENTITY_TOL
        return Outcome(err <= 1.0, err, "pullback")

    return run


def _pair_integral_op(g, gbar):
    """I(v) against (det g / det gbar)^(2/3) gbar(v, v) at sampled states."""
    def run(seed):
        pair = integrals.darboux_integral(g, gbar)
        rng = np.random.default_rng(seed)
        inside = gbar.runtime().in_domain
        worst = 0.0
        for st in sampling.sample_states(g, 8, rng):
            p, v = (st.x, st.y), (st.vx, st.vy)
            if not inside(*p):
                continue
            ratio = g.det_at(p) / gbar.det_at(p)
            want = math.cbrt(ratio) ** 2 * metric.metric_eval(gbar, p, v)
            got = pair.value(p, v)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        err = worst / IDENTITY_TOL
        return Outcome(err <= 1.0, err, "pair-integral")

    return run


def _truncation_op(sphere, rot):
    def run(seed):
        tb = zoo.clairaut_truncation(sphere, rot, l=1.0)
        worst = 0.0
        for th in (0.7, 2.1, 4.4):
            for vy in (1.0, -1.0):
                worst = max(worst, abs(tb.integral.value((math.pi / 2, th),
                                                         (0.0, vy))))
        err = worst / KERNEL_TOL
        return Outcome(err <= 1.0, err, "truncation")

    return run


def _fingerprint_op(members, cp):
    def run(seed):
        worst = 0.0
        for chart, (a, l) in zip(members, FAMILY_MEMBERS):
            want_diag, want_axis = fingerprints(a, l)
            got_diag = metric.gaussian_curvature(chart, (1.0, 1.0))
            got_axis = metric.gaussian_curvature_limit(chart, (1.0, 0.0),
                                                       (0.0, 1.0))
            worst = max(worst,
                        abs(got_diag - want_diag) / max(1.0, abs(want_diag)),
                        abs(got_axis - want_axis) / max(1.0, abs(want_axis)))
        worst = max(worst, abs(metric.gaussian_curvature(cp, (1.0, 0.0))),
                    abs(metric.gaussian_curvature(cp, (1.0, 1.0)) + 2.0) / 2.0)
        err = worst / FINGERPRINT_TOL
        return Outcome(err <= 1.0, err, "fingerprints")

    return run


def _rescaling_op():
    def run(seed):
        worst, _ = zoo.sample_rescaling_identity(1000, seed=seed)
        err = worst / RESCALING_TOL
        return Outcome(err <= 1.0, err, "rescaling")

    return run


def _round_trip_op(chart):
    def run(seed):
        back = metric.chart_from_dict(metric.chart_to_dict(chart))
        worst = 0.0
        for p in chart.grid_points(4):
            worst = max(worst, _rel_residual(chart.coefficients_at(p),
                                             back.coefficients_at(p)))
        err = worst / ROUND_TRIP_TOL
        return Outcome(err <= 1.0 and back.name == chart.name, err,
                       "round-trip")

    return run


SETUP = {
    "equivalence": setup_equivalence,
    "orbits": setup_orbits,
    "symbolic": setup_symbolic,
}
