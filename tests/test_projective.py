"""Tests for the equivalence deciders and the separable symmetry search."""

import math

import numpy as np
import pytest

from geoproj import expr, flow, integrals, projective, sampling, zoo
from geoproj.expr import X, Y
from geoproj.integrals import (check_conservation, integral_pullback,
                               liouville_integral)
from geoproj.metric import (ChartMap, Domain, MetricChart, Signature,
                            pullback)
from geoproj.projective import (EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT,
                                check_affinity, check_isometry,
                                check_projective_equivalence,
                                liouville_isometry_search, liouville_swap_map)

import oracles
from chartlib import flat_chart, sphere_chart


# The eight pairs of the benchmark's equivalence workload, decided at seed
# 12345: verdict, repr of max_drift and max_overlap, n_conserved, n_overlap
# and reason, as recorded once the overlap test traced both metrics by arc
# length and stepped by DOP853.  Every pair reads its expected verdict.
GOLDEN_EQUIVALENCE = {
    "band-a2-l0.3": ("equivalent", "8.984794318422195e-09",
                     "1.4341230416932828e-10", 18, 8, ""),
    "band-a-1-l0.4": ("equivalent", "8.754493541848323e-09",
                      "1.5609405026642927e-10", 18, 8, ""),
    "band-a1-l-0.5": ("equivalent", "1.1375321346065628e-08",
                      "1.2659829182513245e-10", 18, 8, ""),
    "punctured-family": ("equivalent", "4.432441620358252e-11",
                         "5.967430769273691e-10", 19, 8, ""),
    "tannery": ("equivalent", "8.160312700404407e-09",
                "6.63574346354707e-10", 20, 8, ""),
    "projective-shift": ("equivalent", "3.0520119985176826e-10",
                         "4.4964577717139847e-10", 10, 8, ""),
    "truncation": ("equivalent", "2.970426172981238e-11",
                   "1.643060411238875e-10", 20, 8, ""),
    "spoiled-strip": ("not-equivalent", "1152.2771482979372",
                      "0.6105641200311642", 18, 8, ""),
}


def _equivalence_pairs():
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    pairs = [("band-a%g-l%g" % (a, l), base, zoo.band_chart(a=a, l=l)[0],
              {}) for a, l in ((2.0, 0.3), (-1.0, 0.4), (1.0, -0.5))]
    pairs.append(("punctured-family", zoo.punctured_plane_family()[0],
                  zoo.clifton_pohl()[0], {}))
    pairs.append(("tannery", zoo.tannery_chart()[0],
                  zoo.tannery_deformed()[0], {}))
    shift = zoo.projective_shift()
    pairs.append(("projective-shift", shift.chart,
                  pullback(shift.chart, shift.tau, name="shifted"),
                  {"t_max": 0.7, "n_traces": 15}))
    sphere, rot = zoo.tannery_chart()
    trunc = zoo.clairaut_truncation(sphere, rot, l=1.0)
    pairs.append(("truncation", trunc.base, trunc.partner, {}))
    spoiled = MetricChart(
        name="band-spoiled", g11=expr.const(0.0), g12=expr.const(1.0),
        g22=expr.sin(math.pi * X) ** 2 + X, domain=Domain(),
        signature=Signature.LORENTZIAN,
        sample_box=(0.0, 1.0, 0.0, 1.0)).validate()
    pairs.append(("spoiled-strip", base, spoiled, {}))
    return pairs


def test_equivalence_reports_are_golden():
    got = {}
    for name, g, gbar, kw in _equivalence_pairs():
        r = check_projective_equivalence(g, gbar, seed=12345, **kw)
        got[name] = (r.verdict, repr(r.max_drift), repr(r.max_overlap),
                     r.n_conserved, r.n_overlap, r.reason)
    assert got == GOLDEN_EQUIVALENCE


@pytest.mark.parametrize("seed", [12345, 4242, 99])
def test_truncation_pair_is_equivalent(seed):
    # the partner runs the same curves about three times faster in the
    # chart; traced by arc length, both give the same positions.  At seeds
    # 99 and 4242 a partner trace stalls at the equator, where g11 ~
    # 1/cos^4 x blows up: unless the stall ends it there, it runs through
    # the singularity and bounces back off x = pi/2 (overlap 1.2 at seed
    # 99)
    sphere, rot = zoo.tannery_chart()
    trunc = zoo.clairaut_truncation(sphere, rot, l=1.0)
    report = check_projective_equivalence(trunc.base, trunc.partner,
                                          seed=seed)
    assert report.verdict == EQUIVALENT, report
    assert report.max_overlap < 1e-8


def test_band_pair_is_equivalent():
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    other, _ = zoo.band_chart(a=2.0, l=0.3)
    report = check_projective_equivalence(base, other, n_traces=10,
                                          t_max=0.8, seed=7)
    assert report.verdict == EQUIVALENT
    assert report.max_drift < 1e-6
    assert report.max_overlap < 1e-4


def test_band_spoiled_pair_is_not_equivalent():
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    f = expr.sin(math.pi * X) ** 2
    spoiled = MetricChart(
        name="band-spoiled", g11=expr.const(0.0), g12=expr.const(1.0),
        g22=f + 0.5 * X, domain=Domain(), signature=Signature.LORENTZIAN,
        sample_box=(0.0, 1.0, 0.0, 1.0)).validate()
    report = check_projective_equivalence(base, spoiled, n_traces=10,
                                          t_max=0.8, seed=7)
    assert report.verdict == NOT_EQUIVALENT
    assert report.max_drift > 1e-2


def test_sphere_flat_not_equivalent():
    sphere = sphere_chart()
    flat = MetricChart(
        name="flat-strip", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=expr.const(1.0), domain=Domain(x_min=0.0, x_max=math.pi),
        signature=Signature.RIEMANNIAN,
        sample_box=sphere.sample_box).validate()
    report = check_projective_equivalence(sphere, flat, n_traces=10,
                                          t_max=1.0, seed=3)
    assert report.verdict == NOT_EQUIVALENT


def test_equivalence_inconclusive_when_ratio_collapses():
    flat = flat_chart()
    bad = MetricChart(
        name="pinched", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=(X * X) ** 8 + 1e-14, domain=Domain(),
        signature=Signature.RIEMANNIAN, sample_box=(-2.0, 2.0, -2.0, 2.0))
    report = check_projective_equivalence(bad, flat, seed=5)
    assert report.verdict == INCONCLUSIVE
    assert "ratio" in report.reason


def _conservation_terminations(monkeypatch):
    """Record how each conservation trace ends."""
    trace_of, ends = integrals.integrate_geodesic, []

    def recorded(*args):
        trace = trace_of(*args)
        ends.append(trace.termination)
        return trace

    monkeypatch.setattr(integrals, "integrate_geodesic", recorded)
    return ends


def test_exhausted_step_budget_gives_a_verdict(monkeypatch):
    # most traces run out of their steps; the decider drops them and
    # reports that it has too little evidence instead of raising
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    other, _ = zoo.band_chart(a=2.0, l=0.3)
    ends = _conservation_terminations(monkeypatch)
    check_projective_equivalence(base, other, n_traces=6, seed=7)
    assert ends and flow.Termination.STEP_BUDGET not in ends
    # five of the six conservation traces take more than 12 attempted
    # steps
    del ends[:]
    monkeypatch.setattr(flow, "MAX_STEPS", 12)
    report = check_projective_equivalence(base, other, n_traces=6, seed=7)
    assert ends.count(flow.Termination.STEP_BUDGET) == 5
    assert report.verdict == INCONCLUSIVE
    assert report.n_conserved < 5
    assert "too few usable traces" in report.reason


def test_partner_is_traced_only_for_usable_traces(monkeypatch):
    # the overlap test needs both traces; tracing the partner of a trace of
    # g that is already unusable is wasted work.  Traced by arc length, the
    # band's blow-ups are regular traces (their chart images are unbounded),
    # so g here is the truncation partner: at this seed one of its traces
    # ends at a singularity, where its metric degenerates at the equator
    sphere, rot = zoo.tannery_chart()
    trunc = zoo.clairaut_truncation(sphere, rot, l=1.0)
    g, gbar = trunc.partner, trunc.base
    traced = []
    original = projective.integrate_by_arclength

    def counting(chart, state, length):
        trace = original(chart, state, length)
        traced.append((chart is g, trace.drop_reason is None))
        return trace

    monkeypatch.setattr(projective, "integrate_by_arclength", counting)
    report = check_projective_equivalence(g, gbar, n_traces=5,
                                          t_max=1.0, seed=0)
    assert report.verdict == EQUIVALENT
    usable_g = sum(1 for is_g, usable in traced if is_g and usable)
    partners = sum(1 for is_g, _ in traced if not is_g)
    assert usable_g < sum(1 for is_g, _ in traced if is_g)
    assert partners == usable_g


def test_equivalence_report_json_shape():
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    other, _ = zoo.band_chart(a=2.0, l=0.3)
    report = check_projective_equivalence(base, other, n_traces=8,
                                          t_max=0.5, seed=9)
    d = report.to_json_dict()
    assert set(d) == {"schema", "g", "gbar", "verdict", "max_drift",
                      "max_overlap", "n_traces", "n_conserved", "n_overlap",
                      "drift_tol", "overlap_tol", "seed", "reason"}
    assert d["schema"] == 2 and d["seed"] == 9


def test_isometry_rotation_passes_shear_fails():
    flat = flat_chart()
    th = 0.7
    rot = ChartMap(
        "rotate", math.cos(th) * X - math.sin(th) * Y,
        math.sin(th) * X + math.cos(th) * Y,
        inverse=ChartMap("rotate-inv",
                         math.cos(th) * X + math.sin(th) * Y,
                         -math.sin(th) * X + math.cos(th) * Y))
    assert check_isometry(flat, rot).passed
    shear = ChartMap("shear", X + 0.3 * Y, Y,
                     inverse=ChartMap("shear-inv", X - 0.3 * Y, Y))
    check = check_isometry(flat, shear)
    assert not check.passed
    assert check.max_residual > 1e-2
    # the shear is still affine: straight lines stay straight lines
    assert check_affinity(flat, shear).passed


def test_affinity_grading_on_scaling():
    flat = flat_chart()
    double = ChartMap("double", 2.0 * X, 2.0 * Y,
                      inverse=ChartMap("half", 0.5 * X, 0.5 * Y))
    assert not check_isometry(flat, double).passed
    assert check_affinity(flat, double).passed


def test_shift_translation_projective_but_nothing_stronger():
    bundle = zoo.projective_shift()
    g = bundle.chart
    assert not check_isometry(g, bundle.tau, n=30, seed=2).passed
    assert not check_affinity(g, bundle.tau, n=30, seed=2).passed
    moved = pullback(g, bundle.tau, name="shifted")
    report = check_projective_equivalence(g, moved, n_traces=12,
                                          t_max=0.7, seed=2)
    assert report.verdict == EQUIVALENT


BEND = ChartMap("bend", X + 0.1 * Y * Y, Y)
WARP = ChartMap("warp", X + 0.2 * expr.sin(Y), Y + 0.1 * X * X)


def _chain_rule_cases():
    """(id, chart, map) for every catalogue map, the Liouville swap and
    anti-swap, and two nonlinear maps on two charts."""
    cases = []
    for name in sorted(zoo.catalogue()):
        bundle = zoo.build_bundle(name)
        cases += [("%s:%s" % (name, key), bundle.chart, cmap)
                  for key, cmap in bundle.maps.items()]
    liouville, _ = zoo.liouville_chart()
    cases += [("liouville:" + kind, liouville, liouville_swap_map(0.25, kind))
              for kind in ("swap", "anti-swap")]
    cases += [("%s:%s" % (chart.name, m.name), chart, m)
              for chart in (flat_chart(), liouville) for m in (BEND, WARP)]
    return cases


def _close(got, want, rel=1e-12):
    scale = max(map(abs, want))
    return max(abs(a - b) for a, b in zip(got, want)) <= rel * scale


def test_map_check_chain_rule_matches_the_pulled_chart():
    # the chain-rule coefficients and connection the map checks compare
    # against those that pullback's chart compiles from its substituted
    # fields, and the domain rule against the chart's substituted domain
    cases = _chain_rule_cases()
    assert any(name.startswith("projective-shift") for name, _, _ in cases)
    for name, g, phi in cases:
        pulled = pullback(g, phi)
        rt, prt = g.runtime(), pulled.runtime()
        used = 0
        for x, y in sampling.sample_points(g, 60, np.random.default_rng(3)):
            jet = phi.jet(x, y)
            inside = rt.in_domain(jet[0], jet[1])
            assert inside == prt.in_domain(x, y), (name, x, y)
            if not inside:
                continue
            used += 1
            got = projective._pulled_coefficients(rt.coeffs, jet)
            assert _close(got, pulled.coefficients_at((x, y))), (name, x, y)
            got = projective._pulled_connection(rt.christoffel, jet)
            assert _close(got, prt.christoffel(x, y)[3:]), (name, x, y)
        assert used >= 30, name


def test_map_check_domain_is_the_pulled_domain():
    # the bend pushes part of the sphere's sample box over the pole
    # x = pi: those points lie outside phi^* g's domain and are drawn
    # again.  (Near the pole the pulled chart's determinant cancels, so
    # its connection is no 1e-12 oracle there.)
    g, phi = sphere_chart(), BEND
    prt, rt = pullback(g, phi).runtime(), g.runtime()
    points = sampling.sample_points(g, 200, np.random.default_rng(5))
    outside = 0
    for x, y in points:
        inside = prt.in_domain(x, y)
        assert rt.in_domain(*phi.apply((x, y))) == inside, (x, y)
        outside += not inside
    assert 20 <= outside <= 180
    result = check_isometry(g, phi, n=30, seed=5)
    assert result.n_points == 30 and not result.passed


def test_chart_map_jet_keeps_apply_and_jacobian():
    # the one bundle gives the values the fields compiled one by one give
    for p in [(0.3, -1.2), (1.7, 0.4)]:
        assert WARP.apply(p) == (WARP.fx(*p), WARP.fy(*p))
        jac = [f.diff(v)(*p) for f in (WARP.fx, WARP.fy) for v in "xy"]
        assert WARP.jacobian(p).ravel().tolist() == jac
        assert WARP.jet(*p)[6:] == (0.0, 0.0, -0.2 * math.sin(p[1]),
                                    0.2, 0.0, 0.0)


def _plus_big(v):
    # (v + 1e100)^4 as products of nodes: inf at every point, with no
    # constant that folds to inf when the map is differentiated
    s = v + 1e100
    return (s * s) * (s * s)


# maps that are no diffeomorphism at any point of the sample box
BAD_MAPS = {
    "constant": ChartMap("constant", expr.const(0.3), expr.const(0.2)),
    "rank-one": ChartMap("rank-one", X + Y, X + Y),
    "overflow": ChartMap("overflow", _plus_big(X), Y),
    "log-of-negative": ChartMap("log-of-negative", expr.log(X - 10.0), Y),
    "exp-overflow": ChartMap("exp-overflow", expr.exp(1000.0 + X * X), Y),
    # differentiating folds 1e300 * 1e300 to inf, so the jet is not built
    "jet-folds-to-inf": ChartMap("jet-folds-to-inf", X * 1e300 * 1e300, Y),
}


@pytest.mark.parametrize("check", [check_isometry, check_affinity])
@pytest.mark.parametrize("name", sorted(BAD_MAPS))
def test_bad_map_gives_a_failing_check(check, name):
    # a singular Jacobian, a value that is not finite and a value that
    # raises each make the point fail, with an infinite residual; a map
    # with no jet fails with no point checked
    liouville, _ = zoo.liouville_chart()
    for g in (flat_chart(), liouville, zoo.projective_shift().chart):
        result = check(g, BAD_MAPS[name], n=10)
        assert not result.passed
        assert result.max_residual == math.inf
        assert result.n_points == (0 if name == "jet-folds-to-inf" else 10)


def test_map_check_json_shape():
    flat = flat_chart()
    shear = ChartMap("shear", X + 0.3 * Y, Y)
    d = check_affinity(flat, shear).to_json_dict()
    assert set(d) == {"schema", "kind", "chart", "map", "max_residual",
                      "tol", "pass"}
    assert d["kind"] == "affinity"


def test_liouville_search_finds_quarter_shift():
    h1 = 2.0 + expr.sin(4.0 * math.pi * X)
    h2 = 5.0 - expr.sin(4.0 * math.pi * Y)
    result = liouville_isometry_search(h1, h2, period=0.5)
    assert result.found and not result.degenerate
    swap = result.candidates["swap"]
    assert abs(swap["k"] - 0.25) < 1e-6
    assert abs(swap["c"] - 3.0) < 1e-6
    assert swap["residual"] < 1e-10


def test_liouville_search_negative_pair():
    h1 = 2.0 + expr.sin(2.0 * math.pi * X)
    h2 = 2.0 + expr.sin(4.0 * math.pi * Y)
    result = liouville_isometry_search(h1, h2, period=1.0)
    assert not result.found
    for cand in result.candidates.values():
        assert cand["residual"] > 1e-3


def test_liouville_search_degenerate_flag():
    result = liouville_isometry_search(expr.const(1.0), expr.const(2.0),
                                       period=1.0)
    assert result.degenerate


def _anti_swap_h1(t):
    return 2.0 + expr.sin(4.0 * math.pi * t) + 0.3 * expr.sin(8.0 * math.pi * t)


def _smooth_bump(t):
    # a periodic bump built from smooth steps, as projective_shift builds
    # its ramp: the fractional part is shared and each step has two cutoffs
    u = t - expr.floor_of(t)
    return (expr.smoothstep((u - 0.1) / 0.3)
            * expr.smoothstep((0.9 - u) / 0.3))


# profile pairs (h1, h2, period) the grid scan must search exactly as the
# one-offset-at-a-time reference does; the first two are the benchmark's
SEARCH_PAIRS = {
    "quarter-shift": (2.0 + expr.sin(4.0 * math.pi * X),
                      5.0 - expr.sin(4.0 * math.pi * Y), 0.5),
    "mismatched": (2.0 + expr.sin(2.0 * math.pi * X),
                   2.0 + expr.sin(4.0 * math.pi * Y), 1.0),
    "constant": (expr.const(1.0), expr.const(2.0), 1.0),
    "two-harmonic": (3.0 + expr.sin(2.0 * math.pi * X)
                     + 0.4 * expr.cos(6.0 * math.pi * X),
                     1.0 - expr.sin(2.0 * math.pi * Y)
                     - 0.4 * expr.cos(6.0 * math.pi * Y), 1.0),
    "sin-squared": (1.0 + expr.sin(math.pi * X) ** 2,
                    4.0 + expr.sin(math.pi * Y + 0.7) ** 2, 1.0),
    "non-periodic": (1.0 + X ** 2, 2.0 + Y, 1.0),
    "anti-swap": (_anti_swap_h1(X), _anti_swap_h1(-Y - 0.25) + 1.0, 0.5),
    "smooth-bump": (1.0 + _smooth_bump(X), 3.0 + _smooth_bump(Y - 0.5), 1.0),
    # periods that are not powers of two, so the shifted grid points xs + k
    # are rounded sums: one pair is found (the swap at k = 0.15), one not
    "period-0.3": (2.0 + expr.sin(2.0 * math.pi / 0.3 * X),
                   5.0 - expr.sin(2.0 * math.pi / 0.3 * Y), 0.3),
    "period-2pi/3": (2.0 + expr.sin(3.0 * X),
                     2.0 + expr.cos(6.0 * Y), 2.0 * math.pi / 3.0),
    # two exact minima per period and orientation (the swap at k = 0.25
    # and 0.75, the anti-swap at 0 and 0.5), whose totals differ by
    # rounding only; the screened totals put the later one first, so the
    # screen must keep both for the exact step
    "two-minima": (0.7 + expr.sin(4.0 * math.pi * X),
                   1.9 - expr.sin(4.0 * math.pi * Y), 1.0),
    # squares overflow, so no screened total is finite; every total is inf
    "huge-profiles": (1e200 * (2.0 + expr.sin(4.0 * math.pi * X)),
                      1e200 * (5.0 - expr.sin(4.0 * math.pi * Y)), 0.5),
}


def test_smooth_bump_profiles_compile_to_several_statements():
    # so the reference comparison covers a loop body of many lines
    h1, h2, _ = SEARCH_PAIRS["smooth-bump"]
    for field in (h1, h2):
        lines, _ = expr.emit([field])
        assert len(lines) >= 8
        assert sum("exp(-(r :=" in line for line in lines) == 4


@pytest.mark.parametrize("name", sorted(SEARCH_PAIRS))
def test_liouville_search_matches_the_reference_bit_for_bit(name):
    h1, h2, period = SEARCH_PAIRS[name]
    got = liouville_isometry_search(h1, h2, period)
    want = oracles.liouville_search_reference(h1, h2, period)
    assert (got.found, got.kind, got.degenerate) \
        == (want.found, want.kind, want.degenerate)
    for attr in ("k", "c", "residual"):
        assert type(getattr(got, attr)) is float, attr
        assert float.hex(getattr(got, attr)) \
            == float.hex(float(getattr(want, attr))), attr
    assert set(got.candidates) == set(want.candidates)
    for kind, cand in got.candidates.items():
        assert set(cand) == set(want.candidates[kind])
        for key, value in cand.items():
            assert type(value) is float, (kind, key)
            assert float.hex(value) \
                == float.hex(float(want.candidates[kind][key])), (kind, key)


def test_liouville_search_on_periods_not_a_power_of_two():
    found = liouville_isometry_search(*SEARCH_PAIRS["period-0.3"])
    assert found.found and found.kind == "swap"
    assert abs(found.k - 0.15) < 1e-6 and abs(found.c - 3.0) < 1e-6
    missed = liouville_isometry_search(*SEARCH_PAIRS["period-2pi/3"])
    assert not missed.found
    assert min(c["residual"] for c in missed.candidates.values()) > 1e-3


def test_liouville_search_finds_an_anti_swap():
    h1, h2, period = SEARCH_PAIRS["anti-swap"]
    result = liouville_isometry_search(h1, h2, period)
    assert result.found and result.kind == "anti-swap"
    assert abs(result.k - 0.25) < 1e-6
    assert abs(result.c - 1.0) < 1e-6
    assert result.candidates["swap"]["residual"] > 1e-3


def test_liouville_search_reports_the_swap_when_both_orientations_hold():
    # on these pairs the anti-swap also holds, at rounding level like the
    # swap, so the smaller residual would pick either one by accident
    both = []
    for name, (h1, h2, period) in SEARCH_PAIRS.items():
        result = liouville_isometry_search(h1, h2, period)
        if all(c["residual"] <= 1e-8 for c in result.candidates.values()):
            both.append(name)
            assert result.kind == "swap", name
            assert result.k == result.candidates["swap"]["k"], name
    assert sorted(both) == ["constant", "period-0.3", "quarter-shift",
                            "smooth-bump", "two-minima"]


def test_liouville_search_refines_across_k_zero():
    # the anti-swap total is 2 - cos 2 pi (k + d) - cos 4 pi k with
    # d = 5/1024: its minimum lies at k = -9.765e-4, between the scan's
    # offsets -1/512 and 0, and the best scanned offset is 0
    d = 5.0 / 1024.0
    h1 = 2.0 + expr.sin(2.0 * math.pi * X)
    h2 = 2.0 + expr.sin(2.0 * math.pi * (d - Y))
    result = liouville_isometry_search(h1, h2, period=1.0)
    anti = result.candidates["anti-swap"]
    k = anti["k"]
    closed = (2.0 - math.cos(2.0 * math.pi * (k + d))
              - math.cos(4.0 * math.pi * k))
    assert 0.0 <= k < 1.0
    assert abs(k - 0.99902) < 1e-5
    assert abs(anti["residual"] - 3.765e-4) < 1e-7
    assert abs(anti["residual"] - closed) < 1e-12
    assert not result.found


def _counting_brent(monkeypatch):
    """Count the residual probes brent_min makes for the search."""
    brent, probes = projective.brent_min, []

    def counted(f, a, b, tol):
        def probe(k):
            probes.append(k)
            return f(k)
        return brent(probe, a, b, tol)

    monkeypatch.setattr(projective, "brent_min", counted)
    return probes


def test_liouville_refinement_probe_budget(monkeypatch):
    # the benchmark's two searches took 207 golden-section probes
    probes = _counting_brent(monkeypatch)
    for name in ("quarter-shift", "mismatched"):
        liouville_isometry_search(*SEARCH_PAIRS[name])
    assert len(probes) <= 80


def test_liouville_refinement_stops_where_the_residual_is_flat(monkeypatch):
    # the mismatched pair's residuals flatten to rounding long before the
    # bracket narrows to 1e-13: the search took 46 probes without the
    # flat stop
    probes = _counting_brent(monkeypatch)
    result = liouville_isometry_search(*SEARCH_PAIRS["mismatched"])
    assert not result.found
    assert len(probes) <= 35


def test_liouville_search_degenerate_pair_is_not_refined(monkeypatch):
    probes = _counting_brent(monkeypatch)
    result = liouville_isometry_search(*SEARCH_PAIRS["constant"])
    assert result.degenerate and result.k == 0.0
    assert probes == []


@pytest.mark.parametrize("name", ["anti-swap", "period-0.3", "quarter-shift",
                                  "smooth-bump", "two-harmonic"])
def test_liouville_refinement_matches_scipy_bounded(monkeypatch, name):
    # an independent minimiser on the same bracket and the same residual
    # must land on the same k for every accepted candidate
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    brent, refined = projective.brent_min, []

    def compared(f, a, b, tol):
        t, ft = brent(f, a, b, tol)
        ref = minimize_scalar(f, bounds=(a, b), method="bounded",
                              options={"xatol": tol})
        refined.append((t, ft, float(ref.x)))
        return t, ft

    monkeypatch.setattr(projective, "brent_min", compared)
    liouville_isometry_search(*SEARCH_PAIRS[name])
    accepted = [(t, ft, t_ref) for t, ft, t_ref in refined if ft <= 1e-8]
    assert accepted
    for t, ft, t_ref in accepted:
        assert abs(t - t_ref) <= 1e-10
        assert ft <= 1e-20


@pytest.mark.parametrize("period, expect_equal",
                         [(2.0 ** e, True) for e in range(-3, 4)]
                         + [(0.3, False)])
def test_shifted_sample_points_are_grid_points_on_power_of_two_periods_only(
        period, expect_equal):
    # xs + ks[j] is grid point 2i + j and xs + 2 ks[j] is 2i + 2j bit for
    # bit on power-of-two periods only
    xs = np.linspace(0.0, period, 256, endpoint=False)[:, None]
    ks = np.linspace(0.0, period, 512, endpoint=False)
    points = np.arange(1533) * (period / 512)
    i, j = np.arange(256)[:, None], np.arange(512)
    same = [np.array_equal((xs + ks).view(np.int64),
                           points[2 * i + j].view(np.int64)),
            np.array_equal((xs + 2.0 * ks).view(np.int64),
                           points[2 * i + 2 * j].view(np.int64))]
    assert all(same) if expect_equal else not all(same)


@pytest.mark.parametrize("name", ["quarter-shift", "mismatched"])
def test_liouville_scan_evaluates_each_grid_point_once(monkeypatch, name):
    # the evaluations before the first refinement are the scan's: h2 at
    # 1022 grid points and their negatives, h1 at 767
    counts = {"scan": 0, "refining": False}
    make_loop, brent = projective._profile_loop, projective.brent_min

    def counting_loop(field, var):
        loop = make_loop(field, var)

        def counted(args, out):
            if not counts["refining"]:
                counts["scan"] += len(args)
            return loop(args, out)
        return counted

    def flagged_brent(*args, **kwargs):
        counts["refining"] = True
        return brent(*args, **kwargs)

    monkeypatch.setattr(projective, "_profile_loop", counting_loop)
    monkeypatch.setattr(projective, "brent_min", flagged_brent)
    liouville_isometry_search(*SEARCH_PAIRS[name])
    assert counts["refining"]
    assert 0 < counts["scan"] <= 2 * 1022 + 767


@pytest.mark.parametrize("name", ["quarter-shift", "mismatched"])
def test_liouville_refinement_evaluates_only_its_probes(monkeypatch, name):
    # once refining, each probe evaluates h2 and h1 at 256 points; the
    # refined residual and c come from the best probe, with no further
    # evaluation at the refined k
    counts = {"refining": 0, "probes": 0}
    make_loop, brent = projective._profile_loop, projective.brent_min

    def counting_loop(field, var):
        loop = make_loop(field, var)

        def counted(args, out):
            if counts["probes"]:
                counts["refining"] += len(args)
            return loop(args, out)
        return counted

    def counted_brent(f, a, b, tol):
        def probe(k):
            counts["probes"] += 1
            return f(k)
        return brent(probe, a, b, tol)

    monkeypatch.setattr(projective, "_profile_loop", counting_loop)
    monkeypatch.setattr(projective, "brent_min", counted_brent)
    liouville_isometry_search(*SEARCH_PAIRS[name])
    assert counts["probes"] > 0
    assert counts["refining"] == 512 * counts["probes"]


_BUMP = 2.0 + expr.sin(2.0 * math.pi * X)
_HUGE = 1e200 * _BUMP


@pytest.mark.parametrize("h1, h2, name, arg, cause", [
    (1.0 / expr.sin(2.0 * math.pi * X), 2.0 + Y, "h1", 0.0,
     ZeroDivisionError),
    (expr.log(X), 2.0 + Y, "h1", 0.0, ValueError),
    # the first even grid point past log(max float) / 1000
    (expr.exp(1000.0 * X), 2.0 + Y, "h1", 364 / 512, OverflowError),
    # a product overflows to inf without raising (a ** 2 would raise)
    (_HUGE * _HUGE, 2.0 + Y, "h1", 0.0, None),
    # the anti-swap's arguments are the negative grid points
    (_BUMP, expr.sqrt(Y), "h2", -1.0 / 512, ValueError),
], ids=["division-by-zero", "log-domain", "exp-overflow", "inf-product",
        "h2-negative-argument"])
def test_liouville_search_names_a_profile_it_cannot_evaluate(
        h1, h2, name, arg, cause):
    with pytest.raises(expr.EvaluationError) as info:
        liouville_isometry_search(h1, h2, period=1.0)
    err = info.value
    var = "x" if name == "h1" else "y"
    assert err.point == ((arg, 0.0) if name == "h1" else (0.0, arg))
    assert str(err).startswith("profile %s at %s = %r: " % (name, var, arg))
    if cause is None:
        assert str(err).endswith("evaluated to inf")
        assert err.__cause__ is None
    else:
        assert type(err.__cause__) is cause


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
def test_liouville_search_refuses_a_period_not_positive_and_finite(period):
    with pytest.raises(ValueError, match="positive and finite"):
        liouville_isometry_search(X, Y, period)


def test_swap_maps_invert():
    for kind in ("swap", "anti-swap"):
        phi = liouville_swap_map(0.25, kind)
        p = (0.31, 0.87)
        q = phi.apply(p)
        back = phi.inverse.apply(q)
        assert abs(back[0] - p[0]) < 1e-14
        assert abs(back[1] - p[1]) < 1e-14
        assert abs(abs(np.linalg.det(phi.jacobian(p))) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        liouville_swap_map(0.25, "mirror")


def test_found_swap_is_isometry_and_moves_the_integral():
    # the discovered symmetry really is an isometry, and pulling the
    # separation integral back along it produces a distinct conserved
    # quantity: a new integral from an old one
    chart, sep = zoo.liouville_chart()
    phi = liouville_swap_map(0.25, "swap")
    assert check_isometry(chart, phi, n=30, seed=4).passed

    pulled = integral_pullback(sep, phi, name="swapped-separable")
    p, v = (0.3, 0.6), (0.7, -0.4)
    a, b = sep.value(p, v), pulled.value(p, v)
    assert abs(a - b) > 1e-3 * max(1.0, abs(a))
    report = check_conservation(chart, pulled, n_samples=8, t_max=0.8,
                                seed=6)
    assert report.passed, "max drift %.3g" % report.max_drift
