"""Tests for the equivalence deciders and the separable symmetry search."""

import math

import numpy as np
import pytest

from geoproj import expr, flow, projective, zoo
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
# length.  Every pair reads its expected verdict.
GOLDEN_EQUIVALENCE = {
    "band-a2-l0.3": ("equivalent", "8.351141702028669e-09",
                     "2.0550521612126414e-10", 18, 8, ""),
    "band-a-1-l0.4": ("equivalent", "8.146511433641113e-09",
                      "1.7627900120161886e-10", 18, 8, ""),
    "band-a1-l-0.5": ("equivalent", "1.0475287166625398e-08",
                      "1.2059517556340454e-10", 18, 8, ""),
    "punctured-family": ("equivalent", "6.38710267231914e-11",
                         "7.009101847870246e-11", 19, 8, ""),
    "tannery": ("equivalent", "6.266363361554047e-09",
                "2.2593744801043335e-09", 20, 8, ""),
    "projective-shift": ("equivalent", "8.210633939333688e-10",
                         "3.916074258704289e-11", 10, 8, ""),
    "truncation": ("equivalent", "1.9907432933493117e-10",
                   "7.788986995786565e-11", 20, 8, ""),
    "spoiled-strip": ("not-equivalent", "1152.277149597342",
                      "0.6105641201837201", 18, 8, ""),
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


@pytest.mark.parametrize("seed", [12345, 4242])
def test_truncation_pair_is_equivalent(seed):
    # the partner runs the same curves about three times faster in the
    # chart; traced by arc length, both give the same positions
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


def test_exhausted_step_budget_gives_a_verdict(monkeypatch):
    # most traces run out of their 50 steps; the decider drops them and
    # reports that it has too little evidence instead of raising
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    other, _ = zoo.band_chart(a=2.0, l=0.3)
    monkeypatch.setattr(flow, "MAX_STEPS", 50)
    report = check_projective_equivalence(base, other, n_traces=6, seed=7)
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


# profile pairs (h1, h2, period) the blocked scan must search exactly as the
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
