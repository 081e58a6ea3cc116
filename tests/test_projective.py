"""Tests for the equivalence deciders and the separable symmetry search."""

import math

import numpy as np
import pytest

from geoproj import expr, zoo
from geoproj.expr import X, Y
from geoproj.flow import IntegratorOptions
from geoproj.integrals import (check_conservation, integral_pullback,
                               liouville_integral)
from geoproj.metric import (ChartMap, Domain, MetricChart, Signature,
                            pullback)
from geoproj.projective import (EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT,
                                check_affinity, check_isometry,
                                check_projective_equivalence,
                                liouville_isometry_search, liouville_swap_map)

from chartlib import flat_chart, sphere_chart


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


def test_exhausted_step_budget_gives_a_verdict():
    # most traces run out of their 50 steps; the decider drops them and
    # reports that it has too little evidence instead of raising
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    other, _ = zoo.band_chart(a=2.0, l=0.3)
    report = check_projective_equivalence(
        base, other, n_traces=6, seed=7, opts=IntegratorOptions(max_steps=50))
    assert report.verdict == INCONCLUSIVE
    assert report.n_conserved < 5
    assert "too few usable traces" in report.reason


def test_equivalence_report_json_shape():
    base, _ = zoo.band_chart(a=1.0, l=0.0)
    other, _ = zoo.band_chart(a=2.0, l=0.3)
    report = check_projective_equivalence(base, other, n_traces=8,
                                          t_max=0.5, seed=9)
    d = report.to_json_dict()
    assert set(d) == {"schema", "g", "gbar", "verdict", "max_drift",
                      "max_overlap", "n_traces", "seed"}
    assert d["schema"] == 1 and d["seed"] == 9


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
