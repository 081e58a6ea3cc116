import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoproj import expr, flow, metric, zoo
from geoproj.metric import (CausalClass, ChartMap, Domain, MetricChart,
                            Signature, VectorField)
from chartlib import (lumpy_chart, null_plane_chart, sphere_chart,
                      unit_shift_pullback)
from oracles import (fd_christoffel, fd_gaussian_curvature, fd_map_jacobian,
                     metric_pairing)


def test_validate_rejects_wrong_signature_tag():
    with pytest.raises(metric.SignatureError):
        MetricChart(
            name="bad", g11=expr.const(1.0), g12=expr.const(0.0),
            g22=expr.const(1.0), domain=Domain(),
            signature=Signature.LORENTZIAN,
            sample_box=(0.0, 1.0, 0.0, 1.0)).validate()


def test_validate_rejects_degenerate_metric():
    with pytest.raises(metric.DegenerateMetricError):
        MetricChart(
            name="bad", g11=expr.const(1.0), g12=expr.const(1.0),
            g22=expr.const(1.0),
            domain=Domain(), signature=Signature.RIEMANNIAN,
            sample_box=(-1.0, 1.0, -1.0, 1.0)).validate()


@pytest.mark.parametrize("g22, degenerate", [
    (1e-13, True),    # validate refused this point, the curvature did not
    (1e-11, False),
])
def test_validate_and_curvature_share_the_degeneracy_threshold(g22,
                                                               degenerate):
    # constant coefficients E = 1, F = 0, G = g22: |det| / max(E^2, F^2,
    # G^2) is g22, which 1e-13 puts between the two thresholds the
    # curvature (1e-14) and validate (1e-12) once used
    chart = MetricChart(
        name="thin", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=expr.const(g22), domain=Domain(),
        signature=Signature.RIEMANNIAN, sample_box=(0.0, 1.0, 0.0, 1.0))

    def refuses(fn):
        try:
            fn()
        except metric.DegenerateMetricError:
            return True
        return False

    assert refuses(chart.validate) == degenerate
    assert refuses(lambda: metric.gaussian_curvature(chart, (0.5, 0.5))) \
        == degenerate


def test_metric_eval_bilinear():
    m = lumpy_chart()
    p = (0.3, -0.4)
    v, w = (1.2, -0.7), (0.5, 2.0)
    E, F, G = m.coefficients_at(p)
    assert metric.metric_eval(m, p, v) == pytest.approx(
        E * v[0] * v[0] + 2.0 * F * v[0] * v[1] + G * v[1] * v[1])
    assert metric_pairing(m, p, v, w) == pytest.approx(
        E * v[0] * w[0] + F * (v[0] * w[1] + v[1] * w[0]) + G * v[1] * w[1])


def test_christoffel_matches_finite_differences():
    for chart in (sphere_chart(), null_plane_chart(), lumpy_chart()):
        pts = chart.grid_points(4)[:6]
        for p in pts:
            got = metric.christoffel(chart, p)
            want = fd_christoffel(chart.runtime().coeffs, p[0], p[1])
            assert_allclose(got, np.array(want), rtol=2e-6, atol=1e-6,
                            err_msg=chart.name)


def test_christoffel_sphere_closed_form():
    m = sphere_chart()
    r = 1.1
    got = metric.christoffel(m, (r, 0.3))
    want = np.zeros((2, 2, 2))
    want[0, 1, 1] = -math.sin(r) * math.cos(r)
    want[1, 0, 1] = want[1, 1, 0] = math.cos(r) / math.sin(r)
    assert_allclose(got, want, atol=1e-12)


def test_metric_compatibility_of_connection():
    # covariant derivative of g vanishes: d_k g_ij = G^l_ki g_lj + G^l_kj g_il
    for chart in (sphere_chart(), lumpy_chart(), null_plane_chart()):
        for p in chart.grid_points(3)[:4]:
            E, Ex, Ey, F, Fx, Fy, G, Gx, Gy = expr.compile_fields(
                [g for f in (chart.g11, chart.g12, chart.g22)
                 for g in (f, f.diff("x"), f.diff("y"))])(*p)
            gmat = np.array([[E, F], [F, G]])
            dg = [np.array([[Ex, Fx], [Fx, Gx]]), np.array([[Ey, Fy], [Fy, Gy]])]
            gam = metric.christoffel(chart, p)
            for k in range(2):
                for i in range(2):
                    for j in range(2):
                        models = sum(gam[l, k, i] * gmat[l, j] + gam[l, k, j] * gmat[i, l]
                                     for l in range(2))
                        assert dg[k][i, j] == pytest.approx(models, rel=1e-8, abs=1e-8)


def test_gaussian_curvature_sphere_is_one():
    m = sphere_chart()
    for p in m.grid_points(4)[:8]:
        assert metric.gaussian_curvature(m, p) == pytest.approx(1.0, rel=1e-10)


def test_gaussian_curvature_matches_finite_differences():
    for chart in (lumpy_chart(), null_plane_chart()):
        for p in chart.grid_points(3)[:4]:
            got = metric.gaussian_curvature(chart, p)
            want = fd_gaussian_curvature(chart.runtime().coeffs, p[0], p[1])
            assert got == pytest.approx(want, rel=1e-5, abs=1e-5), chart.name


def test_null_plane_curvature_values():
    m = null_plane_chart()
    assert metric.gaussian_curvature(m, (1.0, 1.0)) == pytest.approx(-2.0, rel=1e-12)
    assert metric.gaussian_curvature(m, (1.0, 1e-7)) == pytest.approx(0.0, abs=1e-6)


def test_classify_and_tolerance_scaling():
    m = null_plane_chart()
    p = (1.0, 1.0)
    assert metric.classify(m, p, (1.0, 1.0)) == CausalClass.SPACELIKE
    assert metric.classify(m, p, (1.0, -1.0)) == CausalClass.TIMELIKE
    assert metric.classify(m, p, (1.0, 0.0)) == CausalClass.LIGHTLIKE
    for v in [(1.0, 1.0), (1.0, -1.0), (1.0, 0.0)]:
        big = (1e6 * v[0], 1e6 * v[1])
        assert metric.classify(m, p, big) == metric.classify(m, p, v)
    r = sphere_chart()
    assert metric.classify(r, (1.0, 0.0), (0.3, 0.4)) == CausalClass.SPACELIKE


def test_pullback_matches_chain_rule_oracle():
    m = lumpy_chart()
    phi = ChartMap("warp", expr.X + 0.3 * expr.sin(expr.Y), expr.Y - 0.2 * expr.X * expr.X)
    pb = metric.pullback(m, phi)
    rng = np.random.default_rng(11)
    for _ in range(12):
        p = tuple(rng.uniform(-0.7, 0.7, size=2))
        v = tuple(rng.uniform(-1.0, 1.0, size=2))
        w = tuple(rng.uniform(-1.0, 1.0, size=2))
        jac = fd_map_jacobian(lambda a, b: phi.fx(a, b), lambda a, b: phi.fy(a, b), *p)
        vv = (jac[0][0] * v[0] + jac[0][1] * v[1], jac[1][0] * v[0] + jac[1][1] * v[1])
        ww = (jac[0][0] * w[0] + jac[0][1] * w[1], jac[1][0] * w[0] + jac[1][1] * w[1])
        want = metric_pairing(m, phi.apply(p), vv, ww)
        got = metric_pairing(pb, p, v, w)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_pullback_of_null_plane_by_quarter_turn():
    m = null_plane_chart()
    rot = ChartMap("rot90", -expr.Y, expr.X,
                   inverse=ChartMap("rot270", expr.Y, -expr.X))
    pb = metric.pullback(m, rot)
    for p in [(0.7, 0.4), (-1.1, 0.8), (1.5, -1.2)]:
        E, F, G = pb.coefficients_at(p)
        s = 1.0 / (p[0] ** 2 + p[1] ** 2)
        # the quarter turn flips the sign of the cross coefficient
        assert E == pytest.approx(0.0, abs=1e-15)
        assert G == pytest.approx(0.0, abs=1e-15)
        assert F == pytest.approx(-s, rel=1e-14)


def test_pullback_functoriality():
    m = lumpy_chart()
    phi = ChartMap("phi", expr.X + 0.1 * expr.Y * expr.Y, expr.Y)
    psi = ChartMap("psi", 0.5 * expr.X, expr.Y - 0.3 * expr.sin(expr.X))
    both = metric.pullback(m, ChartMap(
        "phi*psi", *expr.substitute([phi.fx, phi.fy], psi.fx, psi.fy)))
    nested = metric.pullback(metric.pullback(m, phi), psi)
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = tuple(rng.uniform(-0.6, 0.6, size=2))
        for ca, cb in zip(both.coefficients_at(p), nested.coefficients_at(p)):
            assert ca == pytest.approx(cb, rel=1e-10, abs=1e-12)


def test_killing_residual_detects():
    m = null_plane_chart()
    radial = VectorField("radial", expr.X, expr.Y)
    assert metric.killing_residual(m, radial) < 1e-12
    bogus = VectorField("bogus", expr.X * expr.X, expr.Y)
    assert metric.killing_residual(m, bogus) > 1e-3
    s = sphere_chart()
    rotation = VectorField("rotation", expr.const(0.0), expr.const(1.0))
    assert metric.killing_residual(s, rotation) < 1e-12


def test_domain_constraint_and_contains():
    dom = Domain(x_min=0.0, x_max=2.0, constraints=(1.0 - expr.Y * expr.Y,))
    inside = MetricChart(
        name="cut", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=expr.const(1.0), domain=dom, signature=Signature.RIEMANNIAN,
        sample_box=(0.0, 2.0, -1.0, 1.0)).runtime().in_domain
    assert inside(1.0, 0.5)
    assert not inside(1.0, 1.5)
    assert not inside(-0.1, 0.0)
    fs = dom.factors()

    def f(x, y):
        return min(g(x, y) for g in fs)

    assert f(1.0, 0.5) > 0.0
    assert f(1.0, 1.5) < 0.0
    assert f(-0.1, 0.0) < 0.0
    assert f(2.4, 3.0) < 0.0


@pytest.mark.parametrize("x", [1e-300, 1e-17, 1e-16, 1e-15,
                               math.nextafter(math.pi, 0.0)])
def test_pulled_domain_keeps_the_bounds_sign_exact(x):
    sphere, _ = zoo.tannery_chart()
    pulled = unit_shift_pullback(sphere)
    for y in (-1.0, 0.3):
        assert sphere.runtime().in_domain(x, y + 1.0)
        assert pulled.runtime().in_domain(x, y)


def test_pulled_constraints_round_trip_through_a_chart_file():
    sphere, rot = zoo.tannery_chart()
    base = zoo.clairaut_truncation(sphere, rot, l=1.0).base
    pulled = unit_shift_pullback(base)
    assert len(pulled.domain.constraints) == 3
    data = json.loads(json.dumps(metric.chart_to_dict(pulled)))
    assert isinstance(data["domain"]["constraint"], list)
    back = metric.chart_from_dict(data)
    assert len(back.domain.constraints) == 3
    inside_a = pulled.runtime().in_domain
    inside_b = back.runtime().in_domain
    xs = np.linspace(-0.5, math.pi + 0.5, 41)
    ys = np.linspace(-1.0, 1.0, 9)
    answers = [inside_a(x, y) for x in xs for y in ys]
    assert answers == [inside_b(x, y) for x in xs for y in ys]
    assert any(answers) and not all(answers)


def test_one_constraint_is_written_as_one_text():
    sphere, rot = zoo.tannery_chart()
    base = zoo.clairaut_truncation(sphere, rot, l=1.0).base
    text = metric.chart_to_dict(base)["domain"]["constraint"]
    assert isinstance(text, str)
    back = metric.chart_from_dict(metric.chart_to_dict(base))
    assert [expr.to_prefix(c) for c in back.domain.constraints] == [text]


def test_chart_serialization_round_trip():
    m = null_plane_chart()
    blob = json.dumps(metric.chart_to_dict(m), sort_keys=True)
    back = metric.chart_from_dict(json.loads(blob))
    assert back.name == m.name
    assert back.signature == m.signature
    assert back.domain.exclude_radius == m.domain.exclude_radius
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = tuple(rng.uniform(0.3, 1.8, size=2))
        for ca, cb in zip(m.coefficients_at(p), back.coefficients_at(p)):
            assert ca == pytest.approx(cb, rel=1e-15)
    s = sphere_chart()
    back2 = metric.chart_from_dict(json.loads(json.dumps(metric.chart_to_dict(s))))
    assert back2.domain.x_max == pytest.approx(math.pi)
    assert back2.periods[1] == pytest.approx(2.0 * math.pi)


@pytest.mark.parametrize("period", [0.0, -2.0 * math.pi, math.nan,
                                    math.inf])
def test_chart_file_period_must_be_positive_and_finite(period):
    # a zero period made closure detection raise from math.fmod, and a
    # negative one kept the sphere's equator from closing
    data = metric.chart_to_dict(sphere_chart())
    data["periods"] = [None, period]
    with pytest.raises(metric.DomainError, match="'periods'"):
        metric.chart_from_dict(data)
    data["periods"] = [None, None]
    assert metric.chart_from_dict(data).periods == (None, None)


@pytest.mark.parametrize("form", [
    "(* 1.0001 %s)", "(/ %s 1.0001)", "(+ 0.001 %s)", "(sin %s)"])
def test_a_chart_at_the_parse_depth_cap_passes_every_pass(form):
    # differentiation recurses about two frames per tree level, and these
    # shapes need the most; a coefficient 200 levels deep, the parse cap,
    # goes through every pass that differentiates, serializes or
    # substitutes it
    text = "x"
    for _ in range(199):
        text = form % text
    data = {"schema": 1, "name": "deep", "signature": "riemannian",
            "coefficients": {"g11": "(+ 2.0 %s)" % text, "g12": "0.0",
                             "g22": "1.0"},
            "domain": {}, "sample_box": [0.1, 0.5, 0.1, 0.5],
            "periods": [None, None]}
    chart = metric.chart_from_dict(data)
    p = (0.3, 0.3)
    want = fd_christoffel(chart.runtime().coeffs, *p)
    assert_allclose(metric.christoffel(chart, p), want, rtol=1e-5,
                    atol=1e-8)
    assert math.isfinite(metric.gaussian_curvature(chart, p))
    state = flow.GeodesicState(0.3, 0.3, 0.1, 1.0)
    assert flow.integrate_geodesic(chart, state, 0.1).termination \
        == flow.Termination.TIME_LIMIT
    _, jt = flow.find_conjugate_points(chart, state, 0.1)
    assert jt.termination == flow.Termination.TIME_LIMIT
    back = metric.chart_from_dict(json.loads(json.dumps(
        metric.chart_to_dict(chart))))
    assert back.coefficients_at(p) == chart.coefficients_at(p)
    moved = metric.pullback(chart, ChartMap("shift", expr.X + 0.01, expr.Y))
    assert_allclose(moved.coefficients_at(p),
                    chart.coefficients_at((0.31, 0.3)), rtol=1e-14)


def test_grid_points_respects_domain():
    m = null_plane_chart()
    for (x, y) in m.grid_points(8):
        assert x * x + y * y > 1e-12
    with pytest.raises(metric.DomainError):
        MetricChart(
            name="empty", g11=expr.const(1.0), g12=expr.const(0.0),
            g22=expr.const(1.0),
            domain=Domain(x_min=0.0, x_max=1.0),
            signature=Signature.RIEMANNIAN,
            sample_box=(5.0, 6.0, 0.0, 1.0)).grid_points()
