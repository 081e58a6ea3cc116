import json
import math

import numpy as np
import pytest

from geoproj import expr, flow, integrals, metric, sampling, zoo
from geoproj.flow import GeodesicState
from geoproj.integrals import (check_conservation, clairaut_integral,
                               darboux_integral, energy_integral,
                               integral_pullback, liouville_integral,
                               liouville_integral_printed)
from geoproj.metric import ChartMap, Domain, MetricChart, Signature, VectorField
from chartlib import flat_chart, lumpy_chart, null_plane_chart, sphere_chart
import oracles


def liouville_chart(h1, h2, sign=1, box=(-1.0, 1.0, -1.0, 1.0)):
    w = h1 + h2
    return MetricChart(
        name="liouville-test", g11=w, g12=expr.const(0.0),
        g22=float(sign) * w, domain=Domain(),
        signature=Signature.RIEMANNIAN if sign == 1 else Signature.LORENTZIAN,
        sample_box=box).validate()


def test_energy_is_conserved():
    m = lumpy_chart()
    rep = check_conservation(m, energy_integral(m), n_samples=10, seed=4)
    assert rep.passed
    assert rep.max_drift < 1e-7


def test_clairaut_on_sphere():
    m = sphere_chart()
    k = VectorField("rot", expr.const(0.0), expr.const(1.0))
    c = clairaut_integral(m, k)
    # C(v) = sin(r)^2 * vy
    s = GeodesicState(1.1, 0.2, 0.4, 0.7)
    assert c.value((s.x, s.y), (s.vx, s.vy)) == pytest.approx(
        math.sin(1.1) ** 2 * 0.7, rel=1e-12)
    rep = check_conservation(m, c, n_samples=12, seed=9)
    assert rep.passed, rep.max_drift


def test_along_is_the_value_at_every_trace_row():
    m = sphere_chart()
    c = clairaut_integral(m, VectorField("rot", expr.const(0.0),
                                         expr.const(1.0)))
    i = energy_integral(m) + c.squared_linear() + c
    tr = flow.integrate_geodesic(m, GeodesicState(1.1, 0.2, 0.4, 0.7), 2.0)
    got = i.along(tr)
    assert got.shape == (len(tr.ts),)
    want = [i.value((x, y), (vx, vy)) for x, y, vx, vy in tr.ys.tolist()]
    assert [float.hex(v) for v in got.tolist()] == [float.hex(v) for v in want]


def test_clairaut_rejects_non_killing_field():
    m = sphere_chart()
    with pytest.raises(integrals.KillingFieldError):
        clairaut_integral(m, VectorField("bad", expr.X, expr.const(1.0)))


def test_clairaut_on_null_plane_radial_field():
    m = null_plane_chart()
    k = VectorField("radial", expr.X, expr.Y)
    c = clairaut_integral(m, k)
    # g(K, v) with g = 2 s dx dy: L = s*(y, x)
    p = (1.2, -0.7)
    s = 1.0 / (p[0] ** 2 + p[1] ** 2)
    assert c.value(p, (2.0, 3.0)) == pytest.approx(s * (p[1] * 2.0 + p[0] * 3.0),
                                                   rel=1e-12)
    rep = check_conservation(m, c, n_samples=12, seed=5, t_max=0.5)
    assert rep.passed, rep.max_drift


def test_quadratic_combination_is_conserved():
    # g + t C^2 built through the integral algebra stays an integral
    m = sphere_chart()
    k = VectorField("rot", expr.const(0.0), expr.const(1.0))
    c2 = clairaut_integral(m, k).squared_linear()
    j = energy_integral(m) + c2.scaled(0.37)
    rep = check_conservation(m, j, n_samples=10, seed=3)
    assert rep.passed, rep.max_drift


def test_darboux_integral_constant_rescaling():
    # gbar = 4 g has the same geodesics; the 2/3-ratio integral must conserve
    m = lumpy_chart()
    four = expr.const(4.0)
    mbar = MetricChart(
        name="lumpy-x4", g11=four * m.g11, g12=four * m.g12, g22=four * m.g22,
        domain=m.domain, signature=m.signature,
        sample_box=m.sample_box).validate()
    i = darboux_integral(m, mbar)
    # ratio = 1/16, weight = 16^(-2/3); compare against the direct formula
    p, v = (0.2, -0.4), (0.8, 0.5)
    want = 16.0 ** (-2.0 / 3.0) * metric.metric_eval(mbar, p, v)
    assert i.value(p, v) == pytest.approx(want, rel=1e-12)
    rep = check_conservation(m, i, n_samples=8, seed=8)
    assert rep.passed


def test_darboux_integral_mixed_signature_allowed():
    # determinant ratios may be negative (mixed signature pairs); the real
    # cube root convention keeps the integral well defined
    g = flat_chart()
    b = null_plane_chart()
    i = darboux_integral(g, b)
    p, v = (1.0, 1.0), (0.3, -0.8)
    ratio = 1.0 / (-(1.0 / 2.0) ** 2)
    want = abs(ratio) ** (2.0 / 3.0) * metric.metric_eval(b, p, v)
    assert i.value(p, v) == pytest.approx(want, rel=1e-12)


def test_darboux_integral_degenerate_ratio_raises():
    g = flat_chart()
    # deliberately unvalidated chart whose determinant collapses across the box
    bad = MetricChart(
        name="collapsing", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=(expr.X * expr.X) ** 8 + 1e-14, domain=Domain(),
        signature=Signature.RIEMANNIAN, sample_box=(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(integrals.DegenerateRatioError):
        darboux_integral(g, bad)


def test_darboux_integral_compiles_one_bundle(monkeypatch):
    # the ratio the grid samples and the six fields the integral evaluates
    # come from one compiled function, and its values are those of the six
    # fields compiled on their own
    m = lumpy_chart()
    mbar = zoo.projective_shift().chart
    for chart in (m, mbar):
        chart.runtime()
    compiled, compile_function = [], expr.compile_function

    def counted(*args, **kwargs):
        compiled.append(args[1])
        return compile_function(*args, **kwargs)

    monkeypatch.setattr(expr, "compile_function", counted)
    i = darboux_integral(m, mbar)
    p, v = (0.2, -0.4), (0.8, 0.5)
    got = i.value(p, v)
    assert compiled == ["_compiled"]
    monkeypatch.undo()
    alone = integrals.FiberIntegral("alone", i.q11, i.q12, i.q22,
                                    i.l1, i.l2, i.c)
    assert float.hex(got) == float.hex(alone.value(p, v))


def test_liouville_integral_conserved_and_printed_variant_drifts():
    h1 = 2.0 + expr.sin(4.0 * math.pi * expr.X)
    h2 = 5.0 - expr.sin(4.0 * math.pi * expr.Y)
    m = liouville_chart(h1, h2)
    good = liouville_integral(h1, h2)
    rep = check_conservation(m, good, n_samples=15, seed=11)
    assert rep.passed, rep.max_drift
    bad = liouville_integral_printed(h1, h2)
    rep_bad = check_conservation(m, bad, n_samples=15, seed=11)
    assert not rep_bad.passed
    assert rep_bad.max_drift > 1e-2


def test_liouville_integral_lorentzian_sign():
    h1 = 2.0 + 0.4 * expr.cos(expr.X)
    h2 = 1.5 + 0.3 * expr.sin(expr.Y)
    m = liouville_chart(h1, h2, sign=-1)
    rep = check_conservation(m, liouville_integral(h1, h2, sign=-1),
                             n_samples=12, seed=6)
    assert rep.passed, rep.max_drift


def test_integral_pullback_chain_rule():
    m = lumpy_chart()
    i = energy_integral(m)
    phi = ChartMap("squash", expr.X + 0.2 * expr.Y * expr.Y,
                   expr.Y - 0.1 * expr.sin(expr.X))
    pulled = integral_pullback(i, phi)
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = tuple(rng.uniform(-0.8, 0.8, size=2))
        v = tuple(rng.uniform(-1.0, 1.0, size=2))
        jac = phi.jacobian(p)
        jv = jac @ np.array(v)
        want = i.value(phi.apply(p), (jv[0], jv[1]))
        assert pulled.value(p, v) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_independence_and_dependence():
    m = sphere_chart()
    en = energy_integral(m)
    k = VectorField("rot", expr.const(0.0), expr.const(1.0))
    c2 = clairaut_integral(m, k).squared_linear()
    assert oracles.independence_gram(en, c2, m, n=15, seed=2) > 1e-8
    assert oracles.independence_gram(en, en.scaled(2.0), m, n=15,
                                     seed=2) < 1e-12


def test_conservation_report_shape_and_determinism():
    m = sphere_chart()
    rep1 = check_conservation(m, energy_integral(m), n_samples=6, seed=77)
    rep2 = check_conservation(m, energy_integral(m), n_samples=6, seed=77)
    d1 = rep1.to_json_dict()
    d2 = rep2.to_json_dict()
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert set(d1) == {"schema", "chart", "integral", "n_samples", "n_used",
                       "dropped", "seed", "t_max", "tol", "max_drift", "pass"}
    assert d1["schema"] == 1
    assert d1["seed"] == 77


def test_conservation_report_counts_drop_reasons(monkeypatch):
    # at seed 12345 and t_max=0.5, five of the 20 sampled shift-metric
    # geodesics blow up before t_max
    chart = zoo.projective_shift().chart
    rep = check_conservation(chart, energy_integral(chart), n_samples=20,
                             t_max=0.5, seed=12345)
    assert rep.dropped == {"short": 0, "singularity": 5, "step-budget": 0}
    assert rep.n_used == 15
    d = rep.to_json_dict()
    assert d["dropped"] == rep.dropped
    assert (d["n_used"], d["t_max"], d["tol"]) == (15, 0.5, 1e-6)

    m = sphere_chart()
    # the shortest of the four traces takes 4 attempted steps
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    rep = check_conservation(m, energy_integral(m), n_samples=4, seed=3)
    assert rep.dropped == {"short": 0, "singularity": 0, "step-budget": 4}
    assert rep.n_used == 0 and not rep.passed


@pytest.mark.parametrize("name, t_max", [
    ("projective-shift", 0.5),   # five traces blow up
    ("flat", 1e-4),              # every trace is short
])
def test_conservation_drops_traces_by_their_drop_reason(monkeypatch, name,
                                                        t_max):
    chart = zoo.build_bundle(name).chart
    traces = []
    original = integrals.integrate_geodesic

    def recording(*args):
        traces.append(original(*args))
        return traces[-1]

    monkeypatch.setattr(integrals, "integrate_geodesic", recording)
    rep = check_conservation(chart, energy_integral(chart), n_samples=20,
                             t_max=t_max, seed=12345)
    reasons = [tr.drop_reason for tr in traces]
    assert len(traces) == 20 and set(reasons) - {None} != set()
    assert rep.dropped == {why: reasons.count(why)
                           for why in flow.DROP_REASONS}
    assert rep.n_used == reasons.count(None)


def test_partner_signature_is_read_at_the_first_grid_point():
    # Q = x dx^2 + dy^2 on the flat chart: the partner's determinant 1/x^3
    # changes sign across x = 0, which the sample grid straddles
    m = flat_chart()
    q = integrals.FiberIntegral("mixed", q11=expr.X, q22=expr.const(1.0))
    with pytest.raises(metric.SignatureError, match="tagged lorentzian"):
        integrals.metric_from_quadratic_integral(m, q)


def test_catalogue_partners_keep_their_signature_tags():
    tags = {name: zoo.build_bundle(name).chart.signature
            for name in ("clairaut-truncation", "punctured-family")}
    assert tags == {"clairaut-truncation": Signature.RIEMANNIAN,
                    "punctured-family": Signature.LORENTZIAN}


def test_drift_statistic_is_scale_invariant():
    m = sphere_chart()
    en = energy_integral(m)
    big = en.scaled(1e4)
    r1 = check_conservation(m, en, n_samples=8, seed=21)
    r2 = check_conservation(m, big, n_samples=8, seed=21)
    assert r1.passed and r2.passed
    assert r2.max_drift == pytest.approx(r1.max_drift, rel=1e-6)


def test_sampled_states_are_seeded_unit_and_in_the_domain():
    m = sphere_chart()
    st = sampling.sample_states(m, 20, np.random.default_rng(5))
    assert st == sampling.sample_states(m, 20, np.random.default_rng(5))
    assert st != sampling.sample_states(m, 20, np.random.default_rng(6))
    xa, xb, ya, yb = m.sample_box
    for s in st:
        assert xa <= s.x <= xb and ya <= s.y <= yb
        assert m.runtime().in_domain(s.x, s.y)
        assert math.hypot(s.vx, s.vy) == pytest.approx(1.0, abs=1e-15)
        assert s.t == 0.0
