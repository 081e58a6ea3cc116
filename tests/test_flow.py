import ast
import gc
import io
import math
import re
import signal
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoproj import expr, flow, metric, sampling, zoo
from geoproj.flow import (GeodesicState, Termination, detect_closure,
                          find_conjugate_points, integrate_by_arclength,
                          integrate_geodesic, trace_to_csv)
from geoproj.integrals import energy_integral
from chartlib import flat_chart, lumpy_chart, null_plane_chart, sphere_chart
from oracles import jacobi_conjugate_times


def _energy_along(chart, trace):
    coeffs = chart.runtime().coeffs
    out = []
    for x, y, vx, vy in trace.ys[:, :4]:
        E, F, G = coeffs(x, y)
        out.append(E * vx ** 2 + 2 * F * vx * vy + G * vy ** 2)
    return np.array(out)


def test_flat_geodesics_are_straight_lines():
    m = flat_chart()
    s0 = GeodesicState(0.1, -0.2, 0.3, 0.7)
    tr = integrate_geodesic(m, s0, 4.0)
    assert tr.termination == Termination.TIME_LIMIT
    assert tr.ts[-1] == pytest.approx(4.0)
    for t in np.linspace(0.0, 4.0, 17):
        x, y, vx, _ = tr.dense(t)
        assert x == pytest.approx(0.1 + 0.3 * t, abs=1e-12)
        assert y == pytest.approx(-0.2 + 0.7 * t, abs=1e-12)
        assert vx == pytest.approx(0.3, abs=1e-13)


def test_equator_orbit_positions_and_energy():
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, 0.0, 1.0)
    tr = integrate_geodesic(m, s0, 10.0)
    assert tr.termination == Termination.TIME_LIMIT
    for t in np.linspace(0.5, 9.5, 13):
        x, y = tr.dense(t)[:2]
        assert x == pytest.approx(math.pi / 2, abs=1e-9)
        assert y == pytest.approx(t, rel=1e-9)
    en = _energy_along(m, tr)
    assert np.max(np.abs(en - en[0])) < 1e-9


def test_great_circle_against_closed_form():
    # initial velocity tilted against the equator; compare with the exact
    # great-circle solution expressed in spherical coordinates
    m = sphere_chart()
    alpha = 0.35
    s0 = GeodesicState(math.pi / 2, 0.0, math.sin(alpha), math.cos(alpha))
    tr = integrate_geodesic(m, s0, 3.0)
    for t in np.linspace(0.1, 3.0, 9):
        # unit-speed great circle through the equator point with tilt alpha
        z = math.sin(alpha) * math.sin(t)
        want_x = math.acos(-z) if abs(z) <= 1 else None
        assert tr.dense(t)[0] == pytest.approx(want_x, abs=1e-8)
    en = _energy_along(m, tr)
    assert np.max(np.abs(en - en[0])) < 1e-9


def test_geodesic_equation_residual_finite_difference():
    m = lumpy_chart()
    s0 = GeodesicState(0.1, 0.2, 0.8, -0.3)
    tr = integrate_geodesic(m, s0, 2.0)
    delta = 1e-5
    for t in np.linspace(0.2, 1.8, 7):
        before = tr.dense(t - delta)
        after = tr.dense(t + delta)
        acc_fd = (after[2:4] - before[2:4]) / (2 * delta)
        x, y, vx, vy = tr.dense(t)
        gam = metric.christoffel(m, (x, y))
        v = np.array([vx, vy])
        want = -np.einsum("kij,i,j->k", gam, v, v)
        assert_allclose(acc_fd, want, rtol=1e-4, atol=1e-6)


def test_reversibility_flat_and_sphere():
    for m, s0 in [
        (flat_chart(), GeodesicState(0.0, 0.0, 0.6, -0.2)),
        (sphere_chart(), GeodesicState(1.2, 0.4, 0.3, 0.5)),
        (lumpy_chart(), GeodesicState(-0.2, 0.1, 0.5, 0.4)),
    ]:
        fwd = integrate_geodesic(m, s0, 1.0)
        end = fwd.final_state()
        back = integrate_geodesic(
            m, GeodesicState(end.x, end.y, -end.vx, -end.vy, t=0.0), 1.0)
        ret = back.final_state()
        assert math.hypot(ret.x - s0.x, ret.y - s0.y) < 1e-6
        assert math.hypot(ret.vx + s0.vx, ret.vy + s0.vy) < 1e-6


def test_domain_exit_at_sphere_pole():
    m = sphere_chart()
    s0 = GeodesicState(1.0, 0.0, -1.0, 0.0)   # meridian, heading for the pole
    tr = integrate_geodesic(m, s0, 3.0)
    assert tr.termination == Termination.DOMAIN_EXIT
    assert tr.final_state().x > 0.0
    assert tr.ts[-1] < 1.05


def test_singularity_on_null_plane_blowup():
    # along the x axis the geodesic x(t) = 1/(1-t) leaves every compact set
    # in finite parameter; step control must underflow before t_max
    m = null_plane_chart()
    s0 = GeodesicState(1.0, 0.0, 1.0, 0.0)
    tr = integrate_geodesic(m, s0, 2.0)
    assert tr.termination == Termination.SINGULARITY
    assert tr.ts[-1] < 1.01
    assert tr.final_state().x > 100.0


# Attempted steps (n_accepted + n_rejected) of the blow-up above when the
# trace ran on until its step size fell below h_min (273), and when a step
# below 3e-5 of the trace's largest ended it (106).  The stall rule must
# save at least a quarter of the latter.
NULL_PLANE_STEPS_AT_COLLAPSE = 106


def test_null_plane_blowup_exits_on_step_collapse():
    m = null_plane_chart()
    tr = integrate_geodesic(m, GeodesicState(1.0, 0.0, 1.0, 0.0), 2.0)
    assert tr.termination == Termination.SINGULARITY
    assert tr.n_accepted + tr.n_rejected <= 0.75 * NULL_PLANE_STEPS_AT_COLLAPSE


@pytest.mark.parametrize("c", [1e-3, 1e-4, 1e-5])
def test_pole_grazing_geodesic_reaches_time_limit(c):
    # a great circle through the equator whose closest approach to the
    # pole is colatitude c (Clairaut: sin^2(x) vy = sin(c)); the steps
    # shrink by four decades or more there and grow back, while the metric
    # degenerates like sin^2(x)
    m = sphere_chart()
    vy = math.sin(c)
    s0 = GeodesicState(math.pi / 2, 0.0, -math.sqrt(1.0 - vy * vy), vy)
    tr = integrate_geodesic(m, s0, 3.0)
    assert tr.termination == Termination.TIME_LIMIT
    # the dense output's minimum of x over the steps around the closest
    # step end lies within 1e-9 of the closest approach; the step ends
    # themselves pass up to 3e-7 from it
    i = int(np.argmin(tr.ys[:, 0]))
    _, closest = flow.brent_min(lambda t: tr.dense(t, 0), float(tr.ts[i - 1]),
                                float(tr.ts[i + 1]), 1e-12)
    assert closest == pytest.approx(c, abs=1e-9)


@pytest.mark.parametrize("state, want", [
    # heads for the origin and reaches the excluded disc of radius 1e-6
    (GeodesicState(1e-3, 0.0, -1.0, 0.0), Termination.DOMAIN_EXIT),
    # slows down on the way in and stops about 1.4e-4 from the origin
    (GeodesicState(1e-2, 0.0, -1.0, 1e-4), Termination.TIME_LIMIT),
    # bends away and blows up in finite parameter
    (GeodesicState(1e-2, 1e-3, -1.0, 0.0), Termination.SINGULARITY),
])
def test_clifton_pohl_near_excluded_disc_keeps_termination(state, want):
    cp, _ = zoo.clifton_pohl()
    assert integrate_geodesic(cp, state, 1.0).termination == want


def test_tiny_final_step_is_not_a_collapse():
    # stop 1e-9 past an accepted step: the last step is cut to 1e-9, far
    # below the trace's largest step, and still ends the trace on time
    m = sphere_chart()
    s0 = GeodesicState(1.2, 0.0, 0.3, 1.0)
    t_stop = float(integrate_geodesic(m, s0, 3.0).ts[5]) + 1e-9
    tr = integrate_geodesic(m, s0, t_stop)
    assert tr.termination == Termination.TIME_LIMIT
    assert tr.ts[-1] - tr.ts[-2] == pytest.approx(1e-9, rel=1e-3)


def _hand_trace(ts):
    ts = np.asarray(ts, dtype=float)
    return flow.GeodesicTrace("c", ts, np.zeros((len(ts), 4)),
                              Termination.TIME_LIMIT, None, len(ts) - 1, 0,
                              7 * (len(ts) - 1))


def test_drop_reason_of_a_usable_trace():
    tr = integrate_geodesic(flat_chart(), GeodesicState(0.0, 0.0, 1.0, 0.0),
                            1.0)
    assert tr.termination == Termination.TIME_LIMIT
    assert tr.drop_reason is None


@pytest.mark.parametrize("ts, reason", [
    ([0.0, 0.05, 0.1, 0.5], None),   # criterion 10 runs 4-point traces
    ([0.0, 0.005, 0.01], None),
    ([0.0, 1.0], "short"),           # two points
    ([0.0, 1e-4, 2e-4], "short"),    # three points, shorter than 1e-3
])
def test_drop_reason_of_few_point_traces(ts, reason):
    assert _hand_trace(ts).drop_reason == reason


def test_drop_reason_of_abandoned_traces(monkeypatch):
    cp, _ = zoo.clifton_pohl()
    tr = integrate_geodesic(cp, GeodesicState(1e-2, 1e-3, -1.0, 0.0), 1.0)
    assert tr.termination == Termination.SINGULARITY
    assert tr.drop_reason == "singularity"
    monkeypatch.setattr(flow, "MAX_STEPS", 20)
    tr = integrate_geodesic(sphere_chart(),
                            GeodesicState(math.pi / 2, 0.0, 0.3, 1.0), 10.0)
    assert tr.termination == Termination.STEP_BUDGET
    assert tr.drop_reason == "step-budget"
    assert {"singularity", "step-budget", "short"} == set(flow.DROP_REASONS)


def test_step_budget_ends_the_trace(monkeypatch):
    # the trace takes 47 attempted steps without the budget
    monkeypatch.setattr(flow, "MAX_STEPS", 20)
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, 0.3, 1.0)
    tr = integrate_geodesic(m, s0, 10.0)
    assert tr.termination == Termination.STEP_BUDGET
    assert tr.termination.value == "step-budget"
    assert tr.n_accepted + tr.n_rejected == 20
    assert tr.ts[-1] < 10.0


# Termination class of the first 20 states sample_states draws per
# catalogue chart with default_rng(12345), each traced for t_max=1:
# T time-limit, D domain-exit, S singularity.  For each singular trace, the
# steps (n_accepted + n_rejected) it took when a step below 3e-5 of the
# trace's largest ended it; the stall rule must save a quarter of them.
GOLDEN_TERMINATIONS = {
    "flat": "TTTTTTTTTTTTTTTTTTTT",
    "clifton-pohl": "TTTTTTTTTTTTTTTTTTTT",
    "band": "TTTTTTTTSTTTTTSTTTTT",
    "punctured-family": "TSTTTTTTTTTTTTTTTTTT",
    "tannery": "TTTTTTTTTTTTTTTTTTTT",
    "tannery-deformed": "TTTTTTTTTTTTTTTTTTTT",
    "projective-shift": "TTTTTTTSSSTTSSSTTSSS",
    "liouville": "TTTTTTTTTTTTTTTTTTTT",
    "clairaut-truncation": "TTTTTTTTTTTTTTTTTTTT",
}
GOLDEN_SINGULAR_STEPS_AT_COLLAPSE = {
    ("band", 8): 118, ("band", 14): 116,
    ("punctured-family", 1): 115,
    ("projective-shift", 7): 312, ("projective-shift", 8): 116,
    ("projective-shift", 9): 293, ("projective-shift", 12): 294,
    ("projective-shift", 13): 331, ("projective-shift", 14): 128,
    ("projective-shift", 17): 118, ("projective-shift", 18): 129,
    ("projective-shift", 19): 293,
}


def test_catalogue_termination_classes_are_golden():
    code = {Termination.TIME_LIMIT: "T", Termination.DOMAIN_EXIT: "D",
            Termination.SINGULARITY: "S"}
    assert set(GOLDEN_TERMINATIONS) == set(zoo.catalogue())
    for name, want in GOLDEN_TERMINATIONS.items():
        chart = zoo.build_bundle(name).chart
        states = sampling.sample_states(chart, 20,
                                        np.random.default_rng(12345))
        for i, s in enumerate(states):
            tr = integrate_geodesic(chart, s, 1.0)
            assert code.get(tr.termination) == want[i], (name, i)
            if tr.termination is Termination.SINGULARITY:
                steps = tr.n_accepted + tr.n_rejected
                assert steps <= 0.75 * GOLDEN_SINGULAR_STEPS_AT_COLLAPSE[
                    name, i], (name, i, steps)


def test_dense_output_refuses_to_extrapolate():
    m = flat_chart()
    tr = integrate_geodesic(m, GeodesicState(0.1, -0.2, 0.3, 0.7), 2.0)
    lo, hi = float(tr.ts[0]), float(tr.ts[-1])
    assert tr.dense(lo)[0] == pytest.approx(0.1, abs=1e-15)
    assert tr.dense(hi)[0] == pytest.approx(0.7, abs=1e-12)
    tr.dense(math.nextafter(hi, math.inf))   # rounding slack at the ends
    for t in (lo - 1e-9, hi + 1e-9, hi + 1.0, math.nan):
        with pytest.raises(ValueError):
            tr.dense(t)
    with pytest.raises(ValueError):
        tr.dense(-0.5)


def _sampled_traces():
    # five traces per catalogue chart plus one Jacobi trace, whose
    # interpolant carries six components
    for name in sorted(zoo.catalogue()):
        chart = zoo.build_bundle(name).chart
        for s in sampling.sample_states(chart, 5,
                                        np.random.default_rng(12345)):
            yield integrate_geodesic(chart, s, 1.0)
    yield find_conjugate_points(sphere_chart(),
                                GeodesicState(1.2, 0.4, 0.3, 0.5), 4.0)[1]


def test_bulk_positions_equal_scalar_calls_bit_for_bit():
    for tr in _sampled_traces():
        # a uniform grid plus every step boundary, where segments meet
        ts = np.sort(np.concatenate([
            np.linspace(float(tr.ts[0]), float(tr.ts[-1]), 400), tr.ts]))
        want = np.array([tr.dense(float(t))[:2] for t in ts])
        got = tr.dense.positions(ts)
        assert got.shape == (len(ts), 2)
        assert got.tobytes() == want.tobytes(), tr.chart_name
        # every component, four of the geodesic or six of the Jacobi
        # system, meets the next step's start at the end of its step: each
        # reads its own stages.  Round-off reaches 2.1e-13 on a blow-up.
        ends = np.array([tr.dense(math.nextafter(float(t), -math.inf))
                         for t in tr.ts[1:]])
        err = np.abs(ends - tr.ys[1:]) / np.maximum(1.0, np.abs(tr.ys[1:]))
        assert np.max(err) < 1e-11, tr.chart_name


def test_bulk_positions_refuse_to_extrapolate():
    tr = integrate_geodesic(flat_chart(),
                            GeodesicState(0.1, -0.2, 0.3, 0.7), 2.0)
    lo, hi = float(tr.ts[0]), float(tr.ts[-1])
    inside = np.linspace(lo, hi, 5)
    tr.dense.positions([lo, math.nextafter(hi, math.inf)])
    for bad in (lo - 1e-9, hi + 1e-9, hi + 1.0, math.nan):
        with pytest.raises(ValueError):
            tr.dense.positions(np.sort(np.append(inside, bad)))
    with pytest.raises(ValueError):
        # a trace of one state and no steps
        flow.DenseOutput([0.0], [(0.1, -0.2, 0.3, 0.7)]).positions([0.0])


def test_final_states_match_scipy_dop853():
    # an independent solver with its own right-hand side, built from
    # metric.christoffel: the first state per catalogue chart whose trace
    # reaches t_max = 1.  The previous numpy stepper was at worst 9.7e-11
    # (clifton-pohl) off DOP853 here, in the max norm scaled by
    # max(1, |y|); the bound keeps a factor of ten to that.
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    for name in sorted(zoo.catalogue()):
        chart = zoo.build_bundle(name).chart
        states = sampling.sample_states(chart, 20,
                                        np.random.default_rng(12345))
        tr = next(tr for tr in (integrate_geodesic(chart, s, 1.0)
                                for s in states)
                  if tr.termination is Termination.TIME_LIMIT)

        def rhs(t, y):
            gam = metric.christoffel(chart, (y[0], y[1]))
            v = y[2:]
            return np.concatenate([v, -np.einsum("kij,i,j->k", gam, v, v)])

        sol = solve_ivp(rhs, (0.0, 1.0), tr.ys[0], method="DOP853",
                        rtol=1e-12, atol=1e-12)
        want = sol.y[:, -1]
        err = np.max(np.abs(tr.ys[-1] - want)) / max(1.0, np.max(np.abs(want)))
        assert err < 1e-9, (name, err)


def test_dop853_tableau_equals_scipys():
    # the coefficients as published with dop853.f, which scipy's DOP853
    # carries too: every float the same
    dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert flow._C == tuple(dop.C.tolist())
    assert flow._ROWS == tuple(tuple(dop.A[i, :i].tolist())
                               for i in range(16))
    assert flow._B == tuple(dop.B.tolist())
    assert flow._ER == tuple(dop.E5[:12].tolist())
    assert dop.E5[12] == 0.0 and dop.E3[12] == 0.0
    assert tuple(b - c for b, c in zip(flow._B, flow._BHH)) == tuple(
        dop.E3[:12].tolist())
    assert flow._D == tuple(tuple(row) for row in dop.D.tolist())


def test_dop853_tableau_order_conditions():
    # each stage's weights sum to its node; the order-8 weights integrate
    # c^k exactly from 0 to 1 for k < 8, the 3rd-order weights for k < 3,
    # and the 5th-order error weights, a difference of two such rules,
    # give 0 for k < 5
    def quadrature(weights, k):
        return math.fsum(w * c ** k for w, c in zip(weights, flow._C))

    assert len(flow._C) == len(flow._ROWS) == 16
    for i in range(1, 16):
        assert len(flow._ROWS[i]) == i
        assert math.fsum(flow._ROWS[i]) == pytest.approx(flow._C[i],
                                                         rel=0.0, abs=1e-14)
    assert flow._B == flow._ROWS[12]
    for k in range(8):
        assert quadrature(flow._B, k) == pytest.approx(1.0 / (k + 1),
                                                       rel=0.0, abs=1e-15)
    for k in range(3):
        assert quadrature(flow._BHH, k) == pytest.approx(1.0 / (k + 1),
                                                         rel=0.0, abs=1e-15)
    for k in range(5):
        assert abs(quadrature(flow._ER, k)) <= 1e-15
    # the order-8 rule is no better than order 8
    assert abs(quadrature(flow._B, 8) - 1.0 / 9.0) > 1e-6
    # the dense output integrates c^k exactly for k < 7 from 0 to u: its
    # weight of stage i at u, read off _interpolate's coefficients
    # y1 - y0, h k1 - (y1 - y0), 2 (y1 - y0) - h (k13 + k1) and h D k
    for u in (0.1, 0.37, 0.5, 0.8):
        v = 1.0 - u
        weights = []
        for i in range(16):
            b = flow._B[i] if i < 12 else 0.0
            k1, k13 = float(i == 0), float(i == 12)
            d3, d4, d5, d6 = (row[i] for row in flow._D)
            weights.append(u * (b + v * (k1 - b + u * (
                2.0 * b - k1 - k13 + v * (d3 + u * (d4 + v * (
                    d5 + u * d6)))))))
        for k in range(7):
            assert quadrature(weights, k) == pytest.approx(
                u ** (k + 1) / (k + 1), rel=0.0, abs=1e-14), (u, k)


def test_arclength_trace_runs_the_equator_at_unit_chart_speed():
    m = sphere_chart()
    tr = integrate_by_arclength(m, GeodesicState(math.pi / 2, 0.3, 0.0, 1.0),
                                5.0)
    assert tr.termination == Termination.TIME_LIMIT
    assert tr.length == pytest.approx(5.0, rel=1e-14)
    s = np.linspace(0.0, 5.0, 41)
    assert_allclose(tr.dense.positions(s),
                    np.column_stack([np.full_like(s, math.pi / 2), 0.3 + s]),
                    rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["band", "tannery-deformed",
                                  "punctured-family"])
def test_arclength_traces_do_not_depend_on_the_launch_speed(name):
    # the same curve launched at speed v and at 3v: by arc length the two
    # traces give the same positions at the same parameter
    chart = zoo.build_bundle(name).chart
    states = sampling.sample_states(chart, 6, np.random.default_rng(31))
    for s in states:
        fast = GeodesicState(s.x, s.y, 3.0 * s.vx, 3.0 * s.vy)
        slow_tr = integrate_by_arclength(chart, s, 1.0)
        fast_tr = integrate_by_arclength(chart, fast, 1.0)
        assert slow_tr.termination == fast_tr.termination, (name, s)
        at = np.linspace(0.0, min(slow_tr.length, fast_tr.length), 51)
        gap = np.max(np.abs(slow_tr.dense.positions(at)
                            - fast_tr.dense.positions(at)))
        assert gap < 1e-9, (name, s, gap)


def test_arclength_trace_ends_where_the_affine_trace_of_that_length_ends():
    # an independent oracle: scipy's quad measures the chart length L of an
    # affine trace from its velocity, and the trace by arc length L must
    # end at the affine trace's end
    quad = pytest.importorskip("scipy.integrate").quad
    checked = 0
    for name in ("band", "tannery-deformed", "punctured-family", "tannery"):
        chart = zoo.build_bundle(name).chart
        for s in sampling.sample_states(chart, 4,
                                        np.random.default_rng(12345)):
            tr = integrate_geodesic(chart, s, 1.0)
            if tr.termination is not Termination.TIME_LIMIT:
                continue
            length, _ = quad(lambda t: math.hypot(*tr.dense(t)[2:4]),
                             0.0, 1.0, epsabs=1e-14, epsrel=1e-13,
                             limit=200)
            by_arc = integrate_by_arclength(chart, s, length)
            assert by_arc.termination is Termination.TIME_LIMIT
            gap = np.max(np.abs(by_arc.ys[-1][:2] - tr.ys[-1][:2]))
            assert gap < 1e-9, (name, s, gap)
            checked += 1
    assert checked >= 8


def test_arclength_trace_refuses_a_length_not_positive():
    with pytest.raises(ValueError):
        integrate_by_arclength(sphere_chart(),
                               GeodesicState(math.pi / 2, 0.0, 0.0, 1.0), 0.0)


@pytest.mark.parametrize("span", [0.0, -1.0, math.inf, math.nan])
def test_flows_refuse_a_span_not_positive_and_finite(span):
    # an infinite or nan span gave a one-point time-limit trace, and no
    # conjugate points
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, 0.0, 1.0)
    for run, what in ((integrate_geodesic, "t_max"),
                      (integrate_by_arclength, "length"),
                      (find_conjugate_points, "t_max")):
        with pytest.raises(ValueError, match="^%s must be positive$" % what):
            run(m, s0, span)


def test_rhs_evaluations_per_trace(monkeypatch):
    # two evaluations to start (the initial slope and the step-size guess),
    # stages 2 to 12 per attempted step and stage 13 per step whose error
    # passed, which FSAL hands to the next step as its stage 1: 12 per
    # accepted step and 11 per rejected one.  A trace that leaves the
    # domain also ran the 12 of the step it dropped.  The dense output
    # counts the stages 14 to 16 it evaluates for each step it is asked
    # about.  They are counted through the sine the sphere's bundle calls,
    # patched into the compile namespace before the runtime's steps are
    # built; one rhs call tells how many sines an evaluation takes.
    m = sphere_chart()
    calls = [0]

    def counting_sin(v):
        calls[0] += 1
        return math.sin(v)

    monkeypatch.setitem(expr._COMPILE_NS, "sin", counting_sin)
    rt = m.runtime()

    def sines_per_evaluation(system, state):
        rhs, _ = flow._binder(rt, system)(flow.ATOL, flow.RTOL)
        calls[0] = 0
        rhs(state)
        return calls[0]

    def check(tr, system, sines, dropped=0):
        per = sines_per_evaluation(system, tuple(tr.ys[0]))
        assert per > 0
        assert tr.n_rhs == (2 + 12 * (tr.n_accepted + dropped)
                            + 11 * tr.n_rejected)
        assert sines == per * (tr.n_rhs + tr.dense.n_rhs)
        return per

    calls[0] = 0
    tr = integrate_geodesic(m, GeodesicState(1.68, 5.89, -1.0, 0.0315), 1.0)
    assert tr.termination == Termination.TIME_LIMIT and tr.n_rejected > 0
    per = check(tr, "geodesic", calls[0])
    assert tr.dense.n_rhs == 0
    # two times in one step and one in another build two interpolants
    calls[0] = 0
    a, b = float(tr.ts[1]), float(tr.ts[2])
    for t in (a + 0.25 * (b - a), a + 0.5 * (b - a), 0.5 * float(tr.ts[4]
                                                           + tr.ts[5])):
        tr.dense(t)
    tr.dense.positions([a + 0.75 * (b - a)])
    assert tr.dense.n_rhs == 6
    assert calls[0] == per * 6

    calls[0] = 0
    _, jt = find_conjugate_points(m, GeodesicState(1.2, 0.4, 0.3, 0.5), 4.0)
    assert jt.termination == Termination.TIME_LIMIT
    check(jt, "jacobi", calls[0])

    calls[0] = 0
    tr = integrate_geodesic(m, GeodesicState(1.0, 0.0, -1.0, 0.0), 3.0)
    assert tr.termination == Termination.DOMAIN_EXIT
    check(tr, "geodesic", calls[0], dropped=1)


def test_non_finite_stage_2_rejects_the_step(monkeypatch):
    # stage 2 weighs nothing in the order-8 update and the error estimate;
    # the finiteness test of the right-hand side it calls rejects the
    # step.  The non-finite value comes from the sine the sphere's bundle
    # calls once per evaluation, patched into the compile namespace before
    # the runtime's step is built.
    m = sphere_chart()
    calls = [0]
    nan_on = [0]

    def sin(v):
        calls[0] += 1
        return math.nan if calls[0] == nan_on[0] else math.sin(v)

    monkeypatch.setitem(expr._COMPILE_NS, "sin", sin)
    rhs, attempt = flow._binder(m.runtime(), "geodesic")(flow.ATOL, flow.RTOL)
    y = (1.2, 0.3, 0.4, 0.5)
    nan_on[0] = 2
    k1 = rhs(y)
    with pytest.raises(FloatingPointError,
                       match="right-hand side is not finite"):
        attempt(0.1, y, k1)

    # the first attempt of a trace evaluates its stage 2 on the third call,
    # after the initial slope and the step-size guess
    s0 = GeodesicState(1.2, 0.3, 0.4, 0.5)
    calls[0] = nan_on[0] = 0
    assert integrate_geodesic(m, s0, 1.0).n_rejected == 0
    calls[0] = 0
    nan_on[0] = 3
    tr = integrate_geodesic(m, s0, 1.0)
    assert tr.termination == Termination.TIME_LIMIT
    assert tr.n_rejected == 1


def _bits(values):
    return [float(v).hex() for v in values]


def _constant_zero(field):
    return isinstance(field, expr.Const) and field.value == 0.0


def _reference_rhs(chart, state):
    """The geodesic or Jacobi right-hand side from metric.christoffel and
    metric.gaussian_curvature, in the generated step's operation order.

    Where the curvature is the constant 0, as on the flat chart, the step
    folds jn'' = -kq * ev * jn to 0.0, where the product is a zero with
    the sign of -ev * jn: so does the reference.
    """
    x, y, vx, vy = state[:4]
    gam = metric.christoffel(chart, (x, y))
    a, b, c = (float(v) for v in (gam[0, 0, 0], gam[0, 0, 1], gam[0, 1, 1]))
    d, e, f = (float(v) for v in (gam[1, 0, 0], gam[1, 0, 1], gam[1, 1, 1]))
    out = (vx, vy, -(a * vx * vx + 2.0 * b * vx * vy + c * vy * vy),
           -(d * vx * vx + 2.0 * e * vx * vy + f * vy * vy))
    if len(state) == 4:
        return out
    jn, jp = state[4:]
    E, F, G = chart.coefficients_at((x, y))
    kq = metric.gaussian_curvature(chart, (x, y))
    ev = E * vx * vx + 2.0 * F * vx * vy + G * vy * vy
    if _constant_zero(chart.runtime()._fields(True)["kq"]):
        return out + (jp, 0.0)
    return out + (jp, -kq * ev * jn)


def test_inlined_bundles_equal_the_runtime_evaluators_bit_for_bit():
    for name in sorted(zoo.catalogue()):
        chart = zoo.build_bundle(name).chart
        rng = np.random.default_rng(2024)
        rhs = {system: flow._binder(chart.runtime(), system)(
                   flow.ATOL, flow.RTOL)[0]
               for system in ("geodesic", "jacobi")}
        for s in sampling.sample_states(chart, 20, rng):
            y = (s.x, s.y, s.vx, s.vy)
            jn = tuple(float(v) for v in rng.normal(size=2))
            for state, system in ((y, "geodesic"), (y + jn, "jacobi")):
                assert _bits(rhs[system](state)) == _bits(
                    _reference_rhs(chart, state)), (name, system, state)


# the names the generated step binds for itself: the step size h, the states
# s and z and their components s<j> and z<j>, the first stage k1, the
# stages k<i>_<j>, the derivative's components f<j>, the error terms
# a_s<j>, a_z<j>, w<j>, e<j>, g<j>, e, g and err, the interpolant's
# coefficients c<m>_<j>, the tolerances, the bundle's v<i> and r, and the
# functions bind, rhs, attempt and interpolant
_STEP_NAMES = re.compile(r"(h|s|z|k1|e|g|err|atol|rtol|r|bind|rhs|attempt"
                         r"|interpolant|[szefgw]\d+|[kc]\d+_\d+|a_[sz]\d+"
                         r"|v\d+)\Z")
# what flow._binder and metric._Runtime.compile add to the compile namespace
_COMPILE_EXTRAS = {"isfinite", "FloatingPointError", "pack", "pack_c", "max",
                   "DegenerateMetricError"}


def _bound_names(lines):
    """The names the source lines assign or take as arguments."""
    names = set()
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return names


def test_system_names_do_not_collide_with_the_generated_step():
    # a state component or a body line named like one of the step's own
    # names, the bundle's or the compile namespace's would overwrite it
    namespace = set(expr._COMPILE_NS) | _COMPILE_EXTRAS
    charts = [zoo.build_bundle(name).chart
              for name in sorted(zoo.catalogue())]
    for system, (leaves, curvature, build, _) in flow._SYSTEMS.items():
        names = [v.name for v in leaves]
        own = set(names)
        for chart in charts:
            body, outs = chart.runtime().source(build, curvature)
            bundle_names = _bound_names(body)
            for name in sorted(own):
                assert not _STEP_NAMES.match(name), (system, name)
                assert name not in namespace, (system, name)
                assert name not in bundle_names, (system, name, chart.name)
            # every other name the step binds is one _STEP_NAMES lists
            step = flow._step_source(names, body, outs)
            for name in _bound_names([step]) - own - bundle_names:
                assert _STEP_NAMES.match(name), (system, name)


def _step(chart, system):
    leaves, curvature, build, _ = flow._SYSTEMS[system]
    return flow._step_source([v.name for v in leaves],
                             *chart.runtime().source(build, curvature))


def _literal_zero(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value == 0.0


def _zero_reads(step):
    """The assignments of the step that compute with a zero: a binary
    operation with an operand 0.0, -0.0 or a name assigned one.  The error
    norm's a_s<j> and a_z<j>, which take abs(v) as 0.0 - v, are exempt."""
    assigns = [node for node in ast.walk(ast.parse(step))
               if isinstance(node, ast.Assign)]
    zeros = {t.id for a in assigns if _literal_zero(a.value)
             for t in a.targets}
    out = []
    for a in assigns:
        target = a.targets[0]
        if isinstance(target, ast.Name) and re.match(r"a_[sz]\d+\Z",
                                                     target.id):
            continue
        for node in ast.walk(a.value):
            if isinstance(node, ast.BinOp) and any(
                    _literal_zero(v) or isinstance(v, ast.Name)
                    and v.id in zeros for v in (node.left, node.right)):
                out.append(ast.unparse(a))
    return out


def test_the_steps_read_none_of_the_charts_constant_zeros():
    # the round sphere has F = 0, and four of its six Christoffel symbols
    # and seven of its nine jet derivatives are 0: its geodesic and Jacobi
    # steps compute with none of them
    chart = zoo.build_bundle("tannery").chart
    E, F, G = chart.g11, chart.g12, chart.g22
    jet = [f.diff(v) for f in (E, F, G) for v in "xy"] + [
        E.diff("y").diff("y"), F.diff("x").diff("y"), G.diff("x").diff("x")]
    table = chart.runtime()._fields(True)
    assert _constant_zero(F)
    assert sum(map(_constant_zero, jet)) == 7
    assert sum(_constant_zero(table[n]) for n in "abcdef") == 4
    for system in ("geodesic", "jacobi"):
        assert _zero_reads(_step(chart, system)) == [], system


def test_every_step_keeps_its_finiteness_and_degeneracy_tests():
    # rhs tests all its components for finiteness, and for the Jacobi
    # system the metric for degeneracy, once; stages 2 to 12 of the step
    # and 14 to 16 of the interpolant each call it, and nothing else
    # evaluates the bundle
    def stages(source, n):
        return [i for i in range(2, 17) if "%s, = rhs((" % ", ".join(
            "k%d_%d" % (i, j) for j in range(n)) in source]

    for n in (4, 6):
        dense = flow._interpolant_source(n)
        assert stages(dense, n) == [14, 15, 16]
        assert dense.count(" = rhs((") == 3
    for name in sorted(zoo.catalogue()):
        chart = zoo.build_bundle(name).chart
        for system, (leaves, *_) in flow._SYSTEMS.items():
            step = _step(chart, system)
            test = " + ".join("f%d * 0.0" % j for j in range(len(leaves)))
            assert step.count("if not isfinite(%s):\n        raise "
                              "FloatingPointError('right-hand side is not "
                              "finite')" % test) == 1, (name, system)
            assert stages(step, len(leaves)) == list(range(2, 13))
            assert step.count(" = rhs((") == 11, (name, system)
            assert step.count("if %s:" % metric._DEGENERATE) == (
                1 if system == "jacobi" else 0), (name, system)


@pytest.mark.parametrize("g22, degenerate", [(1e-13, True), (1e-11, False)])
def test_jacobi_rhs_refuses_a_degenerate_metric_like_the_curvature(
        g22, degenerate):
    # the points of test_metric's shared-threshold test
    chart = metric.MetricChart(
        name="thin", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=expr.const(g22), domain=metric.Domain(),
        signature=metric.Signature.RIEMANNIAN,
        sample_box=(0.0, 1.0, 0.0, 1.0))
    rhs, _ = flow._binder(chart.runtime(), "jacobi")(flow.ATOL, flow.RTOL)

    def refuses(fn, *args):
        try:
            fn(*args)
        except metric.DegenerateMetricError:
            return True
        return False

    assert refuses(metric.gaussian_curvature, chart, (0.5, 0.5)) == degenerate
    assert refuses(rhs, (0.5, 0.5, 0.3, 0.4, 0.1, 0.2)) == degenerate


def test_a_step_whose_chord_crosses_an_excluded_disc_exits_the_domain():
    # a straight line through the origin of the flat plane: its steps grow
    # tenfold each, so one jumps over the thin disc around the origin with
    # its end and midpoint, the points the domain test checks, far outside
    def flat(domain):
        return metric.MetricChart(
            name="flat", g11=expr.const(1.0), g12=expr.const(0.0),
            g22=expr.const(1.0), domain=domain,
            signature=metric.Signature.RIEMANNIAN,
            sample_box=(-2.0, 2.0, -2.0, 2.0))

    s0 = GeodesicState(-1.0, 0.0, 1.0, 0.0)
    free = integrate_geodesic(flat(metric.Domain()), s0, 2.0)
    i = int(np.searchsorted(free.ts, 1.0))     # the step over x = 0
    t0, t1 = free.ts[i - 1], free.ts[i]
    r = 1e-6
    for t in (t1, 0.5 * (t0 + t1)):
        assert math.hypot(*free.dense(t)[:2]) > 1e3 * r
    assert free.ys[i - 1][0] < 0.0 < free.ys[i][0]

    holed = integrate_geodesic(flat(metric.Domain(exclude_radius=r)), s0, 2.0)
    assert holed.termination == Termination.DOMAIN_EXIT
    assert holed.ts[-1] == t0
    assert np.array_equal(holed.ys, free.ys[:i])


def test_initial_state_outside_domain_raises():
    m = sphere_chart()
    with pytest.raises(metric.DomainError):
        integrate_geodesic(m, GeodesicState(-0.5, 0.0, 1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        integrate_geodesic(m, GeodesicState(1.0, 0.0, 1.0, 0.0), -2.0)


def test_jacobi_field_on_equator_matches_sine():
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, 0.0, 1.0)
    jt = flow.find_conjugate_points(m, s0, 3.0)[1]
    for t in np.linspace(0.2, 3.0, 11):
        v = jt.dense(t)
        assert v[4] == pytest.approx(math.sin(t), abs=1e-9)
        assert v[5] == pytest.approx(math.cos(t), abs=1e-9)


def test_jacobi_equation_residual_finite_difference():
    m = lumpy_chart()
    s0 = GeodesicState(0.0, 0.3, 0.7, 0.2)
    jt = flow.find_conjugate_points(m, s0, 2.0)[1]
    delta = 1e-3
    for t in np.linspace(0.3, 1.7, 6):
        lo = jt.dense(t - delta)
        hi = jt.dense(t + delta)
        mid = jt.dense(t)
        x, y, vx, vy, jn, jp = mid
        # jp is the derivative of jn
        assert jp == pytest.approx((hi[4] - lo[4]) / (2 * delta),
                                   rel=1e-5, abs=1e-7)
        # jn'' + K g(gamma', gamma') jn = 0; the second difference is
        # 1.5e-7 off here, and K g(gamma', gamma') jn is 0.01 to 0.24
        d2 = (hi[4] - 2.0 * jn + lo[4]) / (delta * delta)
        kq = metric.gaussian_curvature(m, (x, y))
        gvv = metric.metric_eval(m, (x, y), (vx, vy))
        assert abs(d2 + kq * gvv * jn) < 1e-6


def test_conjugate_times_match_the_covariant_jacobi_oracle():
    # 4 states per catalogue chart plus the sphere, lumpy and null-plane
    # charts, at t_max = 4, whose Jacobi trace runs to t_max or leaves the
    # domain: a trace that stalls at a singularity ends where the oracle's
    # steps would too
    pytest.importorskip("scipy")
    charts = [zoo.build_bundle(name).chart
              for name in sorted(zoo.catalogue())]
    charts += [sphere_chart(), lumpy_chart(), null_plane_chart()]
    n_states = n_points = 0
    for chart in charts:
        for s in sampling.sample_states(chart, 4, np.random.default_rng(7)):
            times, jt = find_conjugate_points(chart, s, 4.0)
            if jt.termination.abandoned:
                continue
            want = jacobi_conjugate_times(chart, s, float(jt.ts[-1]))
            assert len(times) == len(want), (chart.name, s, times, want)
            for got, ref in zip(times, want):
                assert abs(got - ref) < 1e-8, (chart.name, s, got, ref)
            n_states += 1
            n_points += len(times)
    assert n_states >= 30 and n_points >= 5


def test_bisection_reads_jn_bit_for_bit():
    _, jt = find_conjugate_points(sphere_chart(),
                                  GeodesicState(1.2, 0.4, 0.3, 0.5), 4.0)
    ts = np.sort(np.concatenate([
        np.linspace(float(jt.ts[0]), float(jt.ts[-1]), 400), jt.ts]))
    for t in ts:
        t = float(t)
        assert jt.dense(t, 4).hex() == float(jt.dense(t)[4]).hex()


@pytest.mark.parametrize("t0, tol", [(0.0, 1e-8), (2e8, 3e-8), (1e12, 0.0)])
def test_bisection_ends_where_the_float_spacing_exceeds_its_width(t0, tol):
    # from t = 1.3e8 on, adjacent floats lie more than 1e-8 apart, so the
    # bracket can stop shrinking before it is 1e-8 wide; the alarm turns a
    # bisection that never ends into a failure
    def stuck(signum, frame):
        raise TimeoutError("find_conjugate_points did not return")

    old = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(20)
    try:
        times, _ = find_conjugate_points(
            sphere_chart(), GeodesicState(math.pi / 2, 0.0, 0.0, 1.0, t=t0),
            4.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert len(times) == 1
    assert abs(times[0] - (t0 + math.pi)) <= tol


def test_conjugate_point_on_sphere_at_pi():
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, 0.0, 1.0)
    times, jt = find_conjugate_points(m, s0, 6.4)
    assert len(times) == 2
    assert times[0] == pytest.approx(math.pi, abs=1e-8)
    assert times[1] == pytest.approx(2 * math.pi, abs=1e-8)


def test_no_conjugate_points_in_flat_plane():
    m = flat_chart()
    times, _ = find_conjugate_points(m, GeodesicState(0.0, 0.0, 1.0, 0.3), 20.0)
    assert times == []


def test_closure_of_tilted_great_circle():
    m = sphere_chart()
    alpha = 0.4
    s0 = GeodesicState(math.pi / 2, 0.0, math.sin(alpha), math.cos(alpha))
    rep = detect_closure(m, s0, 10.0, tol=1e-6)
    assert rep.closed
    assert rep.period == pytest.approx(2 * math.pi, abs=1e-7)
    assert rep.trace.termination == Termination.CLOSURE


def test_no_closure_for_straight_line():
    m = flat_chart()
    rep = detect_closure(m, GeodesicState(0.0, 0.0, 1.0, 0.0), 5.0, tol=1e-6)
    assert not rep.closed
    assert rep.period is None
    assert rep.trace.termination == Termination.TIME_LIMIT


def test_closure_trace_is_freed_with_its_report():
    # the trace refers to nothing of the report, so no reference cycle
    # keeps it alive for the cyclic garbage collector to find
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, math.sin(0.4), math.cos(0.4))
    gc.disable()
    try:
        for t_max, closed in ((10.0, True), (1.0, False)):
            rep = detect_closure(m, s0, t_max, tol=1e-6)
            assert rep.closed is closed
            trace = weakref.ref(rep.trace)
            del rep
            assert trace() is None
    finally:
        gc.enable()


def test_closure_uses_periodic_coordinates():
    # on the sphere chart the longitude is 2*pi periodic; the equator orbit
    # must close even though y grows without bound
    m = sphere_chart()
    rep = detect_closure(m, GeodesicState(math.pi / 2, 0.3, 0.0, 1.0), 8.0,
                         tol=1e-6)
    assert rep.closed
    assert rep.period == pytest.approx(2 * math.pi, abs=1e-7)


def test_closure_watch_grid_does_not_depend_on_the_start_time():
    # the watch grid spaces t_max / 512, not (t_max - t) / 512: started at
    # t = 200 the equator orbit must close at 2 pi as it does from t = 0
    chart, _ = zoo.tannery_chart()
    for t0 in (0.0, 200.0):
        rep = detect_closure(
            chart, GeodesicState(math.pi / 2, 0.3, 0.0, 1.0, t=t0), 10.0,
            tol=1e-6)
        assert rep.closed, (t0, rep.min_distance)
        assert rep.period == pytest.approx(2 * math.pi, abs=1e-7)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_closure_refuses_a_tolerance_outside_zero_to_infinity(tol):
    # each of these reported a closure search it could not run: -1, 0 and
    # nan never close, and inf could not measure a distance
    chart, _ = zoo.tannery_chart()
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        detect_closure(chart, GeodesicState(math.pi / 2, 0.3, 0.0, 1.0),
                       10.0, tol=tol)


def test_closure_refuses_a_zero_velocity_like_the_conjugate_scan():
    chart, _ = zoo.tannery_chart()
    s0 = GeodesicState(math.pi / 2, 0.3, 0.0, 0.0)
    for search in (detect_closure, find_conjugate_points):
        with pytest.raises(ValueError, match="zero initial velocity"):
            search(chart, s0, 10.0)


def test_brent_min_stops_where_rounding_stops_the_bracket():
    # at 1e6 the float spacing (1.2e-10) exceeds the stop width, so the
    # bracket can never get that narrow
    t, f = flow.brent_min(lambda s: (s - 1e6 - 0.25) ** 2,
                          1e6, 1e6 + 1.0, 1e-13)
    assert abs(t - 1e6 - 0.25) < 1e-9
    assert f < 1e-18


def _counted(f):
    calls = []

    def probe(t):
        calls.append(t)
        return f(t)
    return probe, calls


def test_brent_min_takes_parabolic_steps_on_a_smooth_minimum():
    # golden section alone takes 50 probes to narrow [0, 1] to 1e-10
    probe, calls = _counted(lambda s: 4.0 * (s - 1.0 / 3.0) ** 2)
    t, f = flow.brent_min(probe, 0.0, 1.0, 1e-10)
    assert abs(t - 1.0 / 3.0) <= 1e-10
    assert f == 4.0 * (t - 1.0 / 3.0) ** 2
    assert len(calls) <= 10


@pytest.mark.parametrize("t0", [0.3, 1e-12, 1.0 - 1e-12, 0.123456789])
def test_brent_min_reaches_tol_on_a_v_shaped_minimum(t0):
    # the closure distance near a return is |t - t0| times a speed: no
    # parabola fits it, so the stop must come from the bracket width, not
    # from a relative tolerance (scipy's bounded rule, sqrt(eps) |t| plus
    # xatol / 3, stops up to 7.8e-9 away for t0 in [0.2, 0.9])
    probe, calls = _counted(lambda s: 2.0 * abs(s - t0))
    t, f = flow.brent_min(probe, 0.0, 1.0, 1e-10)
    assert abs(t - t0) <= 1e-10
    assert f == 2.0 * abs(t - t0)
    assert all(0.0 < s < 1.0 for s in calls)


def test_brent_min_stops_where_the_values_are_flat_to_rounding():
    # a constant reads alike at the first three distinct points; the
    # bracket rule alone would go on to a bracket 1e-10 wide
    probe, calls = _counted(lambda s: 1.5)
    t, f = flow.brent_min(probe, 0.0, 1.0, 1e-10)
    assert len(calls) == 3 and len(set(calls)) == 3
    assert f == 1.5 and t == calls[-1]


def test_brent_min_is_not_stopped_by_two_mirrored_probes():
    # the first golden-section probe mirrors the first point about the
    # middle, so on a minimum there the two can read alike without f
    # being flat: here a residual known to six decimals reads 0.013932 at
    # both.  The flat stop must wait for a third point.
    def f(s):
        return round((s - 0.5) ** 2, 6)
    probe, calls = _counted(f)
    t, ft = flow.brent_min(probe, 0.0, 1.0, 1e-10)
    assert f(calls[0]) == f(calls[1]) > 0.0
    assert abs(t - 0.5) < 1e-3 and ft == 0.0


def test_tight_tolerances_reduce_error(monkeypatch):
    m = sphere_chart()
    alpha = 0.35
    s0 = GeodesicState(math.pi / 2, 0.0, math.sin(alpha), math.cos(alpha))

    def error_at(atol, rtol):
        monkeypatch.setattr(flow, "ATOL", atol)
        monkeypatch.setattr(flow, "RTOL", rtol)
        tr = integrate_geodesic(m, s0, 3.0)
        st = tr.final_state()
        want = math.acos(-math.sin(alpha) * math.sin(3.0))
        return abs(st.x - want)

    err_loose = error_at(1e-6, 1e-5)
    err_tight = error_at(1e-12, 1e-11)
    assert err_tight < err_loose / 10.0
    assert err_tight < 1e-10


def test_trace_csv_format():
    m = sphere_chart()
    tr = integrate_geodesic(m, GeodesicState(math.pi / 2, 0.0, 0.0, 1.0), 1.0)
    buf = io.StringIO()
    trace_to_csv(tr, buf, [("energy", energy_integral(m).along(tr)),
                           ("twice_y", 2.0 * tr.ys[:, 1])])
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x,y,vx,vy,energy,twice_y"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[5] == pytest.approx(1.0, abs=1e-12)
    last = [float(v) for v in lines[-1].split(",")]
    assert last[6] == pytest.approx(2.0 * last[2], rel=1e-15)
