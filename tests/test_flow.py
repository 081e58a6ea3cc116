import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoproj import flow, metric, sampling, zoo
from geoproj.flow import (GeodesicState, IntegratorOptions, Termination,
                          detect_closure, find_conjugate_points,
                          integrate_geodesic, integrate_jacobi, trace_to_csv)
from chartlib import flat_chart, lumpy_chart, null_plane_chart, sphere_chart


def _energy_along(chart, trace):
    coeffs = chart.runtime().coeffs
    out = []
    for i in range(len(trace.ts)):
        s = trace.state_at_index(i)
        E, F, G = coeffs(s.x, s.y)
        out.append(E * s.vx ** 2 + 2 * F * s.vx * s.vy + G * s.vy ** 2)
    return np.array(out)


def test_flat_geodesics_are_straight_lines():
    m = flat_chart()
    s0 = GeodesicState(0.1, -0.2, 0.3, 0.7)
    tr = integrate_geodesic(m, s0, 4.0)
    assert tr.termination == Termination.TIME_LIMIT
    assert tr.ts[-1] == pytest.approx(4.0)
    for t in np.linspace(0.0, 4.0, 17):
        st = tr.at(t)
        assert st.x == pytest.approx(0.1 + 0.3 * t, abs=1e-12)
        assert st.y == pytest.approx(-0.2 + 0.7 * t, abs=1e-12)
        assert st.vx == pytest.approx(0.3, abs=1e-13)


def test_equator_orbit_positions_and_energy():
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, 0.0, 1.0)
    tr = integrate_geodesic(m, s0, 10.0)
    assert tr.termination == Termination.TIME_LIMIT
    for t in np.linspace(0.5, 9.5, 13):
        st = tr.at(t)
        assert st.x == pytest.approx(math.pi / 2, abs=1e-9)
        assert st.y == pytest.approx(t, rel=1e-9)
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
        st = tr.at(t)
        # unit-speed great circle through the equator point with tilt alpha
        z = math.sin(alpha) * math.sin(t)
        want_x = math.acos(-z) if abs(z) <= 1 else None
        assert st.x == pytest.approx(want_x, abs=1e-8)
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
        st = tr.at(t)
        gam = metric.christoffel(m, (st.x, st.y))
        v = np.array([st.vx, st.vy])
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
# trace ran on until its step size fell below h_min.
NULL_PLANE_STEPS_TO_H_MIN = 1796


def test_null_plane_blowup_exits_on_step_collapse():
    m = null_plane_chart()
    tr = integrate_geodesic(m, GeodesicState(1.0, 0.0, 1.0, 0.0), 2.0)
    assert tr.termination == Termination.SINGULARITY
    assert tr.n_accepted + tr.n_rejected <= NULL_PLANE_STEPS_TO_H_MIN // 2


def test_pole_grazing_geodesic_reaches_time_limit():
    # a great circle through the equator whose closest approach to the
    # pole is colatitude 1e-3 (Clairaut: sin^2(x) vy = sin(1e-3)); the
    # steps shrink by almost four decades there and grow back
    m = sphere_chart()
    c = 1e-3
    vy = math.sin(c)
    s0 = GeodesicState(math.pi / 2, 0.0, -math.sqrt(1.0 - vy * vy), vy)
    tr = integrate_geodesic(m, s0, 3.0)
    assert tr.termination == Termination.TIME_LIMIT
    assert float(np.min(tr.ys[:, 0])) == pytest.approx(c, rel=1e-6)


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


def test_step_budget_ends_the_trace():
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, 0.3, 1.0)
    tr = integrate_geodesic(m, s0, 10.0, IntegratorOptions(max_steps=50))
    assert tr.termination == Termination.STEP_BUDGET
    assert tr.termination.value == "step-budget"
    assert tr.n_accepted + tr.n_rejected == 50
    assert tr.ts[-1] < 10.0


# Termination class of the first 20 states sample_states draws per
# catalogue chart with default_rng(12345), each traced for t_max=1:
# T time-limit, D domain-exit, S singularity.  For each singular trace, the
# steps (n_accepted + n_rejected) it took when it ran on to h_min.
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
GOLDEN_SINGULAR_STEPS_TO_H_MIN = {
    ("band", 8): 2059, ("band", 14): 2056,
    ("punctured-family", 1): 1771,
    ("projective-shift", 7): 2213, ("projective-shift", 8): 2452,
    ("projective-shift", 9): 2181, ("projective-shift", 12): 2195,
    ("projective-shift", 13): 2225, ("projective-shift", 14): 2234,
    ("projective-shift", 17): 2692, ("projective-shift", 18): 2227,
    ("projective-shift", 19): 2241,
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
                assert steps < GOLDEN_SINGULAR_STEPS_TO_H_MIN[name, i], \
                    (name, i)


def test_initial_state_outside_domain_raises():
    m = sphere_chart()
    with pytest.raises(metric.DomainError):
        integrate_geodesic(m, GeodesicState(-0.5, 0.0, 1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        integrate_geodesic(m, GeodesicState(1.0, 0.0, 1.0, 0.0), -2.0)


def test_jacobi_field_on_equator_matches_sine():
    m = sphere_chart()
    s0 = GeodesicState(math.pi / 2, 0.0, 0.0, 1.0)
    base = integrate_geodesic(m, s0, 3.0)
    jt = integrate_jacobi(m, base, j0=(0.0, 0.0), dj0=(1.0, 0.0))
    for t in np.linspace(0.2, 3.0, 11):
        v = jt.dense(t)
        assert v[4] == pytest.approx(math.sin(t), abs=1e-9)
        assert abs(v[5]) < 1e-10


def test_jacobi_equation_residual_finite_difference():
    m = lumpy_chart()
    s0 = GeodesicState(0.0, 0.3, 0.7, 0.2)
    base = integrate_geodesic(m, s0, 2.0)
    jt = integrate_jacobi(m, base, j0=(0.0, 0.0), dj0=(0.2, 1.0))
    delta = 1e-5
    for t in np.linspace(0.3, 1.7, 6):
        lo = jt.dense(t - delta)
        hi = jt.dense(t + delta)
        mid = jt.dense(t)
        x, y, vx, vy, jx, jy, wx, wy = mid
        gam = metric.christoffel(m, (x, y))
        v = np.array([vx, vy])
        jvec = np.array([jx, jy])
        wvec = np.array([wx, wy])
        # dJ/dt literally equals W - Gamma(v, J)
        dj_fd = (hi[4:6] - lo[4:6]) / (2 * delta)
        want_dj = wvec - np.einsum("kij,i,j->k", gam, v, jvec)
        assert_allclose(dj_fd, want_dj, rtol=1e-4, atol=1e-7)
        # covariant second derivative (FD of W plus the connection term)
        # equals -K (g(v,v) J - g(J,v) v)
        dw_fd = (hi[6:8] - lo[6:8]) / (2 * delta)
        cov_acc = dw_fd + np.einsum("kij,i,j->k", gam, v, wvec)
        kq = metric.gaussian_curvature(m, (x, y))
        gvv = metric.metric_eval(m, (x, y), (vx, vy))
        gjv = metric.metric_eval(m, (x, y), (jx, jy), (vx, vy))
        want = -kq * (gvv * jvec - gjv * v)
        assert_allclose(cov_acc, want, rtol=1e-4, atol=1e-7)


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


def test_closure_uses_periodic_coordinates():
    # on the sphere chart the longitude is 2*pi periodic; the equator orbit
    # must close even though y grows without bound
    m = sphere_chart()
    rep = detect_closure(m, GeodesicState(math.pi / 2, 0.3, 0.0, 1.0), 8.0,
                         tol=1e-6)
    assert rep.closed
    assert rep.period == pytest.approx(2 * math.pi, abs=1e-7)


def test_tight_tolerances_reduce_error():
    m = sphere_chart()
    alpha = 0.35
    s0 = GeodesicState(math.pi / 2, 0.0, math.sin(alpha), math.cos(alpha))

    def error_at(opts):
        tr = integrate_geodesic(m, s0, 3.0, opts)
        st = tr.final_state()
        want = math.acos(-math.sin(alpha) * math.sin(3.0))
        return abs(st.x - want)

    err_loose = error_at(IntegratorOptions(atol=1e-6, rtol=1e-5))
    err_tight = error_at(IntegratorOptions(atol=1e-12, rtol=1e-11))
    assert err_tight < err_loose / 10.0
    assert err_tight < 1e-10


def test_trace_csv_format():
    m = sphere_chart()
    tr = integrate_geodesic(m, GeodesicState(math.pi / 2, 0.0, 0.0, 1.0), 1.0)
    buf = io.StringIO()
    trace_to_csv(m, tr, buf, extra_columns=[("twice_y", lambda s: 2.0 * s.y)])
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x,y,vx,vy,energy,twice_y"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[5] == pytest.approx(1.0, abs=1e-12)
    last = [float(v) for v in lines[-1].split(",")]
    assert last[6] == pytest.approx(2.0 * last[2], rel=1e-15)
