"""Tests for the chart catalogue: fingerprints, identities, degeneracies."""

import math
import re

import numpy as np
import pytest

from geoproj import expr, zoo
from geoproj.expr import X, Y
from geoproj.flow import GeodesicState, detect_closure
from geoproj.integrals import (DegenerateRatioError, check_conservation,
                               darboux_integral, energy_integral,
                               metric_from_quadratic_integral)
from geoproj.metric import (CausalClass, ChartMap, Domain, MetricChart,
                            Signature, classify, gaussian_curvature,
                            gaussian_curvature_limit, killing_residual,
                            metric_eval, pullback)

from oracles import (fd_gaussian_curvature,
                     rescaling_identity_residual_reference,
                     sample_rescaling_identity_reference)


def test_clifton_pohl_curvature_profile():
    chart, _ = zoo.clifton_pohl()
    # vanishes on the axes, -2 on the diagonal, -4xy/(x^2+y^2) in general
    assert abs(gaussian_curvature(chart, (1.3, 0.0))) < 1e-12
    assert abs(gaussian_curvature(chart, (0.0, -0.7))) < 1e-12
    assert abs(gaussian_curvature(chart, (0.9, 0.9)) + 2.0) < 1e-10
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y = rng.uniform(0.3, 2.0, size=2)
        expect = -4.0 * x * y / (x * x + y * y)
        got = gaussian_curvature(chart, (x, y))
        assert abs(got - expect) < 1e-8 * max(1.0, abs(expect))


def test_band_reduces_to_normal_form():
    f = expr.sin(math.pi * X) ** 2
    chart, _ = zoo.band_chart(f, a=1.0, l=0.0)
    rng = np.random.default_rng(3)
    for _ in range(12):
        p = (rng.uniform(0, 1), rng.uniform(0, 1))
        e, ff, g = chart.coefficients_at(p)
        assert e == 0.0
        assert ff == 1.0
        assert abs(g - math.sin(math.pi * p[0]) ** 2) < 1e-15


def test_band_determinant_closed_form():
    rng = np.random.default_rng(4)
    for a, l in [(2.0, 0.3), (-1.0, 0.4), (1.0, -0.5), (3.0, 0.9)]:
        chart, _ = zoo.band_chart(a=a, l=l)
        for _ in range(8):
            p = (rng.uniform(0, 1), rng.uniform(0, 1))
            fv = math.sin(math.pi * p[0]) ** 2
            expect = -a * a / (1.0 + l * fv) ** 3
            assert abs(chart.det_at(p) - expect) < 1e-12 * abs(expect)


def test_band_rejects_degenerate_parameters():
    with pytest.raises(zoo.ZooError):
        zoo.band_chart(a=0.0)
    with pytest.raises(zoo.ZooError):
        # 1 - 1.5 sin^2(pi x) crosses zero inside the strip
        zoo.band_chart(l=-1.5)


@pytest.mark.parametrize("build, message", [
    (lambda: zoo.band_chart(l=-1.5),
     "1 + l*f changes sign or vanishes on the sample interval"),
    (lambda: zoo.band_chart(f=expr.const(1.0), l=-1.0),
     "1 + l*f changes sign or vanishes on the sample interval"),
    (lambda: zoo.tannery_chart(h=-1.2 * X),
     "profile c + h(cos r) must stay positive"),
    (lambda: zoo.projective_shift(f=expr.sin(math.pi * X) - 0.5),
     "profile f must be nonnegative"),
    (lambda: zoo.projective_shift(f=expr.const(0.0)),
     "profile f must have positive maximum"),
    (lambda: zoo.liouville_chart(h2=expr.const(-2.5)),
     "h1 + h2 changes sign or vanishes on the sample box"),
])
def test_sampled_sign_checks_name_what_fails(build, message):
    with pytest.raises(zoo.ZooError, match=re.escape(message)):
        build()


def test_band_signature_follows_the_denominator():
    # det = -a^2 / (1 + l f)^3: a denominator negative on the whole strip
    # makes the member Riemannian
    chart, _ = zoo.band_chart(f=expr.const(1.0), l=-2.0)
    assert chart.signature is Signature.RIEMANNIAN


def test_band_killing_field():
    chart, k = zoo.band_chart(a=2.0, l=0.3)
    assert killing_residual(chart, k) < 1e-12


def test_rescaling_identity_samples():
    worst, tup = zoo.sample_rescaling_identity(300, seed=99)
    assert worst < 1e-12, "worst tuple %r" % (tup,)
    # one tuple checked by hand: beta=2 sends a=8 to b=1
    assert zoo.rescaling_identity_residual(8.0, 0.5, 0.7, 0.25, 2.0) < 1e-13


# n = 3 blocks of tuples spans at least four blocks, since some are rejected
@pytest.mark.parametrize("n", [1, 200, 300, 1000, 3 * zoo._RESCALING_BLOCK])
@pytest.mark.parametrize("seed", [3, 99, 4242, 12345])
def test_rescaling_sampler_matches_the_reference_bit_for_bit(seed, n):
    worst, tup = zoo.sample_rescaling_identity(n, seed=seed)
    want_worst, want_tup = sample_rescaling_identity_reference(n, seed)
    assert type(worst) is float
    assert float.hex(worst) == float.hex(want_worst)
    assert all(type(v) is float for v in tup)
    assert [float.hex(v) for v in tup] == [float.hex(v) for v in want_tup]


def test_rescaling_residual_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    for a, l, z, mu, beta in rng.uniform(-3.0, 3.0, size=(200, 5)).tolist():
        got = zoo.rescaling_identity_residual(a, l, z, mu, beta)
        want = rescaling_identity_residual_reference(a, l, z, mu, beta)
        assert type(got) is float
        assert float.hex(got) == float.hex(want), (a, l, z, mu, beta)


def test_rescaling_identity_rejects_degenerate_input():
    with pytest.raises(zoo.ZooError):
        zoo.rescaling_identity_residual(1.0, 0.0, 0.5, 1.0, 0.0)
    with pytest.raises(zoo.ZooError):
        # 1 + l z = 0 exactly
        zoo.rescaling_identity_residual(1.0, 2.0, -0.5, 1.0, 1.0)


def test_punctured_family_parameter_gate():
    for a, l in [(0.0, 0.0), (1.0, 1.0), (1.0, -1.2), (-0.5, 0.5)]:
        with pytest.raises(zoo.ZooError):
            zoo.punctured_plane_family(a, l)


def test_punctured_family_reduces_to_base():
    base, _ = zoo.clifton_pohl()
    fam, _ = zoo.punctured_plane_family(1.0, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(12):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        if p[0] ** 2 + p[1] ** 2 < 1e-4:
            continue
        b = base.coefficients_at(p)
        f = fam.coefficients_at(p)
        assert max(abs(b[i] - f[i]) for i in range(3)) < 1e-15


def test_punctured_family_curvature_fingerprints():
    # diagonal and axis values of the curvature pin the family parameters
    for a, l in [(1.0, 0.0), (1.0, 0.5), (2.0, -1.0)]:
        chart, _ = zoo.punctured_plane_family(a, l)
        diag = gaussian_curvature(chart, (1.0, 1.0))
        expect_diag = -2.0 * a * a * (a + l)
        assert abs(diag - expect_diag) < 1e-10 * max(1.0, abs(expect_diag))
        for x0 in (1.0, 1.7, -0.8):
            axis = gaussian_curvature(chart, (x0, 0.0))
            assert abs(axis - (-a * a * l)) < 1e-10 * max(1.0, abs(a * a * l))
        limit = gaussian_curvature_limit(chart, (1.0, 0.0), (0.0, 1.0))
        assert abs(limit - (-a * a * l)) < 1e-5 * max(1.0, abs(a * a * l))


def test_punctured_family_curvature_against_fd():
    chart, _ = zoo.punctured_plane_family(1.0, 0.5)
    coeffs = lambda x, y: chart.coefficients_at((x, y))
    for p in [(1.0, 0.6), (-1.2, 0.8), (0.5, -1.5)]:
        got = gaussian_curvature(chart, p)
        ref = fd_gaussian_curvature(coeffs, p[0], p[1])
        assert abs(got - ref) < 1e-4 * max(1.0, abs(ref))


def test_punctured_family_killing_field():
    chart, k = zoo.punctured_plane_family(2.0, -1.0)
    assert killing_residual(chart, k) < 1e-10


def test_punctured_family_quarter_turn():
    # rotating the plane a quarter turn lands on the sign-flipped member
    turn = ChartMap("quarter-turn", -Y, X,
                    inverse=ChartMap("quarter-turn-inv", Y, -X))
    for a, l in [(1.0, 0.5), (2.0, -1.0)]:
        fam, _ = zoo.punctured_plane_family(a, l)
        flip, _ = zoo.punctured_plane_family(-a, l)
        pulled = pullback(fam, turn, name="turned")
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = (rng.uniform(0.4, 1.8), rng.uniform(0.4, 1.8))
            want = flip.coefficients_at(p)
            got = pulled.coefficients_at(p)
            scale = max(abs(w) for w in want)
            assert max(abs(want[i] - got[i]) for i in range(3)) < 1e-12 * scale


def test_punctured_family_pair_integral_conserved():
    base, _ = zoo.clifton_pohl()
    fam, _ = zoo.punctured_plane_family(1.0, 0.5)
    pair = darboux_integral(base, fam)
    report = check_conservation(base, pair, n_samples=8, t_max=0.6, seed=31)
    assert report.n_used >= 4
    assert report.passed, "max drift %.3g" % report.max_drift


def test_tannery_default_is_round_sphere():
    chart, _ = zoo.tannery_chart()
    rng = np.random.default_rng(6)
    for _ in range(8):
        p = (rng.uniform(0.4, math.pi - 0.4), rng.uniform(0, 2 * math.pi))
        e, f, g = chart.coefficients_at(p)
        assert abs(e - 1.0) < 1e-15 and f == 0.0
        assert abs(g - math.sin(p[0]) ** 2) < 1e-15
        assert abs(gaussian_curvature(chart, p) - 1.0) < 1e-9


def test_tannery_profile_gates():
    with pytest.raises(zoo.ZooError):
        zoo.tannery_chart(h=X * X)          # even, not odd
    with pytest.raises(zoo.ZooError):
        zoo.tannery_chart(h=-1.2 * X)       # profile crosses zero
    with pytest.raises(zoo.ZooError):
        zoo.tannery_chart(c=-1.0)
    chart, _ = zoo.tannery_chart(c=1.0, h=0.3 * X ** 3)
    assert chart.signature is Signature.RIEMANNIAN


def test_tannery_geodesics_close():
    # an odd profile keeps every unit-speed geodesic closed with period 2 pi
    chart, _ = zoo.tannery_chart(h=0.3 * X ** 3)
    rng = np.random.default_rng(17)
    for _ in range(3):
        x0 = rng.uniform(1.0, 2.0)
        y0 = rng.uniform(0.0, 2.0)
        v = np.array([rng.uniform(0.3, 1.0), rng.uniform(0.6, 1.4)])
        norm = math.sqrt(metric_eval(chart, (x0, y0), v))
        state = GeodesicState(x0, y0, v[0] / norm, v[1] / norm)
        report = detect_closure(chart, state, t_max=7.5, tol=1e-6)
        assert report.closed
        assert abs(report.period - 2.0 * math.pi) < 1e-5


def test_tannery_deformed_zero_is_negated_base():
    base, _ = zoo.tannery_chart()
    flat, _ = zoo.tannery_deformed(l=0.0)
    rng = np.random.default_rng(8)
    for _ in range(8):
        p = (rng.uniform(0.4, math.pi - 0.4), rng.uniform(0, 2 * math.pi))
        b = base.coefficients_at(p)
        d = flat.coefficients_at(p)
        assert max(abs(b[i] + d[i]) for i in range(3)) < 1e-15


def test_tannery_deformed_band_and_signature():
    chart, _ = zoo.tannery_deformed(l=-2.0)
    assert chart.signature is Signature.LORENTZIAN
    assert abs(chart.domain.x_min - math.pi / 4) < 1e-12
    assert abs(chart.domain.x_max - 3 * math.pi / 4) < 1e-12
    rng = np.random.default_rng(9)
    for _ in range(12):
        r = rng.uniform(math.pi / 4 + 0.1, 3 * math.pi / 4 - 0.1)
        p = (r, rng.uniform(0, 2 * math.pi))
        assert chart.det_at(p) < 0.0
    with pytest.raises(zoo.ZooError):
        zoo.tannery_deformed(l=-1.0)


def test_tannery_deformed_matches_partner_construction():
    # the deformation is minus the partner metric of J = energy + l C^2
    l = -2.0
    base, k = zoo.tannery_chart()
    band = MetricChart(
        "base|band", base.g11, base.g12, base.g22,
        Domain(x_min=math.pi / 4, x_max=3 * math.pi / 4),
        Signature.RIEMANNIAN, sample_box=(1.0, math.pi - 1.0, 0.0, 6.0),
        periods=base.periods).validate()
    from geoproj.integrals import clairaut_integral
    j = energy_integral(band) + clairaut_integral(band, k) \
        .squared_linear().scaled(l)
    partner = metric_from_quadratic_integral(band, j)
    assert partner.signature == Signature.LORENTZIAN
    deformed, _ = zoo.tannery_deformed(l=l)
    rng = np.random.default_rng(10)
    for _ in range(10):
        p = (rng.uniform(1.0, math.pi - 1.0), rng.uniform(0, 6))
        a = partner.coefficients_at(p)
        b = deformed.coefficients_at(p)
        scale = max(abs(w) for w in a)
        assert max(abs(a[i] + b[i]) for i in range(3)) < 1e-12 * scale


def test_tannery_deformed_lightlike_cone():
    # a base-unit vector is lightlike for the deformed band metric exactly
    # when sin^4 r times its angular speed squared equals one half
    base, _ = zoo.tannery_chart()
    deformed, _ = zoo.tannery_deformed(l=-2.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        r = rng.uniform(math.pi / 4 + 0.15, 3 * math.pi / 4 - 0.15)
        s = math.sin(r) ** 2
        vy = 1.0 / (math.sqrt(2.0) * s) * rng.choice([-1.0, 1.0])
        vx2 = 1.0 - s * vy * vy        # base E = 1
        assert vx2 >= 0.0
        v = (math.sqrt(vx2) * rng.choice([-1.0, 1.0]), vy)
        p = (r, rng.uniform(0, 2 * math.pi))
        assert abs(metric_eval(base, p, v) - 1.0) < 1e-12
        assert abs(metric_eval(deformed, p, v)) < 1e-12
        assert classify(deformed, p, v) is CausalClass.LIGHTLIKE


def test_tannery_reparam_identity():
    for t in np.linspace(-5.0, 5.0, 101):
        x = zoo.tannery_reparam_x(t)
        assert math.pi / 4 < x < 3 * math.pi / 4
        s2 = math.sin(x) ** 2
        lhs = s2 / (1.0 - 2.0 * s2)
        rhs = -math.cosh(t) ** 2
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)
    assert abs(zoo.tannery_reparam_x(0.0) - math.pi / 2) < 1e-14


def test_tannery_reparam_shape():
    ts = np.linspace(-6.0, 6.0, 121)
    xs = [zoo.tannery_reparam_x(t) for t in ts]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    for t in (0.3, 1.1, 2.7):
        assert abs(zoo.tannery_reparam_x(t)
                   + zoo.tannery_reparam_x(-t) - math.pi) < 1e-14


def test_truncation_kernel_and_nondegeneracy():
    base, k = zoo.tannery_chart()
    tb = zoo.clairaut_truncation(base, k, l=1.0)
    # at the boundary the rotation direction itself is base-unit with
    # Clairaut value +-1, and the defining form annihilates it
    for vy in (1.0, -1.0):
        val = tb.integral.value((math.pi / 2, 0.7), (0.0, vy))
        assert abs(val) < 1e-12
    # strictly inside, the form stays positive on base-unit vectors
    rng = np.random.default_rng(13)
    for _ in range(20):
        r = rng.uniform(0.5, math.pi - 0.5)
        if abs(r - math.pi / 2) < 0.05:
            continue
        ang = rng.uniform(0, 2 * math.pi)
        v = np.array([math.cos(ang), math.sin(ang) / max(math.sin(r), 1e-9)])
        p = (r, rng.uniform(0, 2 * math.pi))
        norm = math.sqrt(metric_eval(base, p, v))
        v = v / norm
        assert tb.integral.value(p, v) > 0.0


def test_truncation_pair_integral_matches_defining_form():
    # converting the partner back through the pair construction must return
    # the defining quadratic integral on the nose
    base, k = zoo.tannery_chart()
    tb = zoo.clairaut_truncation(base, k, l=1.0)
    pair = darboux_integral(tb.base, tb.partner)
    rng = np.random.default_rng(14)
    for _ in range(12):
        p = (rng.uniform(0.6, math.pi - 0.6), rng.uniform(0, 2 * math.pi))
        if abs(1.0 - math.sin(p[0]) ** 2) < 1e-3:
            continue
        v = rng.uniform(-1, 1, size=2)
        a = tb.integral.value(p, v)
        b = pair.value(p, v)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_truncation_conservation():
    base, k = zoo.tannery_chart()
    tb = zoo.clairaut_truncation(base, k, l=1.0)
    report = check_conservation(tb.base, tb.integral, n_samples=8,
                                t_max=0.5, seed=41)
    assert report.n_used >= 3
    assert report.passed, "max drift %.3g" % report.max_drift


def test_truncation_level_gate():
    base, k = zoo.tannery_chart()
    with pytest.raises(zoo.ZooError):
        zoo.clairaut_truncation(base, k, l=0.0)


def test_shift_bounds_hold_on_grid():
    bundle = zoo.projective_shift()
    lam_lo = -1.0 / bundle.f_max
    for x in np.linspace(-3.0, 4.0, 200):
        lam = expr.evaluate(bundle.shear_field, (float(x), 0.0))
        assert lam > lam_lo
        fv = expr.evaluate(expr.substitute(
            bundle.f, X - expr.floor_of(X), Y), (float(x), 0.0))
        assert 1.0 + lam * fv > 0.0


def test_shift_seams_are_smooth():
    bundle = zoo.projective_shift()
    assert zoo.shift_seam_residual(bundle) < 1e-12
    # also directly: the metric coefficients agree across a seam
    for x0 in (1.0, 2.0):
        left = bundle.chart.coefficients_at((x0 - 1e-5, 0.37))
        right = bundle.chart.coefficients_at((x0 + 1e-5, 0.37))
        assert max(abs(left[i] - right[i]) for i in range(3)) \
            < 1e-8 * max(abs(w) for w in left)


def test_shift_parameter_gates():
    with pytest.raises(zoo.ZooError):
        zoo.projective_shift(a=1.0)
    with pytest.raises(zoo.ZooError):
        zoo.projective_shift(eps=0.9)      # above (a^3-1)/(m a^3) = 0.875
    with pytest.raises(zoo.ZooError):
        zoo.projective_shift(eps=0.0)
    with pytest.raises(zoo.ZooError):
        zoo.projective_shift(f=expr.const(0.0))


def test_shift_relation_residual_random():
    bundle = zoo.projective_shift()
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(40):
        x = rng.uniform(-2.0, 2.0)
        n = int(rng.integers(-3, 5))
        worst = max(worst, zoo.shift_relation_residual(bundle, x, n))
    assert worst < 1e-10


def test_shift_translation_is_projective():
    # the pair integral of the metric against its unit-translate is conserved
    bundle = zoo.projective_shift()
    moved = pullback(bundle.chart, bundle.tau, name="shifted")
    pair = darboux_integral(bundle.chart, moved)
    report = check_conservation(bundle.chart, pair, n_samples=6,
                                t_max=0.8, seed=51)
    assert report.n_used >= 3
    assert report.passed, "max drift %.3g" % report.max_drift


def test_liouville_chart_shapes():
    chart, sep = zoo.liouville_chart()
    assert chart.signature is Signature.RIEMANNIAN
    p = (0.3, 0.6)
    e, f, g = chart.coefficients_at(p)
    w = 2.0 + math.sin(4 * math.pi * 0.3) + 5.0 - math.sin(4 * math.pi * 0.6)
    assert abs(e - w) < 1e-12 and f == 0.0 and abs(g - w) < 1e-12
    lor, _ = zoo.liouville_chart(sign=-1)
    assert lor.signature is Signature.LORENTZIAN
    with pytest.raises(zoo.ZooError):
        zoo.liouville_chart(h2=expr.const(-2.5))


def test_catalogue_entries_build():
    table = zoo.catalogue()
    expected = {"flat", "clifton-pohl", "band", "punctured-family",
                "tannery", "tannery-deformed", "projective-shift",
                "liouville", "clairaut-truncation"}
    assert set(table) == expected
    for name, entry in table.items():
        bundle = entry.build()
        assert bundle.chart.name
        assert entry.summary
        if bundle.killing is not None:
            assert killing_residual(bundle.chart, bundle.killing) < 1e-8
    with pytest.raises(KeyError):
        zoo.build_bundle("no-such-chart")


def test_catalogue_accepts_overrides():
    bundle = zoo.build_bundle("band", a=1.5, l=0.2)
    assert "a=1.5" in bundle.chart.name
    bundle = zoo.build_bundle("punctured-family", a=2.0, l=-1.0)
    assert bundle.chart.signature is Signature.LORENTZIAN
