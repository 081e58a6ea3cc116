"""The draw loop behind sample_points and sample_states, and seed choice."""

import numpy as np
import pytest

from geoproj import expr, sampling, zoo
from geoproj.metric import Domain, DomainError, MetricChart, Signature
from chartlib import unit_shift_pullback
import oracles


def _charts():
    out = [zoo.build_bundle(name).chart for name in sorted(zoo.catalogue())]
    sphere, rot = zoo.tannery_chart()
    out.append(zoo.clairaut_truncation(sphere, rot, l=1.0).base)
    out.append(unit_shift_pullback(sphere))
    return out


def _hex(values):
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("chart", _charts(), ids=lambda c: c.name)
def test_samplers_match_the_reference_loops(chart):
    for seed in (3, 11):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sampling.sample_states(chart, 12, rng)
        want = oracles.sample_states_reference(chart, 12, ref)
        assert ([_hex((s.x, s.y, s.vx, s.vy)) for s in got]
                == [_hex((s.x, s.y, s.vx, s.vy)) for s in want])
        got = sampling.sample_points(chart, 12, rng)
        want = oracles.sample_points_reference(chart, 12, ref)
        assert [_hex(p) for p in got] == [_hex(p) for p in want]
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("sample, text", [
    (sampling.sample_points, "cannot sample 3 points inside chart 'off-box'"),
    (sampling.sample_states, "cannot sample 3 states on chart 'off-box'"),
])
def test_samplers_name_a_chart_whose_box_misses_its_domain(sample, text):
    # not validated: validate() would reject the box before any sampling
    chart = MetricChart(
        name="off-box", g11=expr.const(1.0), g12=expr.const(0.0),
        g22=expr.const(1.0), domain=Domain(x_min=10.0, x_max=11.0),
        signature=Signature.RIEMANNIAN, sample_box=(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(DomainError) as err:
        sample(chart, 3, np.random.default_rng(1))
    assert str(err.value) == text


def test_resolve_seed(monkeypatch):
    # the environment plays no part: a seed comes only from the call
    monkeypatch.setenv("GEOPROJ_SEED", "77")
    assert sampling.resolve_seed(None) == 12345
    assert sampling.resolve_seed(5) == 5
    assert sampling.resolve_seed(0) == 0
    with pytest.raises(ValueError, match="non-negative, got -1"):
        sampling.resolve_seed(-1)
