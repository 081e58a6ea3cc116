"""The traced benchmark run (perfbench/spans.py) still hooks into geoproj.

The span recorder patches module attributes and runtime methods by name
from outside the package, so a rename or a removed import breaks
`perfbench/run.py --trace 1` without failing any other test.
"""

import importlib.util
import math
import os

from geoproj import flow, metric, zoo
from geoproj.flow import GeodesicState

_SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_counts_a_geodesic_and_a_jacobi_run():
    spans = _load_spans()
    for name, sites in spans.ENTRY_POINTS.items():
        for module, attr in sites:
            assert callable(getattr(module, attr, None)), (name, attr)

    sphere, _ = zoo.tannery_chart()
    state = GeodesicState(math.pi / 2, 0.3, 0.0, 1.0)
    original = flow.integrate_geodesic
    rec = spans.Recorder()
    rec.install()
    try:
        trace = flow.integrate_geodesic(sphere, state, 0.5)
        times, jt = flow.find_conjugate_points(sphere, state, 3.5)
        # the generated steps write the bundles inline, so the runtime's
        # standalone evaluators are called here directly
        metric.christoffel(sphere, (state.x, state.y))
        metric.gaussian_curvature(sphere, (state.x, state.y))
    finally:
        rec.uninstall()

    assert trace.termination is flow.Termination.TIME_LIMIT
    assert len(times) == 1 and jt.n_accepted > 0
    calls = [s.name for s in rec.spans]
    assert "flow.integrate_geodesic" in calls
    assert "flow.find_conjugate_points" in calls
    assert rec.leaf["metric.christoffel"][0] > 0
    assert rec.leaf["metric.curvature"][0] > 0
    assert rec.leaf["flow.dense"][0] > 0
    assert flow.integrate_geodesic is original
    assert not hasattr(sphere.runtime(), "_perfbench_wrapped")
