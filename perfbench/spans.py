"""Span recorder for the traced benchmark run.

The recorder wraps geoproj's public entry points from outside the package:
each module-level function is replaced in every module that looks it up
(``integrals`` and ``projective`` import ``integrate_geodesic`` by name, so
patching ``flow`` alone would miss their calls).  A wrapped call records a
Span with its name, start, end, parent span and op id.  Spans stay in
memory until the run ends.

The hot callables of a chart runtime (christoffel, curvature, in_domain)
and the dense-output interpolant run hundreds of thousands of times per
run, so they are counted, not stored: each call adds one to its counter,
its duration to its total, and its duration to the enclosing span's child
time.  Self time of a span is its duration minus its child time.

The interpolant is wrapped on the DenseOutput class rather than on each
returned trace, because the closure observer and the conjugate-point
bisection call it before the trace is handed back.
"""

from __future__ import annotations

from time import perf_counter

from geoproj import expr, flow, integrals, metric, projective, sampling, zoo

FLOW_TRACE_KINDS = ("geodesic", "jacobi")
TERMINATIONS = tuple(t.value for t in flow.Termination)
LEAVES = ("metric.christoffel", "metric.curvature", "metric.in_domain",
          "flow.dense")

# span name -> [(module, attribute name), ...] where callers look it up
ENTRY_POINTS = {
    "zoo.build": [(zoo, n) for n in (
        "clifton_pohl", "punctured_plane_family", "band_chart",
        "tannery_chart", "tannery_deformed", "clairaut_truncation",
        "projective_shift", "liouville_chart", "build_bundle")],
    "expr.compile": [(expr, "compile_fields")],
    "expr.substitute": [(expr, "substitute")],
    "metric.pullback": [(metric, "pullback"), (projective, "pullback")],
    "flow.integrate_geodesic": [(flow, "integrate_geodesic"),
                                (integrals, "integrate_geodesic"),
                                (projective, "integrate_geodesic")],
    "flow.find_conjugate_points": [(flow, "find_conjugate_points")],
    "flow.detect_closure": [(flow, "detect_closure")],
    "integrals.conservation": [(integrals, "check_conservation"),
                               (projective, "check_conservation")],
    "integrals.darboux": [(integrals, "darboux_integral"),
                          (projective, "darboux_integral")],
    "projective.equivalence": [(projective, "check_projective_equivalence")],
    "projective.map_check": [(projective, "check_isometry"),
                             (projective, "check_affinity")],
    "projective.liouville_search": [(projective,
                                     "liouville_isometry_search")],
    "sampling.states": [(sampling, "sample_states")],
    "sampling.points": [(sampling, "sample_points")],
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "rhs",
                 "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.rhs = 0          # christoffel calls made directly inside
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


def _trace_info(name, result):
    """(system, termination, attempted steps, rejected steps) of a trace.

    A trace that leaves the domain drops its last step, whose six stages
    did run, from n_accepted; it is counted here as an attempted step.
    """
    if name == "flow.integrate_geodesic":
        tr = result
        kind = "geodesic"
    elif name == "flow.find_conjugate_points":
        tr = result[1]
        kind = "jacobi"
    else:
        return None
    dropped = int(tr.termination is flow.Termination.DOMAIN_EXIT)
    return (kind, tr.termination.value,
            tr.n_accepted + tr.n_rejected + dropped, tr.n_rejected)


def _result_info(name, result):
    if name.startswith("flow."):
        return _trace_info(name, result)
    if name == "integrals.conservation":
        return (result.n_samples, result.n_used)
    if name == "projective.equivalence":
        return result.n_overlap
    if name == "sampling.states":
        return len(result)
    return None


class Recorder:
    """Installs the wrappers, records spans and counters, and removes them."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.leaf = {name: [0, 0.0] for name in LEAVES}
        self.runtime_builds = 0
        self._patched = []      # (owner, attribute, original)
        self._runtimes = []     # (runtime, original in_domain)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.op)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                spans.append(span)
            span.info = _result_info(name, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        stack, counter = self.stack, self.leaf[name]
        is_rhs = name == "metric.christoffel"

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                counter[0] += 1
                counter[1] += dt
                if stack:
                    top = stack[-1]
                    top.child_s += dt
                    if is_rhs:
                        top.rhs += 1

        return wrapper

    def _wrap_runtime(self, rt):
        self._runtimes.append((rt, rt.in_domain))
        rt.christoffel = self._leaf_wrapper("metric.christoffel",
                                            rt.christoffel)
        rt.curvature = self._leaf_wrapper("metric.curvature", rt.curvature)
        rt.in_domain = self._leaf_wrapper("metric.in_domain", rt.in_domain)
        rt._perfbench_wrapped = True

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for name, sites in ENTRY_POINTS.items():
            for module, attr in sites:
                self._patch(module, attr,
                            self._span_wrapper(name, getattr(module, attr)))

        original_runtime = metric.MetricChart.runtime
        recorder = self

        def runtime(chart):
            # A chart compiles its runtime on the first call only.  The
            # cached field is the one place that tells a build from a hit.
            if chart._runtime is None:
                recorder.runtime_builds += 1
            rt = original_runtime(chart)
            if not getattr(rt, "_perfbench_wrapped", False):
                recorder._wrap_runtime(rt)
            return rt

        self._patch(metric.MetricChart, "runtime", runtime)
        self._patch(flow.DenseOutput, "__call__",
                    self._leaf_wrapper("flow.dense",
                                       flow.DenseOutput.__call__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for rt, in_domain in self._runtimes:
            del rt.christoffel, rt.curvature, rt._perfbench_wrapped
            rt.in_domain = in_domain
        self._runtimes.clear()

    # -- summaries ----------------------------------------------------------

    def op_fingerprint(self, ops):
        """Per op id: steps and traces per termination, RHS evaluations.

        RHS evaluations are the christoffel calls made directly inside a
        flow span; the determinism check compares these between runs.
        """
        out = {op: {"rhs": 0, "steps": {}, "traces": {}} for op in ops}
        for s in self.spans:
            if s.op not in out or not s.name.startswith("flow."):
                continue
            rec = out[s.op]
            rec["rhs"] += s.rhs
            if s.info is not None:
                _, term, steps, _ = s.info
                rec["steps"][term] = rec["steps"].get(term, 0) + steps
                rec["traces"][term] = rec["traces"].get(term, 0) + 1
        return out


# ---------------------------------------------------------------------------
# per-layer metrics


def _outermost(spans, prefix):
    """Spans whose name starts with prefix and no ancestor's does."""
    out = []
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p = s.parent
        while p is not None and not p.name.startswith(prefix):
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(rec):
    """name -> (value, unit, samples) for every per-layer metric."""
    spans = rec.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    m = {}
    zoo_spans = _outermost(spans, "zoo.")
    m["zoo.build.calls"] = (len(zoo_spans), "count", len(zoo_spans))
    m["zoo.build.s"] = (sum(s.duration for s in zoo_spans), "s",
                        len(zoo_spans))
    for short in ("compile", "substitute"):
        ss = named("expr." + short)
        m["expr.%s.calls" % short] = (len(ss), "count", len(ss))
        m["expr.%s.s" % short] = (sum(s.duration for s in ss), "s", len(ss))

    m["metric.runtime.builds"] = (rec.runtime_builds, "count",
                                  rec.runtime_builds)
    for leaf in ("christoffel", "in_domain", "curvature"):
        calls, secs = rec.leaf["metric." + leaf]
        m["metric.%s.calls" % leaf] = (calls, "count", calls)
        m["metric.%s.s" % leaf] = (secs, "s", calls)
    ss = named("metric.pullback")
    m["metric.pullback.calls"] = (len(ss), "count", len(ss))
    m["metric.pullback.s"] = (sum(s.duration for s in ss), "s", len(ss))

    traces = [s for s in spans if s.name.startswith("flow.")
              and s.info is not None]
    steps_total = rejected = 0
    for term in TERMINATIONS:
        tt = [s for s in traces if s.info[1] == term]
        steps = sum(s.info[2] for s in tt)
        m["flow.traces." + term] = (len(tt), "count", len(tt))
        m["flow.steps." + term] = (steps, "count", len(tt))
        m["flow.trace_s." + term] = (sum(s.duration for s in tt), "s",
                                     len(tt))
        steps_total += steps
        rejected += sum(s.info[3] for s in tt)
    singular = m["flow.steps.singularity"][0]
    m["flow.singular_step_frac"] = (_frac(singular, steps_total), "ratio",
                                    steps_total)
    m["flow.rejected_frac"] = (_frac(rejected, steps_total), "ratio",
                               steps_total)
    for kind in FLOW_TRACE_KINDS:
        tt = [s for s in traces if s.info[0] == kind]
        steps = sum(s.info[2] for s in tt)
        m["flow.step_us." + kind] = (
            1e6 * _frac(sum(s.duration for s in tt), steps), "us", steps)
    flow_spans = [s for s in spans if s.name.startswith("flow.")]
    m["flow.self_s"] = (sum(s.self_s for s in flow_spans), "s",
                        len(flow_spans))
    calls, secs = rec.leaf["flow.dense"]
    m["flow.dense.calls"] = (calls, "count", calls)
    m["flow.dense.s"] = (secs, "s", calls)

    cons = named("integrals.conservation")
    m["integrals.conservation.calls"] = (len(cons), "count", len(cons))
    m["integrals.conservation.self_s"] = (sum(s.self_s for s in cons), "s",
                                          len(cons))
    dar = named("integrals.darboux")
    m["integrals.darboux.s"] = (sum(s.duration for s in dar), "s", len(dar))
    n_samples = sum(s.info[0] for s in cons)
    m["integrals.used_frac"] = (
        _frac(sum(s.info[1] for s in cons), n_samples), "ratio", n_samples)

    eq = named("projective.equivalence")
    m["projective.equivalence.self_s"] = (sum(s.self_s for s in eq), "s",
                                          len(eq))
    m["projective.overlap.used"] = (sum(s.info for s in eq), "count", len(eq))
    for short in ("map_check", "liouville_search"):
        ss = named("projective." + short)
        m["projective.%s.s" % short] = (sum(s.duration for s in ss), "s",
                                        len(ss))

    samp = _outermost(spans, "sampling.")
    m["sampling.states"] = (sum(s.info for s in named("sampling.states")),
                            "count", len(named("sampling.states")))
    m["sampling.s"] = (sum(s.duration for s in samp), "s", len(samp))
    return m
