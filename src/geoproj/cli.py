"""Command-line front end.

Subcommands: zoo (catalogue), geodesic (trace runs), check (equivalence,
affinity, isometry), verify (closed-form identities), accept (the full
acceptance suite).  --chart takes a catalogue name, a chart file or a saved
`zoo show` report; a numeric flag not given keeps the library's default,
and a flag the command does not read is a usage error.  Reports are JSON
with sorted keys so identical invocations at the same seed produce
byte-identical output; a number that is not finite prints as null.  Exit
codes: 0 for pass, 1 for a failed check, 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import acceptance, expr, sampling, zoo
from .expr import ExpressionError
from .flow import GeodesicState, integrate_geodesic, trace_to_csv
from .integrals import energy_integral
from .metric import DomainError, chart_from_dict, chart_to_dict, pullback
from .projective import (EQUIVALENT, check_affinity, check_isometry,
                         check_projective_equivalence)


class UsageError(Exception):
    pass


def _finite(data):
    """data with every non-finite float replaced by None, printed as null."""
    if isinstance(data, float):
        return data if math.isfinite(data) else None
    if isinstance(data, dict):
        return {key: _finite(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_finite(value) for value in data]
    return data


def _write(path, write):
    """Call write(fh) on the file at path, opened for writing; a file that
    cannot be written is a usage error."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as err:
        raise UsageError("cannot write %s: %s" % (path, err.strerror))


def _emit(data, path=None):
    text = json.dumps(_finite(data), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    if path:
        _write(path, lambda fh: fh.write(text))
    sys.stdout.write(text)


def _positive(args, flag):
    """The value of a numeric flag, which must be positive and finite."""
    value = getattr(args, flag)
    if not 0 < value < math.inf:
        raise UsageError("--%s must be positive and finite, got %s"
                         % (flag, value))
    return value


def _given(args, **keywords):
    """{library keyword: value} for each numeric flag given, by flag name;
    a flag not given leaves the library's default."""
    return {key: _positive(args, flag) for flag, key in keywords.items()
            if getattr(args, flag) is not None}


def _unread(args, what, flags):
    """Refuse each of flags that was given: what does not read it."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise UsageError("%s does not use --%s"
                             % (what, flag.replace("_", "-")))


def _seed(args):
    """The --seed flag, else 12345; a negative seed is a usage error."""
    try:
        return sampling.resolve_seed(args.seed)
    except ValueError as err:
        raise UsageError("--%s" % err) from None


# flag, bundle keyword, conversion, help
_PARAM_FLAGS = [
    ("a", "a", float, "family scale parameter"),
    ("ell", "l", float, "family shape parameter"),
    ("eps", "eps", float, "shear gain per period"),
    ("c", "c", float, "profile offset"),
    ("sign", "sign", int, "separable metric signature, +1 or -1"),
    ("f", "f", expr.parse_prefix, "profile f(x), prefix expression"),
    ("h", "h", expr.parse_prefix, "odd profile h(x), prefix expression"),
    ("h1", "h1", expr.parse_prefix, "separable h1(x), prefix expression"),
    ("h2", "h2", expr.parse_prefix, "separable h2(y), prefix expression"),
]


def _collect_overrides(args):
    kwargs = {}
    for flag, key, conv, _ in _PARAM_FLAGS:
        text = getattr(args, flag)
        if text is None:
            continue
        try:
            kwargs[key] = conv(text)
        except ExpressionError as err:
            raise UsageError("bad expression for --%s: %s" % (flag, err))
        except ValueError as err:
            raise UsageError("bad value for --%s: %s" % (flag, err))
    return kwargs


def _build(name, kwargs):
    try:
        return zoo.build_bundle(name, **kwargs)
    except KeyError as err:
        raise UsageError(err.args[0])
    except TypeError:
        raise UsageError("chart %r does not take parameters %s"
                         % (name, sorted(kwargs)))
    except (zoo.ZooError, ExpressionError) as err:
        raise UsageError("cannot build %r: %s" % (name, err))


def _resolve_chart(ref, args=None):
    """A catalogue name, built with the parameter flags in args, or a path
    to a chart file or to a saved `zoo show` report."""
    if ref.endswith(".json") or os.path.sep in ref:
        if args is not None:
            _unread(args, "chart file " + ref, [f for f, *_ in _PARAM_FLAGS])
        if not os.path.exists(ref):
            raise UsageError("chart file not found: %s" % ref)
        try:
            with open(ref) as fh:
                data = json.load(fh)
            if isinstance(data, dict) and "chart" in data:
                data = data["chart"]
            return chart_from_dict(data), None
        except OSError as err:
            raise UsageError("cannot read chart file %s: %s"
                             % (ref, err.strerror))
        except (ValueError, KeyError, DomainError) as err:
            raise UsageError("bad chart file %s: %s" % (ref, err))
    bundle = _build(ref, {} if args is None else _collect_overrides(args))
    return bundle.chart, bundle


def cmd_zoo(args):
    table = zoo.catalogue()
    if args.action == "list":
        for name, entry in table.items():
            sys.stdout.write("%-20s %s\n" % (name, entry.summary))
        return 0
    bundle = _build(args.name, _collect_overrides(args))
    try:
        chart = chart_to_dict(bundle.chart)
    except ExpressionError as err:
        raise UsageError("cannot serialize %r: %s" % (args.name, err))
    out = {
        "schema": 1,
        "chart": chart,
        "killing": None if bundle.killing is None else bundle.killing.name,
        "integrals": list(bundle.integrals),
        "maps": list(bundle.maps),
    }
    sb = bundle.extras.get("shift_bundle")
    if sb is not None:
        out["construction"] = {
            "eps_bound": sb.eps_bound,
            "profile_max": sb.f_max,
            "seam_residual": zoo.shift_seam_residual(sb),
        }
    _emit(out, args.json)
    return 0


def cmd_geodesic(args):
    if not args.chart:
        raise UsageError("give --chart, a catalogue name or a chart file")
    chart, bundle = _resolve_chart(args.chart, args)

    state = GeodesicState(args.x0, args.y0, args.vx0, args.vy0)
    try:
        trace = integrate_geodesic(chart, state, _positive(args, "tmax"))
    except DomainError as err:
        raise UsageError("bad initial condition: %s" % err)

    energy = energy_integral(chart).along(trace)
    if args.csv:
        columns = [("energy", energy)]
        if bundle is not None:
            columns += [(name, integral.along(trace))
                        for name, integral in bundle.integrals.items()
                        if name != "energy"]
        _write(args.csv, lambda fh: trace_to_csv(trace, fh, columns))

    end = trace.final_state()
    _emit({
        "schema": 1,
        "chart": chart.name,
        "termination": trace.termination.value,
        "t_final": end.t,
        "state": {"x": end.x, "y": end.y, "vx": end.vx, "vy": end.vy},
        "steps": {"accepted": trace.n_accepted, "rejected": trace.n_rejected},
        "energy_drift": float(abs(energy - energy[0]).max()),
    }, args.json)
    return 0


def cmd_check(args):
    if args.kind != "projective":
        _unread(args, "check " + args.kind, ("chart_b", "samples", "tmax"))
    chart, bundle = _resolve_chart(args.chart, args)

    if args.map:
        _unread(args, "check --map", ("chart_b",))
        if bundle is None or args.map not in bundle.maps:
            have = [] if bundle is None else sorted(bundle.maps)
            raise UsageError("chart %r has no map %r; available: %s"
                             % (args.chart, args.map, ", ".join(have) or "none"))
        cmap = bundle.maps[args.map]
        if args.kind != "projective":
            check = (check_isometry if args.kind == "isometry"
                     else check_affinity)
            rep = check(chart, cmap, seed=_seed(args),
                        **_given(args, tol="tol"))
            _emit(rep.to_json_dict(), args.json)
            return 0 if rep.passed else 1
        other = pullback(chart, cmap, name="%s*%s" % (args.map, chart.name))
    elif args.chart_b:
        other, _ = _resolve_chart(args.chart_b)
    else:
        raise UsageError("give --chart-b (projective) or --map")

    rep = check_projective_equivalence(
        chart, other, seed=_seed(args),
        **_given(args, samples="n_traces", tol="drift_tol", tmax="t_max"))
    _emit(rep.to_json_dict(), args.json)
    return 0 if rep.verdict == EQUIVALENT else 1


def cmd_verify(args):
    ident = zoo.IDENTITIES[args.identity]
    _unread(args, "verify " + args.identity,
            [f for f in ("samples", "seed", "tmax") if f not in ident.reads])
    kwargs = _given(args, samples="samples", tmax="tmax")
    if "seed" in ident.reads:
        kwargs["seed"] = _seed(args)
    fields, residual = ident.run(**kwargs)
    out = dict(fields, schema=1, identity=args.identity, tol=ident.tol)
    out["pass"] = residual <= ident.tol
    _emit(out, args.json)
    return 0 if out["pass"] else 1


def cmd_accept(args):
    seed = _seed(args)
    results = acceptance.run_all(seed)
    for res in results:
        sys.stdout.write(res.line() + "\n")
    ok = all(r.passed for r in results)
    _emit({"schema": 1, "seed": seed, "pass": ok,
           "criteria": [r.to_json_dict() for r in results]}, args.json)
    return 0 if ok else 1


def _add_param_flags(p):
    for flag, _, _, text in _PARAM_FLAGS:
        p.add_argument("--" + flag, help=text)


def _add_common(p, seed=True):
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed, non-negative (default: 12345)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the JSON report to this file")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="geoproj",
        description="surface metrics sharing geodesics: catalogue, flows, "
                    "equivalence checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="list the catalogue or show one chart")
    zsub = p.add_subparsers(dest="action", required=True)
    zlist = zsub.add_parser("list", help="one line per chart")
    zlist.set_defaults(func=cmd_zoo)
    zshow = zsub.add_parser("show", help="serialize one chart as JSON")
    zshow.add_argument("name")
    _add_param_flags(zshow)
    _add_common(zshow, seed=False)
    zshow.set_defaults(func=cmd_zoo)

    p = sub.add_parser("geodesic", help="integrate one geodesic")
    p.add_argument("--chart", help="catalogue name or chart file")
    _add_param_flags(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--vx0", type=float, required=True)
    p.add_argument("--vy0", type=float, required=True)
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--csv", metavar="PATH", help="write the trace as CSV")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("check", help="compare two metrics or grade a map")
    p.add_argument("kind", choices=["projective", "affine", "isometry"])
    p.add_argument("--chart", required=True,
                   help="catalogue name or chart file")
    p.add_argument("--chart-b", help="second chart (projective only)")
    p.add_argument("--map", help="named map of the chart's bundle")
    _add_param_flags(p)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tmax", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="closed-form identity spot checks")
    p.add_argument("identity", choices=list(zoo.IDENTITIES))
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tmax", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("accept", help="run the ten acceptance criteria")
    _add_common(p)
    p.set_defaults(func=cmd_accept)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
