"""Command-line front end.

Subcommands: zoo (catalogue), geodesic (trace runs), check (equivalence,
affinity, isometry), verify (closed-form identities), accept (the full
acceptance suite).  Reports are JSON with sorted keys so identical
invocations at the same seed produce byte-identical output; a number that
is not finite prints as null.  Exit codes are
0 for pass, 1 for a failed check, 2 for usage or configuration errors.
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


def _positive(args, flag, default):
    """The value of a numeric flag, or default when the flag is not given.

    An explicit value that is not positive and finite is a usage error,
    not the default.
    """
    value = getattr(args, flag)
    if value is None:
        return default
    if not 0 < value < math.inf:
        raise UsageError("--%s must be positive and finite, got %s"
                         % (flag, value))
    return value


def _seed(args):
    """The --seed flag, else the GEOPROJ_SEED variable, else 12345."""
    try:
        return sampling.resolve_seed(args.seed)
    except ValueError:
        raise UsageError("GEOPROJ_SEED must be an integer, got %r"
                         % os.environ["GEOPROJ_SEED"]) from None


def _parse_field(text, flag):
    try:
        return expr.parse_prefix(text)
    except ExpressionError as err:
        raise UsageError("bad expression for %s: %s" % (flag, err))


# flag, bundle keyword, conversion, help
_PARAM_FLAGS = [
    ("a", "a", float, "family scale parameter"),
    ("ell", "l", float, "family shape parameter"),
    ("eps", "eps", float, "shear gain per period"),
    ("c", "c", float, "profile offset"),
    ("sign", "sign", int, "separable metric signature, +1 or -1"),
    ("f", "f", "field", "profile f(x), prefix expression"),
    ("h", "h", "field", "odd profile h(x), prefix expression"),
    ("h1", "h1", "field", "separable h1(x), prefix expression"),
    ("h2", "h2", "field", "separable h2(y), prefix expression"),
]


def _collect_overrides(args):
    kwargs = {}
    for flag, key, conv, _ in _PARAM_FLAGS:
        value = getattr(args, flag, None)
        if value is None:
            continue
        kwargs[key] = (_parse_field(value, "--" + flag)
                       if conv == "field" else conv(value))
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


def _resolve_chart(ref, kwargs=None):
    """A catalogue name or a path to a serialized chart file."""
    if ref.endswith(".json") or os.path.sep in ref:
        if not os.path.exists(ref):
            raise UsageError("chart file not found: %s" % ref)
        try:
            with open(ref) as fh:
                return chart_from_dict(json.load(fh)), None
        except OSError as err:
            raise UsageError("cannot read chart file %s: %s"
                             % (ref, err.strerror))
        except (ValueError, KeyError, DomainError) as err:
            raise UsageError("bad chart file %s: %s" % (ref, err))
    bundle = _build(ref, kwargs or {})
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
    if args.chart_file:
        chart, bundle = _resolve_chart(args.chart_file)
    elif args.chart:
        chart, bundle = _resolve_chart(args.chart, _collect_overrides(args))
    else:
        raise UsageError("give either --chart or --chart-file")

    state = GeodesicState(args.x0, args.y0, args.vx0, args.vy0)
    try:
        trace = integrate_geodesic(chart, state,
                                   _positive(args, "tmax", 1.0))
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
    chart, bundle = _resolve_chart(args.chart, _collect_overrides(args))

    if args.map:
        if bundle is None or args.map not in bundle.maps:
            have = [] if bundle is None else sorted(bundle.maps)
            raise UsageError("chart %r has no map %r; available: %s"
                             % (args.chart, args.map, ", ".join(have) or "none"))
        cmap = bundle.maps[args.map]
        if args.kind != "projective":
            check, tol = ((check_isometry, 1e-8) if args.kind == "isometry"
                          else (check_affinity, 1e-6))
            rep = check(chart, cmap, seed=_seed(args),
                        tol=_positive(args, "tol", tol))
            _emit(rep.to_json_dict(), args.json)
            return 0 if rep.passed else 1
        other = pullback(chart, cmap, name="%s*%s" % (args.map, chart.name))
    elif args.chart_b:
        if args.kind != "projective":
            raise UsageError("%s takes --map, not --chart-b" % args.kind)
        other, _ = _resolve_chart(args.chart_b)
    else:
        raise UsageError("give --chart-b (projective) or --map")

    rep = check_projective_equivalence(
        chart, other, n_traces=_positive(args, "samples", 20),
        drift_tol=_positive(args, "tol", 1e-6),
        t_max=_positive(args, "tmax", 1.0), seed=_seed(args))
    _emit(rep.to_json_dict(), args.json)
    return 0 if rep.verdict == EQUIVALENT else 1


def cmd_verify(args):
    ident = zoo.IDENTITIES[args.identity]
    for flag in ("samples", "seed", "tmax"):
        if getattr(args, flag) is not None and flag not in ident.reads:
            raise UsageError("verify %s does not use --%s"
                             % (args.identity, flag))
    given = {"samples": lambda: _positive(args, "samples", ident.samples),
             "seed": lambda: _seed(args),
             "tmax": lambda: _positive(args, "tmax", 1.0)}
    fields, residual = ident.run(**{k: given[k]() for k in ident.reads})
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


def _add_common(p):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: GEOPROJ_SEED or 12345)")
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
    _add_common(zshow)
    zshow.set_defaults(func=cmd_zoo)

    p = sub.add_parser("geodesic", help="integrate one geodesic")
    p.add_argument("--chart", help="catalogue chart name")
    p.add_argument("--chart-file", help="serialized chart JSON file")
    _add_param_flags(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--vx0", type=float, required=True)
    p.add_argument("--vy0", type=float, required=True)
    p.add_argument("--tmax", type=float)
    p.add_argument("--csv", metavar="PATH", help="write the trace as CSV")
    _add_common(p)
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
