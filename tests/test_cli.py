"""Command-line behaviour: wiring, exit codes, JSON determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from geoproj import cli
from geoproj.acceptance import CriterionResult

# stdout and exit code of `verify` on each identity and of `zoo show` on
# each catalogue entry; refactors must leave these reports byte-identical
with open(os.path.join(os.path.dirname(__file__), "golden_cli.json")) as _fh:
    GOLDEN = json.load(_fh)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_zoo_list_names_every_chart(capsys):
    rc, out, _ = run_cli(capsys, "zoo", "list")
    assert rc == 0
    for name in ["flat", "clifton-pohl", "band", "punctured-family",
                 "tannery", "tannery-deformed", "projective-shift",
                 "liouville", "clairaut-truncation"]:
        assert name in out


def test_zoo_show_emits_chart_json(capsys):
    rc, out, _ = run_cli(capsys, "zoo", "show", "clifton-pohl")
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["chart"]["coefficients"]["g12"] == "(/ 1.0 (+ (* x x) (* y y)))"
    assert data["killing"] == "radial"


def test_zoo_show_shift_reports_seams(capsys):
    rc, out, _ = run_cli(capsys, "zoo", "show", "projective-shift",
                         "--a", "2", "--eps", "0.5")
    assert rc == 0
    data = json.loads(out)
    assert data["construction"]["seam_residual"] < 1e-8
    assert data["construction"]["eps_bound"] == 0.875


def test_unknown_chart_lists_catalogue(capsys):
    rc, _, err = run_cli(capsys, "zoo", "show", "moebius")
    assert rc == 2
    assert "tannery-deformed" in err


def test_bad_expression_flag(capsys):
    rc, _, err = run_cli(capsys, "zoo", "show", "band", "--f", "(sin x")
    assert rc == 2
    assert "--f" in err


@pytest.mark.parametrize("text", [
    "(log -1)", "(sqrt -1)", "(pow -8 0.5)", "(exp 1000)", "(pow 0 -1)",
    "(* 1e308 10)", "1e999", "nan"])
def test_expression_that_folds_to_an_error_is_a_usage_error(capsys, text):
    rc, _, err = run_cli(capsys, "zoo", "show", "band", "--f", text)
    assert rc == 2
    assert "bad expression for --f" in err


def test_zoo_show_of_a_field_too_large_to_write_is_a_usage_error(capsys):
    # a 17-deep (sq ...) nest would write x 2^17 times
    nest = "x"
    for _ in range(17):
        nest = "(sq %s)" % nest
    rc, out, err = run_cli(capsys, "zoo", "show", "band", "--f", nest)
    assert rc == 2 and out == ""
    assert "more than 100000 nodes" in err


@pytest.mark.parametrize("argv", [
    ("verify", "rescaling", "--seed", "-1"), ("accept", "--seed", "-2"),
    ("check", "isometry", "--chart", "projective-shift", "--map", "shift",
     "--seed", "-3")])
def test_negative_seed_is_a_usage_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert "--seed must be non-negative, got %s" % argv[-1] in err


def test_geodesic_csv_columns(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    rc, out, _ = run_cli(capsys, "geodesic", "--chart", "tannery",
                         "--x0", "1.2", "--y0", "0.0", "--vx0", "0.2",
                         "--vy0", "1.0", "--tmax", "2.0",
                         "--csv", str(path))
    assert rc == 0
    summary = json.loads(out)
    assert summary["termination"] == "time-limit"
    assert summary["energy_drift"] < 1e-8

    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "vx", "vy", "energy", "clairaut"]
    energies = [float(r[5]) for r in rows[1:]]
    clairauts = [float(r[6]) for r in rows[1:]]
    assert max(energies) - min(energies) < 1e-8
    assert max(clairauts) - min(clairauts) < 1e-8
    # the energy column holds the values energy_drift reads
    assert summary["energy_drift"] == max(abs(e - energies[0])
                                          for e in energies)


def test_geodesic_from_chart_file(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "zoo", "show", "band",
                         "--a", "2", "--ell", "0.3")
    assert rc == 0
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(json.loads(out)["chart"]))

    rc, out, _ = run_cli(capsys, "geodesic", "--chart", str(path),
                         "--x0", "0.5", "--y0", "0.5", "--vx0", "0.3",
                         "--vy0", "1.0", "--tmax", "0.5")
    assert rc == 0
    assert json.loads(out)["chart"] == "band[a=2,l=0.3]"


def test_saved_zoo_show_report_feeds_back_as_a_chart(capsys, tmp_path):
    # the whole report, as `zoo show --json` writes it, not its "chart"
    path = tmp_path / "band.json"
    rc, _, _ = run_cli(capsys, "zoo", "show", "band", "--json", str(path))
    assert rc == 0
    start = ["--x0", "0.5", "--y0", "0.5", "--vx0", "0.3", "--vy0", "1"]
    rc, out, err = run_cli(capsys, "geodesic", "--chart", str(path), *start)
    assert rc == 0 and err == ""
    assert json.loads(out)["chart"] == "band[a=2,l=0.3]"
    assert out == run_cli(capsys, "geodesic", "--chart", "band", *start)[1]


def test_geodesic_on_a_written_chart_prints_the_same_columns(capsys,
                                                            tmp_path):
    # the chart file writes each shared subexpression once per use; read
    # back, the trace must be the catalogue chart's, byte for byte
    rc, out, _ = run_cli(capsys, "zoo", "show", "projective-shift")
    assert rc == 0
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(json.loads(out)["chart"]))
    start = ["--x0", "-1.0", "--y0", "0.5", "--vx0", "1.0", "--vy0", "0.1",
             "--tmax", "1.0"]
    runs = []
    for source in (["--chart", str(path)],
                   ["--chart", "projective-shift"]):
        csv_path = tmp_path / ("trace%d.csv" % len(runs))
        rc, out, _ = run_cli(capsys, "geodesic", *source, *start,
                             "--csv", str(csv_path))
        assert rc == 0
        rows = csv_path.read_text().splitlines()
        runs.append((out, [",".join(r.split(",")[:6]) for r in rows]))
    (out_file, rows_file), (out_chart, rows_chart) = runs
    assert rows_file[0] == "t,x,y,vx,vy,energy"
    assert len(rows_file) > 10
    assert rows_file == rows_chart
    assert out_file == out_chart


def _chart_file_data(change):
    """The flat chart's file data, with change applied to a copy."""
    data = {"schema": 1, "name": "flat", "signature": "riemannian",
            "coefficients": {"g11": "1.0", "g12": "0.0", "g22": "1.0"},
            "domain": {"x_min": None, "x_max": None, "y_min": None,
                       "y_max": None, "exclude_radius": 0.0,
                       "constraint": None},
            "sample_box": [-2.0, 2.0, -2.0, 2.0], "periods": [None, None]}
    return change(data)


def _strict_json(text):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError("not JSON: %s" % token)
    return json.loads(text, parse_constant=refuse)


def test_chart_whose_box_is_wider_than_its_domain_is_inconclusive(
        capsys, tmp_path):
    # one column of the 5 x 5 validation grid lies in the domain, so the
    # file loads, but no point of the pair integral's 6 x 6 grid does
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(_chart_file_data(lambda d: {
        **d, "name": "strip", "domain": {"x_min": 0.8, "x_max": 0.85},
        "sample_box": [0.0, 1.0, 0.0, 1.0]})))
    rc, out, err = run_cli(capsys, "check", "projective",
                           "--chart", str(path), "--chart-b", "flat")
    assert rc == 1 and err == ""
    report = _strict_json(out)
    assert report["verdict"] == "inconclusive"
    assert report["max_drift"] is None and report["max_overlap"] is None


def test_inconclusive_report_says_why(capsys, tmp_path):
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(_chart_file_data(lambda d: {
        **d, "name": "strip", "domain": {"x_min": 0.8, "x_max": 0.85},
        "sample_box": [0.0, 1.0, 0.0, 1.0]})))
    rc, out, _ = run_cli(capsys, "check", "projective",
                         "--chart", str(path), "--chart-b", "flat")
    assert rc == 1
    report = _strict_json(out)
    assert report["schema"] == 2
    assert report["reason"] == "sample box of chart 'strip' misses its domain"
    assert (report["n_traces"], report["n_conserved"],
            report["n_overlap"]) == (0, 0, 0)
    assert report["drift_tol"] == 1e-6 and report["overlap_tol"] == 1e-4


def test_non_finite_report_values_print_as_null(capsys, tmp_path):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(_chart_file_data(lambda d: {
        **d, "name": "far", "domain": {"x_min": 10.0, "x_max": 20.0},
        "sample_box": [11.0, 19.0, -2.0, 2.0]})))
    rc, out, _ = run_cli(capsys, "check", "projective",
                         "--chart", "flat", "--chart-b", str(path))
    assert rc == 1
    report = _strict_json(out)
    assert report["verdict"] == "inconclusive"
    assert report["max_drift"] is None


def test_finite_replaces_every_non_finite_float():
    data = {"a": [1.5, -math.inf, (math.nan, 2)], "b": {"c": math.inf},
            "d": 0.1, "e": "inf", "f": None, "g": 3}
    assert cli._finite(data) == {"a": [1.5, None, [None, 2]],
                                 "b": {"c": None}, "d": 0.1, "e": "inf",
                                 "f": None, "g": 3}


def _nested_g11(levels):
    """A change that sets g11 to a tree levels + 1 deep."""
    text = "(+ 2.0 %s%s%s)" % ("(* 1.0001 " * levels, "x", ")" * levels)
    return lambda d: {**d, "coefficients": {**d["coefficients"],
                                            "g11": text}}


@pytest.mark.parametrize("change, field", [
    (lambda d: [d], "JSON object"),
    (lambda d: {**d, "domain": [0.0, 1.0]}, "'domain'"),
    (lambda d: {**d, "periods": 5}, "'periods'"),
    (lambda d: {**d, "sample_box": None}, "'sample_box'"),
    (lambda d: {**d, "coefficients": {**d["coefficients"], "g12": 0.0}},
     "'g12'"),
    (lambda d: {**d, "domain": {**d["domain"], "exclude_radius": "nan"}},
     "'exclude_radius'"),
    (lambda d: {**d, "domain": {**d["domain"], "exclude_radius": -1.0}},
     "'exclude_radius'"),
    (lambda d: {**d, "domain": {**d["domain"], "exclude_radius": "inf"}},
     "'exclude_radius'"),
    (_nested_g11(200), "'g11'"),    # one level above the parse cap
    (_nested_g11(600), "'g11'"),    # too deep to differentiate
    (_nested_g11(1200), "'g11'"),   # too deep for a recursive parser
    (lambda d: {**d, "periods": [None, 0.0]}, "'periods'"),
    (lambda d: {**d, "periods": [-2.0 * math.pi, None]}, "'periods'"),
    (lambda d: {**d, "periods": [None, "nan"]}, "'periods'"),
    (lambda d: {**d, "periods": ["inf", None]}, "'periods'"),
    (lambda d: {**d, "domain": {**d["domain"],
                                "constraint": ["(- 4.0 x)", 1.0]}},
     "'constraint'"),
], ids=["top-list", "domain-list", "periods-number", "sample-box-null",
        "coefficient-number", "radius-nan", "radius-negative", "radius-inf",
        "nest-201", "nest-601", "nest-1201", "period-zero",
        "period-negative", "period-nan", "period-inf", "constraint-number"])
def test_malformed_chart_file_is_a_usage_error(capsys, tmp_path, change,
                                               field):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(_chart_file_data(change)))
    rc, _, err = run_cli(capsys, "geodesic", "--chart", str(path),
                         "--x0", "0.5", "--y0", "0.5", "--vx0", "1.0",
                         "--vy0", "0.0", "--tmax", "0.5")
    assert rc == 2
    assert err.startswith("error: bad chart file") and field in err


@pytest.mark.parametrize("flag", [None, "--json", "--csv"],
                         ids=["chart-is-a-directory",
                              "json-in-a-missing-directory",
                              "csv-in-a-missing-directory"])
def test_unreadable_chart_or_unwritable_report_is_a_usage_error(
        capsys, tmp_path, flag):
    path = tmp_path / "chart.json"
    argv = ["geodesic", "--chart", str(path), "--x0", "0.5", "--y0",
            "0.5", "--vx0", "1.0", "--vy0", "0.0", "--tmax", "0.5"]
    if flag is None:
        path.mkdir()
        want = "error: cannot read chart file %s: " % path
    else:
        path.write_text(json.dumps(_chart_file_data(lambda d: d)))
        report = tmp_path / "missing" / "out"
        argv += [flag, str(report)]
        want = "error: cannot write %s: " % report
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith(want)


@pytest.mark.parametrize("argv", [
    ["geodesic", "--chart", "flat", "--x0", "0", "--y0", "0", "--vx0", "1",
     "--vy0", "0", "--tmax", "inf"],
    ["verify", "liouville-variants", "--tmax", "inf"],
    ["check", "isometry", "--chart", "projective-shift", "--map", "shift",
     "--tol", "inf"],
    ["check", "projective", "--chart", "band", "--chart-b", "flat",
     "--tmax", "nan"],
], ids=["geodesic-tmax", "verify-tmax", "check-tol", "check-tmax-nan"])
def test_non_finite_flags_are_usage_errors(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: --%s must be positive and finite"
                          % argv[-2].lstrip("-"))


@pytest.mark.parametrize("argv", [
    ["zoo", "show", "band", "--a", "nan"],
    ["zoo", "show", "band", "--ell", "inf"],
    ["zoo", "show", "tannery", "--c", "nan"],
    ["zoo", "show", "punctured-family", "--a", "nan"],
    ["zoo", "show", "tannery-deformed", "--ell", "nan"],
    ["check", "projective", "--chart", "band", "--a", "nan",
     "--chart-b", "flat"],
], ids=["band-a", "band-ell", "tannery-c", "punctured-a", "deformed-ell",
        "check-band-a"])
def test_non_finite_catalogue_parameter_is_a_usage_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot build") and "not finite" in err


@pytest.mark.parametrize("argv, flag", [
    (["zoo", "show", "band", "--a", "abc"], "--a"),
    (["zoo", "show", "liouville", "--sign", "2.5"], "--sign"),
    (["geodesic", "--chart", "band", "--ell", "x", "--x0", "0.5", "--y0",
      "0.5", "--vx0", "0.3", "--vy0", "1"], "--ell"),
], ids=["band-a", "liouville-sign", "geodesic-band-ell"])
def test_non_numeric_catalogue_parameter_is_a_usage_error(capsys, argv,
                                                          flag):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: bad value for %s: " % flag)


def test_geodesic_requires_a_chart(capsys):
    rc, _, err = run_cli(capsys, "geodesic", "--x0", "0", "--y0", "0",
                         "--vx0", "1", "--vy0", "0", "--tmax", "1")
    assert rc == 2
    assert "--chart" in err


def test_translation_verdicts(capsys):
    rc, out, _ = run_cli(capsys, "check", "isometry",
                         "--chart", "projective-shift", "--map", "shift")
    assert rc == 1
    assert json.loads(out)["pass"] is False

    rc, out, _ = run_cli(capsys, "check", "affine",
                         "--chart", "projective-shift", "--map", "shift")
    assert rc == 1

    rc, out, _ = run_cli(capsys, "check", "projective",
                         "--chart", "projective-shift", "--map", "shift",
                         "--samples", "10", "--tmax", "0.6", "--seed", "2")
    assert rc == 0
    assert json.loads(out)["verdict"] == "equivalent"


@pytest.mark.parametrize("kind", ["isometry", "affine"])
def test_bad_map_check_exits_1_with_a_failing_report(capsys, monkeypatch,
                                                     kind):
    # a map with a singular Jacobian and one whose value is not finite
    # give a failing report, not a traceback
    from geoproj import expr, zoo
    from geoproj.metric import ChartMap
    build = zoo.build_bundle

    def with_bad_maps(name, **kwargs):
        bundle = build(name, **kwargs)
        bundle.maps["collapse"] = ChartMap("collapse", expr.const(0.3),
                                           expr.const(0.2))
        bundle.maps["log"] = ChartMap("log", expr.log(expr.X - 10.0),
                                      expr.Y)
        return bundle

    monkeypatch.setattr(zoo, "build_bundle", with_bad_maps)
    for name in ("collapse", "log"):
        rc, out, err = run_cli(capsys, "check", kind, "--chart",
                               "projective-shift", "--map", name)
        assert rc == 1 and err == ""
        report = json.loads(out)
        # the infinite residual prints as null
        assert report["pass"] is False and report["max_residual"] is None


def test_explicit_zero_flags_are_usage_errors(capsys):
    rc, out, err = run_cli(capsys, "check", "projective", "--chart", "band",
                           "--chart-b", "flat", "--tmax", "0")
    assert rc == 2
    assert out == ""
    assert "--tmax" in err
    rc, _, err = run_cli(capsys, "check", "isometry",
                         "--chart", "projective-shift", "--map", "shift",
                         "--tol", "0")
    assert rc == 2
    assert "--tol" in err
    rc, _, err = run_cli(capsys, "verify", "rescaling", "--samples", "0")
    assert rc == 2
    assert "--samples" in err
    rc, _, err = run_cli(capsys, "geodesic", "--chart", "flat", "--x0", "0",
                         "--y0", "0", "--vx0", "1", "--vy0", "0",
                         "--tmax", "0")
    assert rc == 2
    assert "--tmax" in err


def test_check_rejects_mismatched_flags(capsys):
    rc, _, err = run_cli(capsys, "check", "isometry", "--chart", "flat",
                         "--chart-b", "band")
    assert rc == 2
    rc, _, err = run_cli(capsys, "check", "isometry", "--chart", "flat",
                         "--map", "warp")
    assert rc == 2
    assert "no map" in err


_FLAT_FILE = "{tmp}/flat.json"
_START = ["--x0", "0.5", "--y0", "0.5", "--vx0", "0.3", "--vy0", "1"]


@pytest.mark.parametrize("argv, want", [
    (["check", "isometry", "--chart", "projective-shift", "--map", "shift",
      "--samples", "3"], "check isometry does not use --samples"),
    (["check", "isometry", "--chart", "projective-shift", "--map", "shift",
      "--tmax", "0.1"], "check isometry does not use --tmax"),
    (["check", "affine", "--chart", "projective-shift", "--map", "shift",
      "--samples", "3", "--tmax", "0.1"],
     "check affine does not use --samples"),
    (["check", "affine", "--chart", "projective-shift", "--map", "shift",
      "--chart-b", "flat"], "check affine does not use --chart-b"),
    (["check", "projective", "--chart", "projective-shift", "--map", "shift",
      "--chart-b", "flat"], "check --map does not use --chart-b"),
    (["geodesic", "--chart", _FLAT_FILE, "--a", "5", "--ell", "0.2"]
     + _START, "chart file %s does not use --a" % _FLAT_FILE),
    (["check", "projective", "--chart", _FLAT_FILE, "--ell", "0.3",
      "--chart-b", "flat"], "chart file %s does not use --ell" % _FLAT_FILE),
    (["geodesic", "--chart", "band", "--chart-file", _FLAT_FILE] + _START,
     None),
    (["zoo", "show", "band", "--seed", "3"], None),
    (["geodesic", "--chart", "band", "--seed", "3"] + _START, None),
], ids=["isometry-samples", "isometry-tmax", "affine-samples-tmax",
        "affine-chart-b", "map-and-chart-b", "geodesic-file-params",
        "check-file-param", "chart-file-flag", "zoo-show-seed",
        "geodesic-seed"])
def test_a_flag_the_command_does_not_read_is_refused(capsys, tmp_path, argv,
                                                     want):
    # want None: the flag is gone, and argparse exits with its usage code
    (tmp_path / "flat.json").write_text(
        json.dumps(_chart_file_data(lambda d: d)))
    argv = [a.format(tmp=tmp_path) for a in argv]
    if want is None:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        return
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == "error: %s\n" % want.format(tmp=tmp_path)


def test_verify_identities_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify", "rescaling",
                         "--samples", "200", "--seed", "3")
    assert rc == 0
    assert json.loads(out)["worst_residual"] <= 1e-10

    rc, out, _ = run_cli(capsys, "verify", "shift-relation",
                         "--samples", "25", "--seed", "3")
    assert rc == 0

    rc, out, _ = run_cli(capsys, "verify", "tannery-reparam")
    assert rc == 0

    rc, out, _ = run_cli(capsys, "verify", "liouville-variants",
                         "--samples", "8", "--tmax", "0.6", "--seed", "3")
    assert rc == 0
    data = json.loads(out)
    assert data["separable_drift"] <= 1e-6
    assert data["alternate_form_drift"] > 1e-2


def test_verify_rejects_flags_the_identity_ignores(capsys):
    rc, out, err = run_cli(capsys, "verify", "tannery-reparam", "--seed", "5")
    assert rc == 2
    assert out == ""
    assert "--seed" in err
    rc, out, err = run_cli(capsys, "verify", "rescaling", "--tmax", "2")
    assert rc == 2
    assert out == ""
    assert "--tmax" in err


def test_reports_are_deterministic(capsys):
    args = ("check", "projective", "--chart", "band", "--chart-b", "flat",
            "--samples", "5", "--tmax", "0.4", "--seed", "9")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 1
    assert out1 == out2
    assert json.loads(out1)["verdict"] == "not-equivalent"


def test_accept_command_reports_each_criterion(capsys, monkeypatch, tmp_path):
    fake = [CriterionResult(1, "first thing", True, "fine", 0.01),
            CriterionResult(2, "second thing", False, "broke", 0.02)]
    monkeypatch.setattr(cli.acceptance, "run_all", lambda seed: fake)
    path = tmp_path / "accept.json"
    rc, out, _ = run_cli(capsys, "accept", "--seed", "1",
                         "--json", str(path))
    assert rc == 1
    assert "[ 1] PASS" in out and "[ 2] FAIL" in out
    data = json.loads(path.read_text())
    assert data["pass"] is False
    assert [c["id"] for c in data["criteria"]] == [1, 2]


def test_accept_json_leaves_out_wall_clock_time(capsys, monkeypatch,
                                              tmp_path):
    reports = []
    for elapsed in (0.01, 7.5):
        fake = [CriterionResult(1, "first thing", True, "fine", elapsed)]
        monkeypatch.setattr(cli.acceptance, "run_all", lambda seed: fake)
        path = tmp_path / ("accept-%g.json" % elapsed)
        rc, out, _ = run_cli(capsys, "accept", "--seed", "1",
                             "--json", str(path))
        assert rc == 0
        assert "(%.1fs)" % elapsed in out
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    assert "elapsed" not in json.loads(reports[0])["criteria"][0]


def test_console_script_entry_runs_the_cli_module():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        assert 'geoproj = "geoproj.cli:main"' in fh.read()
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "geoproj.cli",
                           "zoo", "list"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert "punctured-family" in proc.stdout


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_recording(capsys, name):
    want = GOLDEN[name]
    rc, out, _ = run_cli(capsys, *want["argv"])
    assert rc == want["rc"]
    assert out == want["stdout"]
