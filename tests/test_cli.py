"""Command-line behaviour: wiring, exit codes, JSON determinism."""

import csv
import json
import subprocess
import sys

from geoproj import cli
from geoproj.acceptance import CriterionResult


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


def test_geodesic_from_chart_file(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "zoo", "show", "band",
                         "--a", "2", "--ell", "0.3")
    assert rc == 0
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(json.loads(out)["chart"]))

    rc, out, _ = run_cli(capsys, "geodesic", "--chart-file", str(path),
                         "--x0", "0.5", "--y0", "0.5", "--vx0", "0.3",
                         "--vy0", "1.0", "--tmax", "0.5")
    assert rc == 0
    assert json.loads(out)["chart"] == "band[a=2,l=0.3]"


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


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "geoproj.cli",
                           "zoo", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "punctured-family" in proc.stdout
