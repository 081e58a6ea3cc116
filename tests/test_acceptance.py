"""The ten advertised end-to-end checks, one test per criterion.

Each test prints its scorecard line to the real terminal so a verbose run
reads as a pass/fail table; the cache below makes sure a criterion runs
exactly once however the tests are ordered.
"""

import itertools
import types

from geoproj import acceptance, expr, sampling, zoo
from geoproj.expr import X, Y

_ROWS = {row[0]: row for row in acceptance.CRITERIA}
_SEED = sampling.resolve_seed(None)
_cache = {}


def _run(cid):
    if cid not in _cache:
        _cache[cid] = acceptance.run_criterion(_ROWS[cid], _SEED)
    return _cache[cid]


def _check(cid, capsys):
    res = _run(cid)
    with capsys.disabled():
        print("\n" + res.line(), end="")
    assert res.passed, res.line()


def test_criteria_registry_is_complete():
    assert list(_ROWS) == list(range(1, 11))
    assert all(row[1] and callable(row[2]) for row in acceptance.CRITERIA)
    budgets = {cid: row[3] for cid, row in _ROWS.items() if row[3]}
    assert budgets == {7: 30, 10: 300}


def test_criterion_01_band_pairs_equivalent(capsys):
    _check(1, capsys)


def test_criterion_02_spoiled_pair_rejected(capsys):
    _check(2, capsys)


def test_criterion_03_curvature_fingerprints(capsys):
    _check(3, capsys)


def test_criterion_04_conjugate_point_scan(capsys):
    _check(4, capsys)


def test_criterion_05_rescaling_identity(capsys):
    _check(5, capsys)


def test_criterion_06_deformed_surface(capsys):
    _check(6, capsys)


def test_criterion_07_shift_construction(capsys):
    _check(7, capsys)


def test_criterion_07_compiles_the_periodic_profile_once(monkeypatch):
    # the bound check evaluates f(x - floor x) at 200 points; building the
    # substituted tree anew at each point compiled it 200 times
    profile = [expr.to_prefix(expr.substitute(
        zoo.projective_shift().f, X - expr.floor_of(X), Y))]
    compiled = []
    original = expr.compile_fields

    def counting(fields):
        compiled.append([expr.to_prefix(f) for f in fields])
        return original(fields)

    monkeypatch.setattr(expr, "compile_fields", counting)
    res = acceptance.run_criterion(_ROWS[7], _SEED)
    assert res.passed, res.details
    assert compiled.count(profile) == 1
    assert len(compiled) < 40


def test_criterion_08_truncation_pair(capsys):
    _check(8, capsys)


def test_criterion_09_separable_symmetry_search(capsys):
    _check(9, capsys)


def test_criterion_10_integrator_hygiene(capsys):
    _check(10, capsys)


def test_run_all_turns_a_crash_into_a_failure_and_runs_on(monkeypatch):
    ran = []

    def boom(seed):
        raise ValueError("boom")

    def fine(seed):
        ran.append(seed)
        return True, "fine"

    monkeypatch.setattr(acceptance, "CRITERIA", [
        (1, "first", boom, None), (2, "second", fine, None)])
    # a clock that advances 1 s per reading
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(
        perf_counter=itertools.count(0.0).__next__))
    results = acceptance.run_all(7)
    assert [(r.cid, r.passed, r.details) for r in results] == [
        (1, False, "raised ValueError: boom"), (2, True, "fine")]
    assert ran == [7]
    assert [r.elapsed for r in results] == [1.0, 1.0]


def test_run_criterion_fails_a_passing_check_over_its_budget(monkeypatch):
    def boom(seed):
        raise ValueError("boom")

    def run(check):
        res = acceptance.run_criterion((7, "shift", check, 30), 1)
        return res.passed, res.details, res.elapsed

    # each check reads as taking 31 s against a 30 s budget
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(
        perf_counter=itertools.count(0.0, 31.0).__next__))
    assert run(lambda seed: (True, "fine")) == (
        False, "criterion took 31.0s, budget 30s", 31.0)
    assert run(lambda seed: (False, "seam residual too large")) == (
        False, "seam residual too large", 31.0)
    assert run(boom) == (False, "raised ValueError: boom", 31.0)


def test_result_json_shape():
    res = _run(5)
    d = res.to_json_dict()
    assert d["schema"] == 1
    assert d["id"] == 5
    assert d["pass"] is True
    assert isinstance(d["details"], str)
