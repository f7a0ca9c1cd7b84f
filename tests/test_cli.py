"""Command line behaviour: verbs, formats, files, and exit codes."""

import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys

import pytest

import sgblow.cli
import sgblow.fixtures as fixtures
from sgblow.blowup import Analysis
from sgblow.cli import main
from sgblow.core import NumericalSemigroup
from sgblow.errors import (
    EquivalenceViolation,
    GrammarError,
    InvariantViolation,
    NotClosed,
    NotNested,
    WindowTooLarge,
)
from sgblow.report import loads_document
from sgblow.statements import STATEMENTS

GENS = "<10,12,95,97>"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """(exit code, stdout, stderr) of `python -m sgblow.cli` in a new process."""
    src = os.path.dirname(os.path.dirname(sgblow.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "sgblow.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_analyze_json_document(capsys):
    code, out, err = run(capsys, "analyze", GENS, "--format", "json")
    assert code == 0 and err == ""
    doc = loads_document(out)
    assert doc["semigroup"]["c"] == 124
    assert doc["semigroup"]["class"]["label"] == "almost_gorenstein"
    assert doc["semigroup"]["class"]["cm_type"] == 3
    assert doc["hilbert"]["nu"] == 4
    assert doc["hilbert"]["rho"] == 21
    assert doc["hilbert"]["h"] == [1, 3, 2, 2, 2]
    assert doc["blowup"]["c_lambda"] == 84
    assert doc["verdicts"] == []
    assert out.endswith("\n")


def test_analyze_text_agrees_with_json(capsys):
    code, text, _ = run(capsys, "analyze", GENS)
    assert code == 0
    code, raw, _ = run(capsys, "analyze", GENS, "--format", "json")
    doc = loads_document(raw)
    pairs = {
        "c": doc["semigroup"]["c"],
        "delta": doc["semigroup"]["delta"],
        "e": doc["hilbert"]["e"],
        "nu": doc["hilbert"]["nu"],
        "rho": doc["hilbert"]["rho"],
        "c_lambda": doc["blowup"]["c_lambda"],
        "delta_lambda": doc["blowup"]["delta_lambda"],
        "d": doc["blowup"]["d"],
    }
    for key, value in pairs.items():
        match = re.search(rf"\b{key} = (-?\d+)", text)
        assert match, key
        assert int(match.group(1)) == value, key
    # enumerate: one line per row, in order, then the total
    code, text, _ = run(capsys, "enumerate", "--max-genus", "4")
    assert code == 0
    code, raw, _ = run(capsys, "enumerate", "--max-genus", "4", "--format", "json")
    rows = loads_document(raw)["semigroups"]
    *lines, total = text.splitlines()
    assert total == f"total = {len(rows)}"
    assert [tuple(map(int, re.match(r"g=(\d+)  c=(\d+)  e=(\d+)  ", line).groups()))
            for line in lines] == [(r["genus"], r["c"], r["e"]) for r in rows]
    # examples: one line per check, then the fixture counts
    code, text, _ = run(capsys, "examples")
    assert code == 0
    code, raw, _ = run(capsys, "examples", "--format", "json")
    doc = loads_document(raw)
    *lines, passed = text.splitlines()
    assert len(lines) == len(doc["checks"])
    assert passed == f"{doc['fixtures_passed']}/{doc['fixtures_total']} fixtures pass"


def test_analyze_runs_requested_statements(capsys):
    code, out, _ = run(capsys, "analyze", GENS, "--format", "json",
                       "--statements", "Thm4.7,Cor6.10")
    assert code == 0
    doc = loads_document(out)
    ids = [v["statement_id"] for v in doc["verdicts"]]
    assert ids == ["Thm4.7.1", "Thm4.7.2", "Cor6.10"]
    assert all(v["holds"] for v in doc["verdicts"])


def test_examples_replay_cleanly(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert out.rstrip().endswith("10/10 fixtures pass")


def test_examples_catch_a_broken_check(capsys, monkeypatch):
    monkeypatch.setitem(fixtures.CHECKS, "conductor", lambda a: -1)
    code, out, _ = run(capsys, "examples")
    assert code == 3
    assert "FAIL" in out


def test_examples_text_names_each_failed_check(capsys, monkeypatch):
    monkeypatch.setitem(fixtures.CHECKS, "conductor", lambda a: -1)
    code, out, _ = run(capsys, "examples")
    assert code == 3
    assert [line for line in out.splitlines() if not line.startswith("ok ")] == [
        "FAIL f01 ideal(10,12)    conductor                    expected=20 actual=-1",
        "FAIL f08 m               conductor                    expected=124 actual=-1",
        "FAIL f10 m               conductor                    expected=28 actual=-1",
        "7/10 fixtures pass",
    ]


def _plant_failed_cor6_10(monkeypatch, target=None):
    """Cor6.10 fails with lhs=3 and rhs=4 where its hypothesis holds, on every
    pair or over target alone."""
    honest = STATEMENTS["Cor6.10"]
    monkeypatch.setitem(STATEMENTS, "Cor6.10", dataclasses.replace(
        honest, conclusion=lambda a: (False, 3, 4) if target in (None, a.s)
        else honest.conclusion(a)))


def test_analyze_text_marks_a_failed_verdict(capsys, monkeypatch):
    _plant_failed_cor6_10(monkeypatch)
    code, out, _ = run(capsys, "analyze", "<3,4>", "--statements", "Thm4.7.1,Cor6.10")
    assert code == 3
    assert out.splitlines()[-2:] == ["verdict  Thm4.7.1     ok",
                                     "verdict  Cor6.10      FAIL  lhs=3 rhs=4"]


def test_verify_text_lists_a_failed_verdict_on_its_pair(capsys, monkeypatch):
    _plant_failed_cor6_10(monkeypatch, NumericalSemigroup.from_generators([3, 4]))
    code, out, _ = run(capsys, "verify", "--max-genus", "3", "--jobs", "1",
                       "--statements", "Cor6.10")
    assert code == 3
    assert out.splitlines() == [
        "universe  genus <= 3  strategy = maximal  seed = 0",
        "semigroups = 8  pairs = 7  degenerate = 0",
        "checked = 7  held = 3  vacuous = 3  failed = 1",
        "FAIL Cor6.10  S = {0,3,4,6->}  I = m  lhs=3 rhs=4",
    ]


def test_verify_exit_codes_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-genus", "0")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--max-genus", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["totals"]["failed"] == 0
    assert doc["totals"]["checked"] == doc["totals"]["pairs"] * 50
    assert doc["failures"] == []
    code, text, _ = run(capsys, "verify", "--max-genus", "3")
    assert code == 0
    assert "failed = 0" in text


def test_failed_statement_is_reported_with_its_witness(capsys, monkeypatch):
    # Prop3.2.1 has no hypothesis, so the planted conclusion fails it on every pair
    monkeypatch.setitem(STATEMENTS, "Prop3.2.1", dataclasses.replace(
        STATEMENTS["Prop3.2.1"], conclusion=lambda a: (False, a.c, -1), notes="planted"))
    code, out, _ = run(capsys, "verify", "--max-genus", "3", "--jobs", "1",
                       "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["failures"]
    assert doc["totals"]["failed"] == doc["totals"]["pairs"] == len(doc["failures"])
    for f in doc["failures"]:
        assert f["statement_id"] == "Prop3.2.1"
        assert f["rhs"] == -1 and isinstance(f["lhs"], int)
        assert f["witness"] == {"lhs": f["lhs"], "rhs": -1}
        assert f["notes"] == "planted"
    code, out, _ = run(capsys, "analyze", "<3,4>", "--statements",
                       "Prop3.2.1", "--format", "json")
    assert code == 3
    [v] = loads_document(out)["verdicts"]
    assert v["statement_id"] == "Prop3.2.1"
    assert v["holds"] is False and v["status"] == "failed"
    assert v["lhs"] == 6 and v["witness"] == {"lhs": 6, "rhs": -1}


def test_enumerate_totals(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-genus", "3")
    assert code == 0
    assert out.rstrip().endswith("total = 8")
    code, out, _ = run(capsys, "enumerate", "--max-genus", "3",
                       "--format", "json")
    rows = json.loads(out)["semigroups"]
    assert len(rows) == 8
    assert {row["genus"] for row in rows} == {0, 1, 2, 3}


def test_grammar_errors_exit_one(capsys):
    code, _, err = run(capsys, "analyze", "<3,4")
    assert code == 1
    assert "position" in err
    code, _, err = run(capsys, "analyze", "<3,4>", "--statements", "Nope")
    assert code == 1
    for argv, message in (
            (("analyze", "{0,3 4->}"), "expected ',' or '->' (at position 5)"),
            (("analyze", "<3,4>", "--ideal", "i(3)"), "expected 'ideal(...)' (at position 0)")):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_statement_lists_drop_empty_items(capsys):
    code, out, err = run(capsys, "analyze", "<3,4>", "--statements", "Thm4.7,",
                         "--format", "json")
    assert code == 0 and err == ""
    assert [v["statement_id"] for v in loads_document(out)["verdicts"]] \
        == ["Thm4.7.1", "Thm4.7.2"]
    code, out, err = run(capsys, "analyze", "<3,4>", "--statements", ",Thm4.7,,")
    assert code == 0 and err == ""
    assert out.count("\nverdict  ") == 2
    code, out, err = run(capsys, "verify", "--max-genus", "3", "--statements",
                         "Thm4.7,", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["statement_ids"] == ["Thm4.7.1", "Thm4.7.2"]


def test_statement_lists_ignore_blanks_around_items(capsys):
    code, out, err = run(capsys, "analyze", "<3,4>", "--statements", "Thm4.7, ",
                         "--format", "json")
    assert code == 0 and err == ""
    assert [v["statement_id"] for v in loads_document(out)["verdicts"]] \
        == ["Thm4.7.1", "Thm4.7.2"]
    outs = []
    for ids in ("Thm4.7, Cor6.10", "Thm4.7,Cor6.10", " Thm4.7 ,\tCor6.10 "):
        code, out, err = run(capsys, "verify", "--max-genus", "2",
                             "--statements", ids, "--format", "json")
        assert code == 0 and err == ""
        outs.append(out)
    assert json.loads(outs[0])["config"]["statements"] == ["Thm4.7", "Cor6.10"]
    assert outs[0] == outs[1] == outs[2]


def test_negative_sample_size_is_a_domain_error(capsys):
    code, out, err = run(capsys, "verify", "--max-genus", "3", "--ideals",
                         "random", "--sample-size", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "-1" in err
    code, out, err = run(capsys, "verify", "--max-genus", "3", "--ideals",
                         "random", "--sample-size", "0", "--format", "json")
    assert code == 0 and err == ""
    totals = json.loads(out)["totals"]
    assert totals["semigroups"] == 8 and totals["pairs"] == 0


def test_a_bound_offset_that_empties_the_universe_is_a_domain_error(capsys):
    argv = ("verify", "--max-genus", "3", "--bound-offset", "-100")
    message = ("error: SgblowError: bound offset -100 leaves no ideal to walk"
               " up to genus 3\n")
    for strategy in ("all", "random"):
        assert run(capsys, *argv, "--ideals", strategy) == (2, "", message)
    # an offset that still leaves <2,3> its ideal (2, 3) runs
    code, out, err = run(capsys, "verify", "--max-genus", "3", "--ideals", "all",
                         "--bound-offset", "-1", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["totals"]["pairs"] > 0


def test_domain_errors_exit_two(capsys):
    code, _, err = run(capsys, "analyze", "<4,6>")
    assert code == 2
    assert "NotCofinite" in err
    code, _, err = run(capsys, "analyze", "<1>")
    assert code == 2  # no proper maximal ideal to analyze
    # input checks, the pair's included, stay domain errors: a pair they
    # reject is never built
    for argv, message in (
            (("analyze", "<0,3>"), "EmptyGenerators: generators must be positive, got 0"),
            (("analyze", "{0,5,3->}"), "NotCofinite: member 5 lies beyond the tail start 3"),
            (("analyze", "<3,4>", "--ideal", "ideal(3)"),
             "PrincipalIdeal: ideal generated by 3 alone is principal"),
            (("analyze", "<3,4>", "--ideal", "ideal(0,3)"),
             "NotProper: blow-up analysis wants an ideal inside the maximal ideal"),
            # a window past what a shift can address, not an OverflowError
            (("analyze", "<99999999999999999999999999,2>"),
             "WindowTooLarge: the generators' window 2 * 99999999999999999999999999"
             " spans 199999999999999999999999998 bits, too many to represent"),
            (("analyze", "{0,99999999999999999999999999->}"),
             "WindowTooLarge: the window below the tail start 99999999999999999999999999"
             " spans 99999999999999999999999999 bits, too many to represent"),
            (("analyze", "<2,3>", "--ideal", "ideal(2,99999999999999999999999999)"),
             "WindowTooLarge: the ideal's window from 2 to 100000000000000000000000001"
             " spans 99999999999999999999999999 bits, too many to represent"),
            # a window a shift can address but no memory can hold, not a MemoryError
            (("analyze", "<4,999999999999999999>"),
             "WindowTooLarge: the generators' window 4 * 999999999999999999"
             " spans 3999999999999999996 bits, too many to represent"),
            (("analyze", "{0,999999999999999999->}"),
             "WindowTooLarge: the window below the tail start 999999999999999999"
             " spans 999999999999999999 bits, too many to represent"),
            (("analyze", "<3,5>", "--ideal", "ideal(3,999999999999999999)"),
             "WindowTooLarge: the ideal's window from 3 to 1000000000000000007"
             " spans 1000000000000000004 bits, too many to represent")):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_a_huge_bound_offset_is_a_domain_error(capsys):
    # the first semigroup, N, has default bound 2
    message = ("error: WindowTooLarge: the window of ideal generators up to "
               "100000000000000000002 spans 100000000000000000003 bits, too many to represent\n")
    argv = ["verify", "--max-genus", "1", "--bound-offset", str(10 ** 20)]
    for strategy in ("all", "random"):
        assert run(capsys, *argv, "--ideals", strategy) == (2, "", message)
    # a worker's error crosses the pool pickled and is rebuilt in the parent; a
    # separate process, so that a result the parent cannot rebuild fails on the
    # timeout instead of hanging the suite
    assert run_module(*argv, "--ideals", "all", "--jobs", "2") == (2, "", message)


def test_errors_survive_a_pickle_round_trip():
    for exc in (WindowTooLarge(5, "a window"), NotClosed(2, 3), NotNested(4),
                GrammarError("bad token", 7), InvariantViolation("a bug")):
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), back.args, vars(back)) == (type(exc), exc.args, vars(exc))


def test_negative_jobs_is_a_domain_error(capsys):
    assert run(capsys, "verify", "--max-genus", "3", "--jobs", "-1") \
        == (2, "", "error: SgblowError: jobs must be >= 0, got -1\n")


@pytest.mark.parametrize("verb", ["verify", "enumerate"])
def test_negative_max_genus_is_a_domain_error(capsys, verb):
    for fmt in ("text", "json"):
        assert run(capsys, verb, "--max-genus", "-1", "--format", fmt) \
            == (2, "", "error: SgblowError: max genus must be >= 0, got -1\n")
    # genus 0 is the universe {N}
    code, out, err = run(capsys, verb, "--max-genus", "0", "--format", "json")
    assert code == 0 and err == ""


# one argv per verb, each run in both formats
VERBS = [("analyze", GENS), ("verify", "--max-genus", "3"),
         ("enumerate", "--max-genus", "3"), ("examples",)]


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report"
    for argv in VERBS:
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, *argv, "--format", fmt)
            code2, out2, _ = run(capsys, *argv, "--format", fmt, "--out", str(target))
            assert code == code2 == 0, (argv, fmt)
            assert out2 == "", (argv, fmt)
            assert target.read_text() == out, (argv, fmt)
    # a path that cannot be opened is a domain error that names it
    for path, reason in ((tmp_path, "Is a directory"),
                         (tmp_path / "missing" / "report.json", "No such file or directory")):
        assert run(capsys, "analyze", GENS, "--out", str(path)) \
            == (2, "", f"error: SgblowError: cannot write --out {path}: {reason}\n")


def test_the_retired_jobs_variable_changes_nothing(capsys, monkeypatch):
    plain = run(capsys, "verify", "--max-genus", "2", "--format", "json")
    monkeypatch.setenv("SGBLOW_JOBS", "two")
    assert plain[0] == 0
    assert run(capsys, "verify", "--max-genus", "2", "--format", "json") == plain


def plant(monkeypatch, error, genus):
    """Make the pair cross-check raise `error` on every semigroup of a genus."""
    original = Analysis.cross_check

    def planted(self):
        if self.s.genus == genus:
            raise error("planted")
        original(self)

    monkeypatch.setattr(Analysis, "cross_check", planted)


def test_internal_check_failure_is_recorded_on_its_pair(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--max-genus", "3", "--jobs", "1",
                       "--format", "json")
    clean = json.loads(out)["totals"]
    plant(monkeypatch, InvariantViolation, 2)
    code, out, _ = run(capsys, "verify", "--max-genus", "3", "--jobs", "1",
                       "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["failures"] == [
        {"semigroup": text, "ideal": "m", "statement_id": "InvariantViolation",
         "lhs": None, "rhs": None, "witness": None, "notes": "planted"}
        for text in ("{0,3->}", "{0,2,4->}")]
    # the run went on past the planted pairs
    assert doc["totals"]["failed"] == 2
    assert doc["totals"]["pairs"] == clean["pairs"] - 2
    assert doc["totals"]["checked"] == clean["checked"] - 100


def test_equivalence_violation_is_an_invariant_violation():
    assert issubclass(EquivalenceViolation, InvariantViolation)


def test_internal_check_failure_on_analyze_exits_three(capsys, monkeypatch):
    plant(monkeypatch, EquivalenceViolation, 3)
    code, out, err = run(capsys, "analyze", "<3,4,5>")
    assert code == 0
    code, out, err = run(capsys, "analyze", "<3,4>")
    assert code == 3
    assert out == ""
    assert "EquivalenceViolation: planted" in err


def test_the_module_runs_as_a_script():
    assert run_module("enumerate", "--max-genus", "0") \
        == (0, "g=0  c=0  e=1  mu=1  type=1  gorenstein        <1>  {0->}\ntotal = 1\n", "")
    assert run_module("enumerate", "--max-genus", "-1") \
        == (2, "", "error: SgblowError: max genus must be >= 0, got -1\n")
