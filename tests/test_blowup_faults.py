"""Each internal check of a pair's construction, shown to fire on a planted fault.

A fault is planted with monkeypatch on one operation Analysis(e) builds the
pair with, and only over one target semigroup.  The check it breaks must
raise its own exception class with its own message when the target's m is
analysed, `sgblow verify` must record that failure on exactly that pair
and exit 3, and `sgblow analyze` must print it as one bug line and exit 3.
A NotNested from a length the construction takes is a bug too: it leaves
the pair as an InvariantViolation that keeps its text.
"""

import dataclasses
import json
import re

import pytest

import sgblow.blowup
from sgblow.blowup import Analysis
from sgblow.cli import main
from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.errors import EquivalenceViolation, InvariantViolation, NotNested
from sgblow.invariants import ring
from sgblow.parsing import parse_semigroup

HONEST_ADD = ValueIdeal.__add__
HONEST_COLON = ValueIdeal.colon
HONEST_SHIFT = ValueIdeal.shift
HONEST_CLOSURE = sgblow.blowup._closure
HONEST_A4 = Analysis._holds_a4
HONEST_LENGTH = sgblow.blowup.length_between
HONEST_INIT = Analysis.__init__
HONEST_BUILD = sgblow.blowup._blowup_record

# m of <3,4> has nu = 2 and m of <3,5,7> has nu = 1; both lie in genus 3
NU_2 = "{0,3,4,6->}"
NU_1 = "{0,3,5->}"


def _routes_disagree(monkeypatch, target):
    # the generated route returns S itself, never the blow-up
    def closure(seed, width, gens):
        return seed if seed == target.bits else HONEST_CLOSURE(seed, width, gens)
    monkeypatch.setattr(sgblow.blowup, "_closure", closure)


def _stages_collapse(monkeypatch, target):
    # every stage nE:nE comes out as N
    def colon(x, y):
        return x.carrier.normalization() if x is y and x.carrier == target else HONEST_COLON(x, y)
    monkeypatch.setattr(ValueIdeal, "colon", colon)


def _blowup_absorbed_at_once(monkeypatch, target):
    # a sum with the true blow-up adds nothing, so E + Lambda = E
    lam = Analysis(target.maximal_ideal()).lam
    ring.cache_clear()

    def add(x, y):
        return x if y == lam else HONEST_ADD(x, y)
    monkeypatch.setattr(ValueIdeal, "__add__", add)


def _shift_overshoots(monkeypatch, target):
    # e + nuE lands one too far
    def shift(x, z):
        return HONEST_SHIFT(x, z + (x.carrier == target))
    monkeypatch.setattr(ValueIdeal, "shift", shift)


def _a4_flipped(monkeypatch, target):
    # one group-A form answers the opposite of the others
    def holds_a4(self, k_nu):
        return HONEST_A4(self, k_nu) != (self.s == target)
    monkeypatch.setattr(Analysis, "_holds_a4", holds_a4)


def _lengths_read(value):
    """A plant under which every length taken over the target reads
    value(e), e the target's multiplicity: the first, H(0), decides."""
    def plant(monkeypatch, target):
        def length(x, y):
            return value(target.multiplicity) if x.carrier == target else HONEST_LENGTH(x, y)
        monkeypatch.setattr(sgblow.blowup, "length_between", length)
    return plant


def _first_hilbert_value_short(monkeypatch, target):
    # H(0) = l(S/m) reads one short: nu stays, rho gains one, and Lambda's
    # record, which takes no length of S over m, stays honest
    s_ideal, m = target.as_ideal(), target.maximal_ideal()

    def length(x, y):
        return HONEST_LENGTH(x, y) - ((x, y) == (s_ideal, m))
    monkeypatch.setattr(sgblow.blowup, "length_between", length)


def _pair_length_not_nested(position):
    """A plant under which, in each build of a pair over the target, the
    position(nu)-th length taken outside the blow-up record raises
    NotNested(0).  In source order those lengths are H(0), ..., H(nu), then
    l(R:Lambda/nuE), l(R/nuE) and l(gamma_R/(nu e + c_Lambda + N))."""
    def plant(monkeypatch, target):
        at = position(Analysis(target.maximal_ideal()).nu)
        ring.cache_clear()
        taken = []

        def length(x, y):
            if x.carrier == target:
                taken.append((x, y))
                if len(taken) == at + 1:
                    raise NotNested(0)
            return HONEST_LENGTH(x, y)

        def init(self, e):
            taken.clear()
            HONEST_INIT(self, e)

        def build(rg, lam):
            with monkeypatch.context() as m:
                m.setattr(sgblow.blowup, "length_between", HONEST_LENGTH)
                return HONEST_BUILD(rg, lam)
        monkeypatch.setattr(sgblow.blowup, "length_between", length)
        monkeypatch.setattr(Analysis, "__init__", init)
        monkeypatch.setattr(sgblow.blowup, "_blowup_record", build)
    return plant


NOT_NESTED = "pair build raised NotNested: not nested: 0 lies in the smaller set but not the larger"


def _incoherent(target):
    honest = Analysis(target.maximal_ideal()).conditions
    ring.cache_clear()
    return f"condition groups do not cohere: {dataclasses.replace(honest, a4=not honest.a4)}"


# (plant, target semigroup, exception class, its message)
FAULTS = [
    (_routes_disagree, NU_2, InvariantViolation, "blow-up routes disagree"),
    (_stages_collapse, NU_2, InvariantViolation, "stages reached the blow-up at 1, expected 2"),
    # with nu = 1 the one stage is the planted Lambda, which no power absorbs
    (_stages_collapse, NU_1, InvariantViolation, "powers absorb the blow-up from None, expected 1"),
    (_blowup_absorbed_at_once, NU_2, InvariantViolation,
     "powers absorb the blow-up from 1, expected 2"),
    (_shift_overshoots, NU_1, InvariantViolation, "(nu+1)E differs from e + nuE"),
    (_a4_flipped, NU_2, EquivalenceViolation, _incoherent),
    (_lengths_read(lambda e: e + 1), NU_2, InvariantViolation,
     "Hilbert value exceeded the multiplicity"),
    (_lengths_read(lambda e: 0), NU_2, InvariantViolation,
     "Hilbert function failed to reach the multiplicity"),
    (_lengths_read(lambda e: e), NU_1, InvariantViolation,
     "reduction exponent 0 would mean a principal ideal"),
    (_first_hilbert_value_short, NU_2, InvariantViolation, "rho disagrees with l(Lambda/R)"),
    (_pair_length_not_nested(lambda nu: 0), NU_2, InvariantViolation, NOT_NESTED),
    (_pair_length_not_nested(lambda nu: nu + 1), NU_2, InvariantViolation, NOT_NESTED),
    (_pair_length_not_nested(lambda nu: nu + 2), NU_2, InvariantViolation, NOT_NESTED),
    (_pair_length_not_nested(lambda nu: nu + 3), NU_2, InvariantViolation, NOT_NESTED),
]
IDS = ["routes-disagree", "stages-reached", "never-absorbed", "absorbed-early",
       "power-not-translate", "groups-incoherent", "hilbert-exceeds", "hilbert-never-reaches",
       "nu-zero", "rho-disagrees", "hilbert-not-nested", "rcolon-over-power-not-nested",
       "r-over-power-not-nested", "conductor-over-power-not-nested"]


@pytest.fixture
def fresh_rings():
    # a planted pair must not leave a record behind, nor an honest one leak into it
    ring.cache_clear()
    yield
    ring.cache_clear()


def _message(message, target):
    return message if isinstance(message, str) else message(target)


@pytest.mark.parametrize("plant,text,error,message", FAULTS, ids=IDS)
def test_a_planted_fault_fires_its_pair_check(fresh_rings, monkeypatch, plant, text, error,
                                              message):
    target = parse_semigroup(text)
    expected = _message(message, target)
    plant(monkeypatch, target)
    with pytest.raises(error, match=f"^{re.escape(expected)}$"):
        Analysis(target.maximal_ideal())
    # the fault is planted over the target alone
    Analysis(NumericalSemigroup.from_generators([4, 5, 6, 7]).maximal_ideal())


@pytest.mark.parametrize("plant,text,error,message", FAULTS, ids=IDS)
def test_verify_records_a_pair_check_on_its_pair(fresh_rings, monkeypatch, capsys, plant, text,
                                                 error, message):
    argv = ["verify", "--max-genus", "3", "--jobs", "1", "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)["totals"]
    target = parse_semigroup(text)
    expected = _message(message, target)
    ring.cache_clear()
    plant(monkeypatch, target)
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [
        {"semigroup": text, "ideal": "m", "statement_id": error.__name__,
         "lhs": None, "rhs": None, "witness": None, "notes": expected}]
    assert doc["totals"]["failed"] == 1
    assert doc["totals"]["pairs"] == clean["pairs"] - 1


@pytest.mark.parametrize("plant,text,error,message", FAULTS, ids=IDS)
def test_analyze_reports_a_pair_check_as_one_bug_line(fresh_rings, monkeypatch, capsys, plant,
                                                      text, error, message):
    target = parse_semigroup(text)
    expected = _message(message, target)
    plant(monkeypatch, target)
    assert main(["analyze", text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal check failed (a bug): {error.__name__}: {expected}\n"
