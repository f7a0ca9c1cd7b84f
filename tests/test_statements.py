"""Statement catalog: expansion, verdict semantics, and a small sweep."""

import hashlib
import json

import pytest

import sgblow.statements
from sgblow.blowup import Analysis, ConditionsReport, analyze
from sgblow.cli import main
from sgblow.core import NumericalSemigroup
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.errors import InvariantViolation, NotIntegral, NotNested, UnknownStatement
from sgblow.invariants import integral_closure, ring
from sgblow.fixtures import FIXTURES, analysis_for
from sgblow.parsing import parse_ideal, parse_semigroup
from sgblow.statements import (
    STATEMENTS,
    TheoremVerdict,
    catalog_ids,
    expand_statement_ids,
    verify_many,
    verify_statement,
)

from test_blowup import IDEAL_ZOO, pair


def test_catalog_is_complete_and_ordered():
    ids = catalog_ids()
    assert len(ids) == 50
    assert ids[0] == "Prop2.9"
    assert ids[-1] == "Cor6.14"
    assert ids == tuple(STATEMENTS)
    assert len(set(ids)) == 50
    for sid in ("Thm4.7.1", "Thm5.3.2", "Cor6.7u", "Lemma6.4.3"):
        assert sid in ids


def test_expansion_rules():
    assert expand_statement_ids(["Thm4.7"]) == ("Thm4.7.1", "Thm4.7.2")
    assert expand_statement_ids(["Cor6.7"]) \
        == ("Cor6.7.1", "Cor6.7.2", "Cor6.7.3", "Cor6.7u")
    assert expand_statement_ids(["Cor6.10"]) == ("Cor6.10",)
    assert expand_statement_ids(["Cor6.10", "Cor6.10"]) == ("Cor6.10",)
    assert expand_statement_ids([]) == ()
    with pytest.raises(UnknownStatement):
        expand_statement_ids(["Thm9.9"])
    with pytest.raises(UnknownStatement):
        verify_statement("Thm9.9",
                         NumericalSemigroup.from_generators([3, 4])
                         .maximal_ideal())


def test_every_statement_holds_on_a_gorenstein_pair():
    m = NumericalSemigroup.from_generators([3, 4]).maximal_ideal()
    verdicts = verify_many(m)
    assert len(verdicts) == 50
    assert [v.statement_id for v in verdicts] == list(catalog_ids())
    for v in verdicts:
        assert isinstance(v, TheoremVerdict)
        assert v.holds
        assert v.status in ("held", "vacuous")
        assert v.status == ("held" if v.hypotheses_met else "vacuous")
        assert v.witness is None


def test_vacuous_statements_report_cleanly():
    m = NumericalSemigroup.from_generators([3, 4]).maximal_ideal()
    v = verify_statement("Cor6.14", m)
    assert not v.hypotheses_met
    assert v.holds and v.status == "vacuous"
    assert v.lhs is None and v.rhs is None and v.witness is None


def test_shared_vacuous_verdicts_equal_fresh_ones():
    seen = 0
    for gens, ideal_gens in IDEAL_ZOO:
        _, e = pair(gens, ideal_gens)
        for v in verify_many(e):
            if v.status != "vacuous":
                continue
            seen += 1
            fresh = TheoremVerdict(v.statement_id, False, True, "vacuous",
                                   None, None, None, v.notes)
            assert v == fresh and hash(v) == hash(fresh)
    assert seen


def test_verdicts_keep_the_record_contract():
    assert TheoremVerdict._fields == (
        "statement_id", "hypotheses_met", "holds", "status",
        "lhs", "rhs", "witness", "notes")
    v = TheoremVerdict(statement_id="X", hypotheses_met=True, holds=False,
                       status="failed")
    assert (v.lhs, v.rhs, v.witness, v.notes) == (None, None, None, "")
    assert v == TheoremVerdict("X", True, False, "failed", None, None, None, "")
    assert repr(TheoremVerdict("X", True, True, "held", lhs=(1, 2), rhs=3)) == (
        "TheoremVerdict(statement_id='X', hypotheses_met=True, holds=True, "
        "status='held', lhs=(1, 2), rhs=3, witness=None, notes='')")
    with pytest.raises(AttributeError):
        v.holds = True
    with pytest.raises(AttributeError):
        v.extra = 1
    seen = 0
    for gens, ideal_gens in IDEAL_ZOO:
        _, e = pair(gens, ideal_gens)
        for v in verify_many(e):
            seen += 1
            assert type(v.hypotheses_met) is bool and type(v.holds) is bool
            fresh = TheoremVerdict(*v)
            assert v == fresh and not v != fresh and hash(v) == hash(fresh)
            plain = tuple(v)
            assert v != plain and plain != v
            assert not v == plain and not plain == v
    assert seen == 50 * len(IDEAL_ZOO)


def test_failed_verdict_carries_its_witness():
    a = Analysis.of(NumericalSemigroup.from_generators([3, 4, 5]).maximal_ideal())
    held = STATEMENTS["Thm4.4.1"](a)
    assert held.holds is True and held.witness is None
    assert held.notes.startswith("upper bound")
    a.d += 1  # breaks rho = sum - l(Lambda**/Lambda) - d, and nothing else
    rhs = held.rhs - 1
    failed = STATEMENTS["Thm4.4.1"](a)
    assert failed == TheoremVerdict("Thm4.4.1", True, False, "failed", held.lhs,
                                    rhs, {"lhs": held.lhs, "rhs": rhs}, held.notes)
    assert failed.holds is False


def test_defect_identity_on_a_positive_defect_case():
    a = analysis_for("f05")
    assert a.d == 2
    v = verify_statement("Thm4.7.1", a.ideal)
    assert v.status == "held"
    assert v.lhs == v.rhs


def test_reflexive_blowup_equivalences_on_a_known_case():
    a = analysis_for("f08")
    v = verify_statement("Thm5.3.2", a.ideal)
    assert v.status == "held"
    assert v.lhs == (True, True, True, True)


def test_verify_many_respects_the_filter():
    m = NumericalSemigroup.from_generators([5, 21, 32, 48]).maximal_ideal()
    picked = ("Thm4.4.1", "Cor5.2", "Prop6.9.2")
    verdicts = verify_many(m, picked)
    assert tuple(v.statement_id for v in verdicts) == picked
    full = {v.statement_id: v for v in verify_many(m)}
    for v in verdicts:
        w = full[v.statement_id]
        assert (v.holds, v.status, v.lhs, v.rhs) \
            == (w.holds, w.status, w.lhs, w.rhs)


def test_verdict_values_are_json_safe():
    m = NumericalSemigroup.from_generators([6, 11, 16, 20, 25]).maximal_ideal()
    ok_types = (bool, int, tuple, str, type(None))
    for v in verify_many(m):
        assert isinstance(v.lhs, ok_types)
        assert isinstance(v.rhs, ok_types)
        assert isinstance(v.notes, str)


def test_no_failures_on_a_small_exhaustive_sweep():
    for s in enumerate_semigroups(4):
        if s.is_natural_numbers:
            continue
        for v in verify_many(s.maximal_ideal()):
            assert v.status in ("held", "vacuous"), \
                f"{v.statement_id} failed on {s.small_elements}"


def test_one_pair_builds_its_conditions_once(monkeypatch):
    built = []
    original = ConditionsReport.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ConditionsReport, "__init__", counting)
    m = NumericalSemigroup.from_generators([10, 23, 55, 58, 82]).maximal_ideal()
    verify_many(m)
    assert len(built) == 1


def test_an_analysis_rebuilt_from_an_analysis_agrees():
    def verdicts(a):
        return [(v.statement_id, v.status, v.lhs, v.rhs)
                for v in (STATEMENTS[sid](a) for sid in catalog_ids())]

    for gens, ideal_gens in IDEAL_ZOO:
        _, e = pair(gens, ideal_gens)
        fresh = Analysis.of(e)
        rebuilt = Analysis(analyze(e))
        assert rebuilt == fresh
        # an analysis is identified by its ideal alone
        assert hash(rebuilt) == hash(fresh) == hash(e)
        assert fresh.__eq__(e) is NotImplemented
        assert verdicts(rebuilt) == verdicts(fresh), (gens, ideal_gens)


def test_every_verdict_record_is_pinned():
    # every field of every verdict, held and failed alike, over every ideal
    # of genus <= 5, m over genus <= 10 and every stored example
    pairs = [e for s in enumerate_semigroups(5) for e in enumerate_ideals(s)]
    pairs += [s.maximal_ideal() for s in enumerate_semigroups(10)
              if not s.is_natural_numbers]
    for f in FIXTURES:
        s = parse_semigroup(f.semigroup)
        pairs += [parse_ideal(case.ideal, s) for case in f.cases]
    records = [repr(tuple(v)) for e in pairs for v in verify_many(e)]
    assert (len(pairs), len(records)) == (2322, 116100)
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() \
        == "0d553cab2cc7fe4f1559638eeb8bd895668a1a856e9dae7f926464ccfb4528a9"


CROSS_CHECK_PAIRS = ([3, 4], [3, 4, 5], [5, 21, 32, 48], [10, 23, 55, 58, 82])


@pytest.mark.parametrize("gens", CROSS_CHECK_PAIRS)
def test_prop4_3_2_requires_its_two_hypothesis_forms_to_agree(gens):
    a = Analysis.of(NumericalSemigroup.from_generators(gens).maximal_ideal())
    STATEMENTS["Prop4.3.2"](a)
    # flip the bidual's side of the hypothesis; R:omega ⊇ R:Lambda is untouched
    held = a.lam_bidual.contains(a.ring.k)
    a.lam_bidual = a.ring.m_ideal if held else a.ring.normalization
    assert a.lam_bidual.contains(a.ring.k) != held
    with pytest.raises(InvariantViolation, match="two hypothesis forms"):
        STATEMENTS["Prop4.3.2"](a)


@pytest.mark.parametrize("gens", CROSS_CHECK_PAIRS)
def test_prop4_3_4_requires_a_closed_colon_to_be_a_value_filter(gens):
    a = Analysis.of(NumericalSemigroup.from_generators(gens).maximal_ideal())
    STATEMENTS["Prop4.3.4"](a)
    # flip the filter's side of the check; the closure test is untouched
    is_filter = a.r_colon_lambda == a.r_filter_i0
    a.r_filter_i0 = a.ring.normalization if is_filter else a.r_colon_lambda
    assert (a.r_colon_lambda == a.r_filter_i0) != is_filter
    with pytest.raises(InvariantViolation, match="full value filter"):
        STATEMENTS["Prop4.3.4"](a)


HONEST_STATEMENT_LENGTH = sgblow.statements.length_between


def _statement_length_not_nested(monkeypatch, target):
    # every length a statement takes over the target raises
    def length(x, y):
        if x.carrier == target:
            raise NotNested(0)
        return HONEST_STATEMENT_LENGTH(x, y)
    monkeypatch.setattr(sgblow.statements, "length_between", length)


def _closure_of_the_normalization(monkeypatch, target):
    # over the target, the integral closure is asked of N, which is not inside S
    def closure(e):
        return integral_closure(e.carrier.normalization() if e.carrier == target else e)
    monkeypatch.setattr(sgblow.statements, "integral_closure", closure)


NOT_NESTED = "not nested: 0 lies in the smaller set but not the larger"
# (plant, statement id, the class it raises inside the verdict, its text);
# m over <3,4> meets the hypotheses of Rmk6.1 and Prop6.5.2
VERDICT_FAULTS = [
    (_statement_length_not_nested, "Rmk6.1", NotNested, NOT_NESTED),
    (_statement_length_not_nested, "Prop6.5.2", NotNested, NOT_NESTED),
    (_closure_of_the_normalization, "Prop4.3.4", NotIntegral,
     "integral closure needs an ideal contained in the semigroup"),
]


@pytest.mark.parametrize("plant,sid,error,text", VERDICT_FAULTS,
                         ids=["rmk6.1-length", "prop6.5.2-length", "prop4.3.4-closure"])
def test_a_domain_error_inside_a_verdict_is_a_bug_on_its_pair(monkeypatch, capsys, plant, sid,
                                                              error, text):
    target = NumericalSemigroup.from_generators([3, 4])
    message = f"{sid} raised {error.__name__}: {text}"
    argv = ["verify", "--max-genus", "3", "--jobs", "1", "--statements", sid, "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)["totals"]
    ring.cache_clear()
    plant(monkeypatch, target)
    a = Analysis.of(target.maximal_ideal())
    with pytest.raises(InvariantViolation) as info:
        STATEMENTS[sid](a)
    assert str(info.value) == message
    assert type(info.value.__cause__) is error
    # verify records it on the one pair and goes on
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [
        {"semigroup": "{0,3,4,6->}", "ideal": "m", "statement_id": "InvariantViolation",
         "lhs": None, "rhs": None, "witness": None, "notes": message}]
    assert doc["totals"]["pairs"] == clean["pairs"] - 1
    # analyze prints one bug line
    assert main(["analyze", "<3,4>", "--statements", sid]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal check failed (a bug): InvariantViolation: {message}\n"
    ring.cache_clear()
