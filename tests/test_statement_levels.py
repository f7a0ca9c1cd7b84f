"""Statement levels, and the verdicts shared per blow-up record and per
translation class.

A statement registered with level="lambda" reads only what is one per
(S, Lambda): the blow-up record's quantities, rho, r, the ring and the
notation of S.  One registered with level="class" reads only those and
what E's translation class fixes: E:E, whether E is
reflexive, whether K + E = E**, whether nuE is reflexive, and nu.  The
views of both levels are tests/read_sets.py's, which
tests/test_read_sets.py also derives each level from; here each shared
statement runs on a view and must give the verdict it gives on the pair.
verify_many makes each such verdict once per record and hands it to every
later pair with that Lambda, or every later translate of E;
STATEMENTS[sid](a) itself always evaluates afresh.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from sgblow.blowup import Analysis, ConditionsReport
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.errors import InvariantViolation, SgblowError
from sgblow.fixtures import FIXTURES
from sgblow.invariants import ring
from sgblow.parsing import parse_ideal, parse_semigroup
from sgblow.statements import CONJUNCTS, STATEMENTS, catalog_ids, verify_many

from read_sets import VIEWS
from test_blowup import IDEAL_ZOO, pair
from test_blowup_records import _key, _pairs_sharing_a_blowup
from test_translation_records import _translates_of_m

LAMBDA_IDS = ("Prop4.2", "Prop4.3.1", "Prop4.3.2", "Prop4.3.3", "Prop4.3.4",
              "Thm4.4.1", "Thm4.4.2", "Rmk4.5", "Cor5.2")
CLASS_IDS = ("Prop5.1", "Rmk5.8", "Thm5.9.1", "Thm5.9.2")


def _zoo_and_fixture_pairs():
    pairs = [pair(gens, ideal_gens)[1] for gens, ideal_gens in IDEAL_ZOO]
    for f in FIXTURES:
        s = parse_semigroup(f.semigroup)
        pairs += [parse_ideal(case.ideal, s) for case in f.cases]
    return pairs


def _check_level_reads(level, pairs):
    """Each statement whose record has the level, run on a view that has
    only the attributes of that level, gives the verdict it gives on the pair."""
    ids = [sid for sid in catalog_ids() if STATEMENTS[sid].level == level]
    assert ids
    for e in pairs:
        a = Analysis.of(e)
        view = SimpleNamespace(**{name: getattr(a, name) for name in VIEWS[level]})
        for sid in ids:
            assert STATEMENTS[sid](view) == STATEMENTS[sid](a), (sid, e)


def _check_lambda_level_reads():
    _check_level_reads("lambda", _zoo_and_fixture_pairs())


def _check_class_level_reads():
    _check_level_reads("class", _zoo_and_fixture_pairs() + [
        e for s in enumerate_semigroups(5) for e in enumerate_ideals(s)])


def test_the_registry_lists_each_statement_with_its_hypothesis_and_level():
    for sid, st in STATEMENTS.items():
        assert st.sid == sid
    assert tuple(sid for sid, st in STATEMENTS.items() if st.level == "lambda") == LAMBDA_IDS
    assert tuple(sid for sid, st in STATEMENTS.items() if st.level == "class") == CLASS_IDS
    assert {st.level for st in STATEMENTS.values()} == {"pair", "lambda", "class"}
    assert STATEMENTS["Prop3.2.1"].requires == () and STATEMENTS["Prop4.3.2"].requires != ()
    # a verdict is vacuous exactly when its registered hypothesis fails
    for e in _zoo_and_fixture_pairs():
        a = Analysis.of(e)
        for sid, st in STATEMENTS.items():
            met = all(CONJUNCTS[name](a) for name in st.requires)
            assert st(a).hypotheses_met == met, (sid, e)


def test_lambda_level_record_fields_are_the_record(monkeypatch):
    # the names a pair assigns itself, one by one; the class's prepared
    # mapping, which holds the blow-up record's fields, arrives as one copy
    # assigned to __dict__, ahead of every other store
    own = []

    def setattr_(self, name, value):
        own.append(name)
        object.__setattr__(self, name, value)
    monkeypatch.setattr(Analysis, "__setattr__", setattr_)
    # A4-A6 involve the powers of E, so the class or the pair evaluates them
    pair_conditions = {"a4", "a5", "a6"}
    report_fields = {f.name for f in dataclasses.fields(ConditionsReport)}
    for e in _zoo_and_fixture_pairs():
        own.clear()
        a = Analysis.of(e)
        fields, conditions = a.ring.blowups[_key(a)]
        fixed = a.ring.translates[e.bits, e.frontier - e.min_element].fixed
        for name, value in fields.items():
            assert getattr(a, name) is fixed[name] is value, (name, e)
        for name, value in conditions.items():
            assert getattr(a.conditions, name) == value, (name, e)
        assert own[0] == "__dict__" and "__dict__" not in own[1:], e
        # no mapping key is also set by the pair, which would clobber the
        # class's value or be clobbered by it without a word
        assert not set(own) & fixed.keys(), e
        assert set(own[1:]) | fixed.keys() == vars(a).keys(), e
        # past the record's fields the mapping holds only what the views of
        # the shared levels read, and the class's verdict store
        assert fixed.keys() - fields.keys() <= set(VIEWS["class"]) | {"class_verdicts"}, e
        assert not pair_conditions & conditions.keys()
        assert pair_conditions | conditions.keys() == report_fields


def test_lambda_level_statements_read_only_lambda_level_quantities():
    _check_lambda_level_reads()


def test_class_level_statements_read_only_class_level_quantities():
    _check_class_level_reads()


def test_a_pair_level_statement_declared_lambda_level_fails_loudly(monkeypatch):
    # Prop2.9 reads the condition groups, whose A4-A6 involve the powers of E
    monkeypatch.setitem(STATEMENTS, "Prop2.9",
                        dataclasses.replace(STATEMENTS["Prop2.9"], level="lambda"))
    with pytest.raises(AttributeError, match="conditions"):
        _check_lambda_level_reads()


@pytest.mark.parametrize("sid,read", [
    ("Prop2.9", "conditions"), ("Prop3.2.2", "power_nu"), ("Prop3.5.1", "e"),
    ("Thm4.7.1", "e"), ("Thm5.3.1", "e")])
def test_a_pair_level_statement_declared_class_level_fails_loudly(monkeypatch, sid, read):
    # each reads A4, e or nuE, which a translation changes; their verdicts are
    # the same across a class only because they hold
    monkeypatch.setitem(STATEMENTS, sid, dataclasses.replace(STATEMENTS[sid], level="class"))
    with pytest.raises(AttributeError, match=f"attribute '{read}'$"):
        _check_class_level_reads()


def test_shared_verdicts_equal_fresh_ones_over_genus_5():
    pairs = [e for s in enumerate_semigroups(5) for e in enumerate_ideals(s)]
    ring.cache_clear()
    warm = [verify_many(e) for e in pairs]
    shared, classes = {}, {}
    for e, verdicts in zip(pairs, warm):
        a = Analysis.of(e)
        first = shared.setdefault((a.s, a.lam), verdicts)
        first_translate = classes.setdefault(
            (a.s, e.bits, e.frontier - e.min_element), verdicts)
        for sid, v, w, t in zip(catalog_ids(), verdicts, first, first_translate):
            # a later pair with the same Lambda was handed the first one's
            # verdict, and a later translate the first translate's
            if STATEMENTS[sid].level == "lambda":
                assert v is w, (sid, e)
            if STATEMENTS[sid].level == "class":
                assert v is t, (sid, e)
    assert len(shared) < len(classes) < len(pairs)
    for e, verdicts in zip(pairs, warm):
        # cold: a new record, so every verdict is made for this pair
        ring.cache_clear()
        assert verify_many(e) == verdicts, e


def test_only_the_requested_statements_are_evaluated(monkeypatch):
    s, e, f = _pairs_sharing_a_blowup()
    expected_e = STATEMENTS["Prop4.3.4"](Analysis.of(e))
    expected_f = [STATEMENTS[sid](Analysis.of(f)) for sid in catalog_ids()]
    # verify_many calls no record: it walks each record's conjuncts and
    # conclusion, so those are what the calls are counted on
    concluded, read = [], []
    for sid, st in list(STATEMENTS.items()):
        monkeypatch.setitem(STATEMENTS, sid, dataclasses.replace(
            st, conclusion=lambda a, sid=sid, fn=st.conclusion: concluded.append(sid) or fn(a)))
    for name, fn in list(CONJUNCTS.items()):
        monkeypatch.setitem(CONJUNCTS, name,
                            lambda a, name=name, fn=fn: read.append(name) or fn(a))
    ring.cache_clear()
    assert verify_many(e, ["Prop4.3.4"]) == [expected_e]
    assert expected_e.hypotheses_met
    assert concluded == ["Prop4.3.4"]
    assert read == list(STATEMENTS["Prop4.3.4"].requires)
    # the store is keyed by the record walked, here the counting one
    assert list(Analysis.of(e).lambda_verdicts) == [STATEMENTS["Prop4.3.4"]]
    concluded.clear()
    read.clear()
    full = verify_many(f)
    assert full == expected_f
    # f shares e's Lambda: Prop4.3.4 is read from the store, neither its
    # conjunct nor its conclusion runs again; of the rest, exactly those
    # whose hypotheses hold run their conclusions, and no conjunct is read twice
    assert concluded == [v.statement_id for v in expected_f
                         if v.hypotheses_met and v.statement_id != "Prop4.3.4"]
    assert any(not v.hypotheses_met for v in expected_f)
    assert len(read) == len(set(read))
    assert not set(read) & set(STATEMENTS["Prop4.3.4"].requires)
    assert set(Analysis.of(f).lambda_verdicts) == {STATEMENTS[sid] for sid in LAMBDA_IDS}
    ring.cache_clear()


def test_a_fault_in_a_shared_hypothesis_raises_on_every_pair_and_stores_nothing(monkeypatch):
    s, e, f = _pairs_sharing_a_blowup()
    ring.cache_clear()
    a = Analysis.of(e)
    held = a.k_in_lam_bidual
    assert held == a.ring.r_colon_omega.contains(a.r_colon_lambda)
    # on a cold ring, flip R:omega ⊇ R:Lambda, the form of Prop4.3.2's
    # hypothesis that the blow-up record checks K in Lambda** against
    ring.cache_clear()
    rg = ring(s)
    flipped = rg.conductor_ideal.shift(s.conductor) if held else rg.normalization
    monkeypatch.setattr(rg, "r_colon_omega", flipped)
    assert flipped.contains(a.r_colon_lambda) != held
    for ideal in (e, f, e):
        with pytest.raises(InvariantViolation, match="two hypothesis forms"):
            Analysis(ideal)
        # the record is not cached, so no verdict is stored and the next
        # pair with this Lambda builds it again
        assert rg.blowups == {}
    monkeypatch.undo()
    [v] = verify_many(f, ["Prop4.3.2"])
    assert Analysis.of(f).lambda_verdicts == {STATEMENTS["Prop4.3.2"]: v}
    assert verify_many(e, ["Prop4.3.2"])[0] is v
    ring.cache_clear()


@pytest.fixture
def translates_of_m():
    """m over <3,5,7> and its translates by 2 and 3, on a cold ring."""
    ring.cache_clear()
    yield _translates_of_m((3, 5, 7), (2, 3))
    ring.cache_clear()


def test_translates_read_the_class_verdicts_with_no_conclusion_call(monkeypatch,
                                                                    translates_of_m):
    s, m, moved = translates_of_m
    expected = [[STATEMENTS[sid](Analysis.of(f)) for sid in catalog_ids()] for f in moved]
    ring.cache_clear()
    # verify_many calls no record, so the calls are counted on the conclusions
    concluded = []
    for sid, st in list(STATEMENTS.items()):
        monkeypatch.setitem(STATEMENTS, sid, dataclasses.replace(
            st, conclusion=lambda a, sid=sid, fn=st.conclusion: concluded.append(sid) or fn(a)))
    first = dict(zip(catalog_ids(), verify_many(m)))
    store = Analysis.of(m).class_verdicts
    assert store == {STATEMENTS[sid]: first[sid] for sid in CLASS_IDS}
    # some class verdict is not vacuous, so sharing it skips a conclusion
    assert set(concluded) & set(CLASS_IDS)
    for f, fresh in zip(moved, expected):
        concluded.clear()
        assert Analysis.of(f).class_verdicts is store
        verdicts = verify_many(f)
        assert verdicts == fresh, f
        # the translate is walked as its own pair, but reads its class's
        # verdicts, and its Lambda's, from the stores, all made on m
        assert concluded and not set(concluded) & {*CLASS_IDS, *LAMBDA_IDS}, f
        for sid, v in zip(catalog_ids(), verdicts):
            if sid in CLASS_IDS:
                assert v is first[sid], (sid, f)


def test_a_replaced_class_record_takes_effect_on_a_warm_class(monkeypatch, translates_of_m):
    s, m, (f, g) = translates_of_m
    [held] = verify_many(m, ["Rmk5.8"])
    assert held.status == "held"
    registered = STATEMENTS["Rmk5.8"]
    assert Analysis.of(f).class_verdicts == {registered: held}
    assert verify_many(f, ["Rmk5.8"])[0] is held
    monkeypatch.setitem(STATEMENTS, "Rmk5.8",
                        dataclasses.replace(registered, conclusion=lambda a: (False, 1, 2)))
    # the replacement misses the stored verdict on the warm class, and the
    # verdict it makes on f is the one g, a translate of f, is handed
    [failed] = verify_many(f, ["Rmk5.8"])
    assert failed.status == "failed" and (failed.lhs, failed.rhs) == (1, 2)
    assert verify_many(g, ["Rmk5.8"])[0] is failed
    assert STATEMENTS["Rmk5.8"](Analysis(g)) == failed
    monkeypatch.setitem(STATEMENTS, "Rmk5.8", registered)
    assert verify_many(g, ["Rmk5.8"])[0] is held


def test_a_class_level_conclusion_that_raises_stores_nothing(monkeypatch, translates_of_m):
    s, m, moved = translates_of_m
    registered = STATEMENTS["Thm5.9.1"]

    def faulty(a):
        raise SgblowError("planted")
    monkeypatch.setitem(STATEMENTS, "Thm5.9.1", dataclasses.replace(registered,
                                                                     conclusion=faulty))
    for e in (m, *moved, m):
        with pytest.raises(InvariantViolation, match="^Thm5.9.1 raised SgblowError: planted$"):
            verify_many(e)
        # the statements walked before it are stored, it is not
        store = Analysis.of(e).class_verdicts
        assert set(store) == {STATEMENTS["Prop5.1"], STATEMENTS["Rmk5.8"]}, e
    monkeypatch.undo()
    [v] = verify_many(moved[0], ["Thm5.9.1"])
    assert v.status == "held" and Analysis.of(m).class_verdicts[registered] is v
    assert verify_many(m, ["Thm5.9.1"])[0] is v
