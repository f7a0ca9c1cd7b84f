"""The conjunct walk: verify_many and STATEMENTS[sid] make the same verdicts.

verify_many walks the requested ids once per pair.  It reads each named
conjunct of a hypothesis at most once, where the hypotheses read one by one
with "and" would first read it, hands a statement whose hypothesis fails
its one vacuous verdict, and calls every other conclusion directly.
STATEMENTS[sid](a) walks sid alone.  These tests hold the two routes to the
same verdicts, the same vacuous objects and the same first error.
"""

import dataclasses
import json
import random
from collections import Counter

import pytest

from sgblow.blowup import Analysis
from sgblow.cli import main
from sgblow.core import NumericalSemigroup
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.errors import InvariantViolation, SgblowError
from sgblow.invariants import ring
from sgblow.statements import (
    CONJUNCTS,
    STATEMENTS,
    TheoremVerdict,
    _walk,
    catalog_ids,
    expand_statement_ids,
    verify_many,
)


def _universe(max_genus, max_genus_m):
    """Every ideal of genus <= max_genus, then m of each semigroup up to max_genus_m."""
    pairs = [e for s in enumerate_semigroups(max_genus) for e in enumerate_ideals(s)]
    return pairs + [s.maximal_ideal() for s in enumerate_semigroups(max_genus_m)
                    if s.genus > max_genus]


PAIRS = _universe(5, 10)


def _assert_same(got, expected, e):
    assert got == expected, e
    for v, w in zip(got, expected):
        if w.status == "vacuous":
            # the statement's one shared vacuous verdict, on both routes
            assert v is w, (w.statement_id, e)


def _id_lists(rng, count):
    """Seeded id lists: subsets in catalog order, reordered, and with repeats."""
    ids = list(catalog_ids())
    lists = []
    for _ in range(count):
        subset = sorted(rng.sample(ids, rng.randint(1, len(ids))), key=ids.index)
        shuffled = rng.sample(ids, rng.randint(1, len(ids)))
        repeated = rng.choices(ids, k=rng.randint(2, 2 * len(ids)))
        lists += [subset, shuffled, repeated]
    return lists


@pytest.mark.parametrize("temperature", ["cold", "warm"])
def test_verify_many_equals_the_per_statement_route(temperature):
    rng = random.Random(23)
    ring.cache_clear()
    if temperature == "warm":
        for e in PAIRS:
            verify_many(e)
    full = catalog_ids()
    lists = _id_lists(rng, len(PAIRS))
    for e, requested in zip(PAIRS, lists[::3]):
        if temperature == "cold":
            ring.cache_clear()
        a = Analysis.of(e)
        _assert_same(verify_many(e), [STATEMENTS[sid](a) for sid in full], e)
        for ids in (requested, lists[rng.randrange(len(lists))]):
            # verify_many drops repeated ids; the walk itself takes them as given
            resolved = expand_statement_ids(ids)
            _assert_same(verify_many(e, ids), [STATEMENTS[sid](a) for sid in resolved], e)
            _assert_same(_walk(ids, a, {}, {}),
                         [STATEMENTS[sid](a) for sid in ids], e)
    ring.cache_clear()


def test_the_registry_lists_every_statement_in_catalog_order():
    assert tuple(STATEMENTS) == catalog_ids()
    for sid, st in STATEMENTS.items():
        assert st.sid == sid
        assert st.vacuous == TheoremVerdict(sid, False, True, "vacuous")
        assert set(st.requires) <= CONJUNCTS.keys() and len(set(st.requires)) == len(
            st.requires), sid
    # every conjunct is read by some statement
    assert {name for st in STATEMENTS.values() for name in st.requires} == CONJUNCTS.keys()
    # Lambda-level statements read almost Gorenstein and the two conjuncts
    # that read fields of the blow-up record
    assert {name for st in STATEMENTS.values() if st.level == "lambda"
            for name in st.requires} == {"K in Lambda**", "R:Lambda integrally closed",
                                         "almost Gorenstein"}
    # class-level ones read almost Gorenstein and E reflexive, a field of the
    # record of E's translation class
    assert {name for st in STATEMENTS.values() if st.level == "class"
            for name in st.requires} == {"almost Gorenstein", "E reflexive"}


def test_a_hypothesis_is_the_conjunction_of_its_conjuncts():
    seen = {True: 0, False: 0}
    for e in PAIRS[::7]:
        a = Analysis.of(e)
        for sid, st in STATEMENTS.items():
            if not st.requires:
                continue
            met = all(CONJUNCTS[name](a) for name in st.requires)
            assert st(a).hypotheses_met == met, (sid, e)
            seen[met] += 1
    assert seen[True] and seen[False]


def _reaches(a, names, planted):
    """Whether names, read in order with "and" over the honest conjuncts,
    read the planted one."""
    for name in names:
        if name == planted:
            return True
        if not CONJUNCTS[name](a):
            return False
    return False


FAULT_PAIRS = _universe(2, 8)


@pytest.mark.parametrize("planted", sorted(CONJUNCTS))
def test_a_fault_in_a_conjunct_raises_the_same_first_error_on_both_routes(monkeypatch, planted):
    honest = CONJUNCTS[planted]
    ids = catalog_ids()
    reached = raised = 0
    for e in FAULT_PAIRS:
        ring.cache_clear()  # a new record: every Lambda-level statement is walked
        a = Analysis.of(e)
        first = next((sid for sid in ids if _reaches(a, STATEMENTS[sid].requires, planted)), None)
        calls = []

        def counted(a):
            calls.append(planted)
            return honest(a)

        monkeypatch.setitem(CONJUNCTS, planted, counted)
        verify_many(e)
        # read once when the hypotheses read it, and never on a pair where
        # "and" stops before it
        assert len(calls) == (first is not None), e
        reached += first is not None

        def faulty(a):
            raise SgblowError("planted")

        monkeypatch.setitem(CONJUNCTS, planted, faulty)
        ring.cache_clear()
        errors = []
        for route in (lambda: verify_many(e), lambda: [STATEMENTS[sid](a) for sid in ids]):
            try:
                route()
            except InvariantViolation as exc:
                assert type(exc.__cause__) is SgblowError
                errors.append(str(exc))
        if first is None:
            assert errors == [], e
        else:
            assert errors == [f"{first} raised SgblowError: planted"] * 2, e
            raised += 1
        monkeypatch.setitem(CONJUNCTS, planted, honest)
    assert 0 < reached == raised
    # a conjunct that no hypothesis reads first is skipped on some pair
    if all(st.requires[0] != planted for st in STATEMENTS.values() if st.requires):
        assert reached < len(FAULT_PAIRS)
    ring.cache_clear()


def test_a_replaced_record_reaches_every_route(monkeypatch, capsys):
    # m over <3,4,5> is almost Gorenstein and its H is not symmetric: Cor5.4
    # is vacuous as registered, and fails once it requires almost Gorenstein alone
    e = NumericalSemigroup.from_generators([3, 4, 5]).maximal_ideal()
    a = Analysis.of(e)
    assert CONJUNCTS["almost Gorenstein"](a) and not CONJUNCTS["H symmetric"](a)
    assert STATEMENTS["Cor5.4"](a).status == "vacuous"
    monkeypatch.setitem(STATEMENTS, "Cor5.4", dataclasses.replace(
        STATEMENTS["Cor5.4"], requires=("almost Gorenstein",)))
    assert STATEMENTS["Cor5.4"](a).status == "failed"
    assert [v.status for v in verify_many(e, ["Cor5.4"])] == ["failed"]
    assert main(["analyze", "<3,4,5>", "--statements", "Cor5.4", "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert [v["status"] for v in doc["verdicts"]] == ["failed"]

    # a level is read from the record too: Rmk4.5 declared pair-level is
    # neither read from the store nor put into it, on the ring already warmed
    # with the record as registered, and Cor4.6.1 declared Lambda-level is
    ring.cache_clear()
    verify_many(e)
    store = Analysis.of(e).lambda_verdicts
    registered = STATEMENTS["Rmk4.5"]
    assert registered in store and STATEMENTS["Cor4.6.1"] not in store
    monkeypatch.setitem(STATEMENTS, "Rmk4.5", dataclasses.replace(registered, level="pair"))
    monkeypatch.setitem(STATEMENTS, "Cor4.6.1",
                        dataclasses.replace(STATEMENTS["Cor4.6.1"], level="lambda"))
    verify_many(e)
    assert STATEMENTS["Rmk4.5"] not in store and STATEMENTS["Cor4.6.1"] in store
    ring.cache_clear()


def test_a_replaced_record_takes_effect_on_a_warm_ring(monkeypatch):
    # the verdict store is keyed by the record, not its id: a replacement
    # misses the stored verdict, and the original finds it again
    e = NumericalSemigroup.from_generators([3, 4, 5]).maximal_ideal()
    ring.cache_clear()
    [held] = verify_many(e, ["Cor5.2"])
    assert held.status == "held"
    registered = STATEMENTS["Cor5.2"]
    monkeypatch.setitem(STATEMENTS, "Cor5.2",
                        dataclasses.replace(registered, conclusion=lambda a: (False, 1, 2)))
    [failed] = verify_many(e, ["Cor5.2"])
    assert failed.status == "failed" and (failed.lhs, failed.rhs) == (1, 2)
    assert verify_many(e, ["Cor5.2"]) == [failed] == [STATEMENTS["Cor5.2"](Analysis(e))]
    monkeypatch.setitem(STATEMENTS, "Cor5.2", registered)
    assert verify_many(e, ["Cor5.2"])[0] is held
    ring.cache_clear()


def test_analyze_walks_the_catalog_once(monkeypatch, capsys):
    reads = Counter()
    for name, fn in list(CONJUNCTS.items()):
        monkeypatch.setitem(CONJUNCTS, name,
                            lambda a, name=name, fn=fn: reads.update([name]) or fn(a))
    ids = catalog_ids()
    ring.cache_clear()
    main(["analyze", "<10,23,55,58,82>", "--statements", ",".join(ids), "--format", "json"])
    assert len(json.loads(capsys.readouterr().out)["verdicts"]) == len(ids)
    assert reads and max(reads.values()) == 1, reads
    a = Analysis.of(NumericalSemigroup.from_generators([10, 23, 55, 58, 82]).maximal_ideal())
    assert verify_many(a, ids) == [STATEMENTS[sid](a) for sid in ids]
    ring.cache_clear()
