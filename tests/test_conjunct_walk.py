"""The conjunct walk: verify_many and STATEMENTS[sid] make the same verdicts.

verify_many walks the requested ids once per pair.  It reads each named
conjunct of a hypothesis at most once, where the hypotheses read one by one
with "and" would first read it, hands a statement whose hypothesis fails
its one vacuous verdict, and calls every other conclusion directly.
STATEMENTS[sid](a) walks sid alone.  These tests hold the two routes to the
same verdicts, the same vacuous objects and the same first error.
"""

import random

import pytest

from sgblow.blowup import Analysis
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.errors import InvariantViolation, SgblowError
from sgblow.invariants import ring
from sgblow.statements import (
    CONCLUSIONS,
    CONJUNCTS,
    HYPOTHESES,
    LEVELS,
    NOTES,
    REQUIRES,
    STATEMENTS,
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
            _assert_same(_walk(ids, a, {}),
                         [STATEMENTS[sid](a) for sid in ids], e)
    ring.cache_clear()


def test_the_registry_lists_every_statement_in_catalog_order():
    ids = catalog_ids()
    assert tuple(CONCLUSIONS) == tuple(REQUIRES) == tuple(NOTES) == tuple(HYPOTHESES) == ids
    for sid in ids:
        assert (HYPOTHESES[sid] is None) == (REQUIRES[sid] == ())
        assert set(REQUIRES[sid]) <= CONJUNCTS.keys() and len(set(REQUIRES[sid])) == len(
            REQUIRES[sid]), sid
    # every conjunct is read by some statement
    assert {name for names in REQUIRES.values() for name in names} == CONJUNCTS.keys()
    # Lambda-level statements read almost Gorenstein and the two conjuncts
    # that check a second form of themselves
    assert {name for sid, names in REQUIRES.items() if LEVELS[sid] == "lambda"
            for name in names} == {"K in Lambda**", "R:Lambda integrally closed",
                                   "almost Gorenstein"}


def test_a_hypothesis_is_the_conjunction_of_its_conjuncts():
    seen = {True: 0, False: 0}
    for e in PAIRS[::7]:
        a = Analysis.of(e)
        for sid, hypothesis in HYPOTHESES.items():
            if hypothesis is None:
                continue
            met = hypothesis(a)
            assert met == all(CONJUNCTS[name](a) for name in REQUIRES[sid]), (sid, e)
            assert STATEMENTS[sid](a).hypotheses_met == met, (sid, e)
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
        first = next((sid for sid in ids if _reaches(a, REQUIRES[sid], planted)), None)
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
    if all(names[0] != planted for names in REQUIRES.values() if names):
        assert reached < len(FAULT_PAIRS)
    ring.cache_clear()
