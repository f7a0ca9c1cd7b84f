"""Each quantity of the verify path is computed once and shared by its readers.

Every lazy field of a Ring, and the symmetry flag of each h-polynomial, is
computed at most once per instance.  The number of sums, colon quotients
and ValueIdeal._of builds one pass over a fixed universe takes is pinned: a
change that adds a repeated sum, or sends through _of a window known in
closed form, moves the pin, and must say why.
"""

import dataclasses
from collections import Counter
from itertools import groupby

import pytest

from sgblow.blowup import Analysis, HPolynomial
from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.invariants import Ring, ring
from sgblow.statements import CONJUNCTS, STATEMENTS, verify_many

FIELDS = sorted(name for name, field in vars(Ring).items() if hasattr(field, "func"))


@pytest.fixture
def fresh_rings():
    ring.cache_clear()
    yield
    ring.cache_clear()


def _maximal_ideals(max_genus):
    return [s.maximal_ideal() for s in enumerate_semigroups(max_genus)
            if not s.is_natural_numbers]


def _all_ideals(max_genus):
    return [e for s in enumerate_semigroups(max_genus) for e in enumerate_ideals(s)]


def _count_calls(monkeypatch, owner, name, calls):
    field = vars(owner)[name]
    honest = field.func

    def counted(instance):
        # by identity: equal h-polynomials are distinct instances; calls
        # holds each instance, so no id is reused
        calls[id(instance), name, instance] += 1
        return honest(instance)
    monkeypatch.setattr(field, "func", counted)


def test_ring_fields_and_h_symmetry_are_computed_once(fresh_rings, monkeypatch):
    assert {"k", "ts", "ring_class", "m_plus_k", "m_bidual", "maximal_probe"} <= set(FIELDS)
    pairs = _maximal_ideals(6) + _all_ideals(4)
    calls = Counter()
    for name in FIELDS:
        _count_calls(monkeypatch, Ring, name, calls)
    _count_calls(monkeypatch, HPolynomial, "symmetric", calls)
    for e in pairs:
        verify_many(e)
    assert max(calls.values()) == 1
    # the pass reads every field, and on more than one ring
    assert {name for _, name, _ in calls} == set(FIELDS) | {"symmetric"}
    assert len({key for key, name, _ in calls if name == "ts"}) > 1


def _count_rings(monkeypatch):
    """The list of semigroups each Ring built from now on is built for."""
    built = []
    init = Ring.__init__

    def counting_init(self, s):
        built.append(s)
        init(self, s)
    monkeypatch.setattr(Ring, "__init__", counting_init)
    return built


def test_interleaved_semigroups_get_the_verdicts_of_the_grouped_walk(fresh_rings, monkeypatch):
    # ring(s) keeps the ring of one semigroup, so taking the pairs round-robin
    # over the semigroups builds a new ring, with empty records, at every switch
    groups = [list(enumerate_ideals(s)) for s in enumerate_semigroups(4)]
    grouped = [[verify_many(e) for e in group] for group in groups]
    ring.cache_clear()
    built = _count_rings(monkeypatch)
    # round j takes the j-th ideal of every semigroup that has one
    order = [(i, j) for j in range(max(map(len, groups)))
             for i, group in enumerate(groups) if j < len(group)]
    for i, j in order:
        assert verify_many(groups[i][j]) == grouped[i][j], groups[i][j]
    switches = [i for i, _ in groupby(i for i, _ in order)]
    assert len(switches) > len(groups)
    assert built == [groups[i][0].carrier for i in switches]


def test_a_pair_kept_past_a_semigroup_switch_reads_nu_e_reflexive_on_its_own_ring(
        fresh_rings, monkeypatch):
    # nu = 2 for m over <5,21,32,48>, so the read takes nuE's bidual
    kept = Analysis(NumericalSemigroup.from_generators([5, 21, 32, 48]).maximal_ideal())
    assert kept.nu == 2
    s = NumericalSemigroup.from_generators([3, 5, 7])
    current = Analysis(s.maximal_ideal())
    built = _count_rings(monkeypatch)
    kept.power_nu_reflexive
    # the read builds no ring, so the ring at hand is still the current pair's
    assert built == []
    assert ring(s) is current.ring


# (universe, sums, colon quotients, _of builds) of one verify pass with
# fresh rings; enumerate_ideals hands each ideal its minimal generators, so
# no pass sums E + M to find them, and S, M, N, c + N, K and each R_i0 are
# built in closed form, so _of builds only what an operation produced
COUNTS = [
    ("m-genus-8", _maximal_ideals, 8, 1098, 1470, 2878),
    ("all-genus-4", _all_ideals, 4, 476, 585, 1201),
]


@pytest.mark.parametrize("name,pairs,genus,adds,colons,ofs", COUNTS, ids=[c[0] for c in COUNTS])
def test_one_verify_pass_takes_a_pinned_number_of_sums_and_colons(fresh_rings, monkeypatch,
                                                                  name, pairs, genus, adds,
                                                                  colons, ofs):
    ideals = pairs(genus)
    calls = Counter()
    honest_add, honest_colon = ValueIdeal.__add__, ValueIdeal.colon
    honest_of = ValueIdeal._of.__func__

    def add(x, y):
        calls["add"] += 1
        return honest_add(x, y)

    def colon(x, y):
        calls["colon"] += 1
        return honest_colon(x, y)

    def of(cls, *window):
        calls["of"] += 1
        return honest_of(cls, *window)
    monkeypatch.setattr(ValueIdeal, "__add__", add)
    monkeypatch.setattr(ValueIdeal, "colon", colon)
    monkeypatch.setattr(ValueIdeal, "_of", classmethod(of))
    for e in ideals:
        verify_many(e)
    assert (calls["add"], calls["colon"], calls["of"]) == (adds, colons, ofs)


def test_the_maximal_ideal_is_built_without_of(monkeypatch):
    semigroups = list(enumerate_semigroups(8))

    def of(cls, *window):
        raise AssertionError(f"_of{window}")
    monkeypatch.setattr(ValueIdeal, "_of", classmethod(of))
    ideals = [s.maximal_ideal() for s in semigroups]
    assert [m._mingens for m in ideals] == [s.min_generators for s in semigroups]


def test_nu_e_reflexive_is_taken_once_per_translation_class(fresh_rings, monkeypatch):
    # Thm5.9.1, its one reader, is class-level: its verdict, made on the
    # first pair of a class that meets its hypothesis, serves every translate
    calls = Counter()
    field = vars(Analysis)["power_nu_reflexive"]
    honest = field.func

    def counted(a):
        e = a.ideal
        calls[a.s, e.bits, e.frontier - e.min_element] += 1
        return honest(a)
    monkeypatch.setattr(field, "func", counted)
    for e in _all_ideals(5):
        verify_many(e)
    assert max(calls.values()) == 1
    assert sum(calls.values()) == 226


# (universe, pairs, translation classes, blow-up records, conclusion calls
# per level, conjunct evaluations) of one verify pass with fresh rings: each
# Lambda-level verdict is made once per record and each class-level one
# once per class, and each conjunct at most once per pair
TRAFFIC = [
    ("all-genus-5", _all_ideals, 5, 1833, 274, 148,
     {"pair": 23631, "lambda": 1282, "class": 821}, 9840),
    ("m-genus-10", _maximal_ideals, 10, 477, 477, 477,
     {"pair": 9967, "lambda": 3894, "class": 1185}, 6240),
]


@pytest.mark.parametrize("name,pairs,genus,n_pairs,n_classes,n_records,conclusions,conjuncts",
                         TRAFFIC, ids=[t[0] for t in TRAFFIC])
def test_one_verify_pass_makes_a_pinned_number_of_verdicts(fresh_rings, monkeypatch, name, pairs,
                                                           genus, n_pairs, n_classes, n_records,
                                                           conclusions, conjuncts):
    calls = Counter()

    def counted(key, honest):
        def call(a):
            calls[key] += 1
            return honest(a)
        return call
    for sid, st in list(STATEMENTS.items()):
        monkeypatch.setitem(STATEMENTS, sid, dataclasses.replace(
            st, conclusion=counted(st.level, st.conclusion)))
    for conjunct, honest in list(CONJUNCTS.items()):
        monkeypatch.setitem(CONJUNCTS, conjunct, counted("conjunct", honest))
    analyses = [Analysis(e) for e in pairs(genus)]
    for a in analyses:
        verify_many(a)
    # the stores stay alive in analyses, so no id is reused
    classes = {id(a.class_verdicts) for a in analyses}
    records = {id(a.lambda_verdicts) for a in analyses}
    assert (len(analyses), len(classes), len(records)) == (n_pairs, n_classes, n_records)
    assert dict(calls) == {**conclusions, "conjunct": conjuncts}
