"""The translation records each ring keeps: one per class E - min E.

A translate E + z of E has the same stages, blow-up and E:E, and its
powers, K + E and E** are E's moved by multiples of z.  So every Analysis
reads them from the record of its translation class on the semigroup's
Ring, built whole by the first pair of the class.  A pair that reads a
record, whichever way it is moved, must come out equal to one built with no
record at hand, and a failed check inside a record's build is a bug on
every translate that stores nothing.
"""

import re
from collections import Counter

import pytest

import sgblow.blowup
from sgblow.blowup import Analysis, HPolynomial
from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.errors import InvariantViolation
from sgblow.invariants import bidual, omega_product, ring
from test_blowup_records import _quantities

HONEST_CLOSURE = sgblow.blowup._closure
HONEST_BIDUAL = sgblow.blowup.bidual


def _key(e):
    return e.bits, e.frontier - e.min_element


def _same_as_cold(e, warm):
    ring.cache_clear()
    cold = Analysis(e)
    # power_nu_reflexive is a lazy field of the pair (see blowup's module
    # docstring): read first on both sides, it is in both instance dicts
    return (cold.power_nu_reflexive == warm.power_nu_reflexive
            and _quantities(cold) == _quantities(warm))


def _prepared(record):
    """A record's prepared state: its mapping, report template and
    coefficients, each as it stands now."""
    return dict(record.fixed), dict(record.conditions), record.coefficients


def _unchanged(record, snapshot):
    """The record's prepared state equals snapshot, and its mapping holds
    the very objects it held then."""
    now = _prepared(record)
    return now == snapshot and all(now[0][name] is value for name, value in snapshot[0].items())


def _check_translates(semigroups):
    """Every ideal of each semigroup read warm, through the record of its
    translation class, equals its cold build, and no record's prepared
    state changes from its class's first pair on; returns (pairs, classes)."""
    pairs = classes = 0
    for s in semigroups:
        ideals = list(enumerate_ideals(s))
        ring.cache_clear()
        translates = ring(s).translates
        warm, first = [], {}
        for e in ideals:
            warm.append(Analysis(e))
            first.setdefault(_key(e), _prepared(translates[_key(e)]))
        assert set(translates) == first.keys(), s
        for key, record in translates.items():
            assert _unchanged(record, first[key]), (s, key)
        classes += len(translates)
        for e, a in zip(ideals, warm):
            assert _same_as_cold(e, a), e
        pairs += len(ideals)
    return pairs, classes


@pytest.fixture
def fresh_rings():
    ring.cache_clear()
    yield
    ring.cache_clear()


def _translates_of_m(gens, shifts):
    """M over <gens> and its translates by each z in shifts, all inside M."""
    s = NumericalSemigroup.from_generators(gens)
    m = s.maximal_ideal()
    moved = [ValueIdeal._of(s, m.min_element + z, m.bits, m.frontier + z) for z in shifts]
    assert all(m.contains(f) and not f.is_principal() for f in moved)
    return s, m, moved


def test_reading_a_translation_record_equals_building_it_over_genus_5(fresh_rings):
    pairs, classes = _check_translates(enumerate_semigroups(5))
    assert (pairs, classes) == (1833, 274)


# the calls one translate of m over <gens> makes: shift moves the class's
# powers past E and K + nuE onto the translate and places c_Lambda + nu*e + N;
# _common serves its input check, its Hilbert lengths, A4 and its three
# lengths past cross_check
PAID = {(3, 4): {"shift": 4, "_common": 8}, (3, 5, 7): {"shift": 3, "_common": 7}}


@pytest.mark.parametrize("gens,shifts", [((3, 4), (3, 6)), ((3, 5, 7), (2, 3))])
def test_translates_share_one_record(fresh_rings, monkeypatch, gens, shifts):
    s, m, moved = _translates_of_m(gens, shifts)
    a = Analysis(m)
    calls = Counter()
    for name in ("__add__", "colon", "shift", "_common"):
        honest = getattr(ValueIdeal, name)
        monkeypatch.setattr(ValueIdeal, name, lambda *args, name=name, honest=honest:
                            calls.update([name]) or honest(*args))
    honest_of = ValueIdeal._of.__func__
    monkeypatch.setattr(ValueIdeal, "_of", classmethod(
        lambda cls, *window: calls.update(["_of"]) or honest_of(cls, *window)))
    translates = []
    for f in moved:
        calls.clear()
        translates.append(Analysis(f))
        # a translate takes no sum, no colon quotient and no _of build of
        # its own: it pays only for what a translation moves
        assert calls == PAID[gens], f
    monkeypatch.undo()
    record = ring(s).translates[_key(m)]
    assert list(ring(s).translates) == [_key(m)] and record.base == m.min_element
    for z, b in zip(shifts, translates):
        assert b.lam is a.lam is record.fixed["lam"]
        assert b.ideal_colon is a.ideal_colon is record.fixed["ideal_colon"]
        assert b.nu == a.nu and b.rho == a.rho
        assert b.powers == [a.powers[0]] + [p.shift(k * z) for k, p in enumerate(a.powers[1:], 1)]
        assert b.hilbert == tuple(h + z for h in a.hilbert)
        # the rule the class record relies on: K + E and E** move with E
        assert omega_product(b.ideal) == omega_product(a.ideal).shift(z)
        assert bidual(b.ideal) == bidual(a.ideal).shift(z)
        assert b.power_nu_reflexive == a.power_nu_reflexive
        assert _same_as_cold(b.ideal, b)


def test_a_translate_holds_its_own_copy_of_the_class_state(fresh_rings):
    s, m, moved = _translates_of_m((3, 5, 7), (2, 3))
    first = Analysis(m)
    record = ring(s).translates[_key(m)]
    snapshot = _prepared(record)
    pairs = [first, *(Analysis(f) for f in moved), Analysis(m)]
    # reading the class leaves its prepared state as the first pair left it
    assert _unchanged(record, snapshot)
    for i, a in enumerate(pairs):
        # a pair's instance dict and report are its own, not the record's
        assert vars(a) is not record.fixed and vars(a.conditions) is not record.conditions
        for b in pairs[i + 1:]:
            assert vars(a) is not vars(b) and vars(a.conditions) is not vars(b.conditions)
    # an attribute set on one translate, or on its report, shows on no
    # sibling, no later translate and not on the record
    planted = pairs[1]
    planted.nu = planted.c = "planted"
    vars(planted.conditions)["a5"] = "planted"
    later = Analysis(moved[1])
    for a in [first, *pairs[2:], later]:
        assert (a.nu, a.c) == (record.fixed["nu"], s.conductor)
        assert a.conditions.a5 == record.conditions["a5"] != "planted"
    assert _unchanged(record, snapshot)
    assert _same_as_cold(later.ideal, later)


def test_the_h_polynomial_of_every_pair_is_the_public_constructors_over_genus_5(fresh_rings):
    # a pair builds h from its class's coefficients past h_0; the first pass
    # meets each class cold once and reads it warm after, the second reads
    # every pair warm
    pairs = 0
    for s in enumerate_semigroups(5):
        ideals = list(enumerate_ideals(s))
        ring.cache_clear()
        for a in [Analysis(e) for e in ideals] + [Analysis(e) for e in ideals]:
            h = HPolynomial.of(a)
            assert (h, h.symmetric) == (a.h, a.h.symmetric), a.ideal
            pairs += 1
    assert pairs == 2 * 1833


@pytest.mark.parametrize("gens,shifts", [((3, 4), (3, 6)), ((3, 5, 7), (2, 3))])
def test_a_translate_below_the_first_pair_equals_its_cold_build(fresh_rings, gens, shifts):
    s, m, moved = _translates_of_m(gens, shifts)
    # the highest translate comes first, so every later pair moves down
    first, *rest = [*moved[::-1], m]
    warm = [Analysis(e) for e in [first, *rest]]
    assert ring(s).translates[_key(m)].base == first.min_element
    for e, a in zip(rest, warm[1:]):
        assert e.min_element < first.min_element
        assert _same_as_cold(e, a), e


def _routes_disagree(monkeypatch, s):
    # the generated route returns S itself, before Lambda's record is looked up
    def closure(seed, width, gens):
        return seed if seed == s.bits else HONEST_CLOSURE(seed, width, gens)
    monkeypatch.setattr(sgblow.blowup, "_closure", closure)
    return "blow-up routes disagree", 0


def _bidual_fails(monkeypatch, s):
    # E** is the last thing the build takes, after Lambda's record is stored
    def bidual(e):
        if e.carrier == s:
            raise InvariantViolation("planted fault")
        return HONEST_BIDUAL(e)
    monkeypatch.setattr(sgblow.blowup, "bidual", bidual)
    return "planted fault", 1


@pytest.mark.parametrize("plant", [_routes_disagree, _bidual_fails])
def test_a_fault_in_a_class_build_raises_on_every_translate_and_stores_nothing(
        fresh_rings, monkeypatch, plant):
    # ideal(6,7) over <3,4> is not M, so its build takes E** itself
    s = NumericalSemigroup.from_generators([3, 4])
    e = ValueIdeal.generated_by(s, [6, 7])
    moved = [e, e.shift(3), e, e.shift(4)]
    message, lambdas = plant(monkeypatch, s)
    for f in moved:
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            Analysis(f)
    assert ring(s).translates == {}
    assert len(ring(s).blowups) == lambdas
    monkeypatch.undo()
    for f in moved:
        assert _same_as_cold(f, Analysis(f))
    ring.cache_clear()
    for f in moved:
        Analysis(f)
    assert list(ring(s).translates) == [_key(e)]


# (n, how the translate's H(n) is misread given its multiplicity, what H
# reads then); m over <3,4> has H = (1, 2, 3), so m + 3 has H = (4, 5, 6)
HILBERT_FAULTS = [
    (0, lambda e, h: e + 1, (7, 5, 6)),
    (1, lambda e, h: e, (4, 6, 6)),
    (2, lambda e, h: h - 1, (4, 5, 5)),
]


@pytest.mark.parametrize("n,misread,misread_h", HILBERT_FAULTS,
                         ids=["exceeds", "early", "never"])
def test_a_translate_takes_and_checks_its_own_hilbert_function(fresh_rings, monkeypatch,
                                                               n, misread, misread_h):
    s, m, (f,) = _translates_of_m((3, 4), (3,))
    a = Analysis(m)
    # H(n) of f is the length of f's nE over its (n+1)E, m's moved by 3(n+1)
    target = a.powers[n + 1].shift(3 * (n + 1))
    honest = sgblow.blowup.length_between

    def length(x, y):
        h = honest(x, y)
        return misread(f.min_element, h) if y == target else h
    monkeypatch.setattr(sgblow.blowup, "length_between", length)
    message = f"Hilbert function of a translate is {misread_h}, expected (4, 5, 6)"
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        Analysis(f)
    # the check is the pair's own: the record of the class stays
    assert list(ring(s).translates) == [_key(m)]
    monkeypatch.undo()
    assert _same_as_cold(f, Analysis(f))
