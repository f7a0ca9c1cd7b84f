"""Core set arithmetic against windowed brute-force references."""

import math
import random

import pytest

from sgblow.core import NumericalSemigroup, ValueIdeal, length_between
from sgblow.errors import (
    CarrierMismatch,
    EmptyGenerators,
    NotClosed,
    NotCofinite,
    NotNested,
    WindowTooLarge,
    ZeroMissing,
)

from oracles import (
    closure_from_generators,
    colon,
    gap_length,
    ideal_members,
    minimal_generators_of_ideal,
    semigroup_members,
    sumset,
)

ZOO = [
    (3, 4),
    (3, 5, 7),
    (2, 3),
    (4, 5, 6, 7),
    (5, 21, 32, 48),
    (10, 23, 55, 58, 82),
    (6, 11, 16, 20, 25),
    (8, 10, 13, 15),
    (7, 8, 12, 13, 18),
]


def members_of(s: NumericalSemigroup, hi: int) -> set[int]:
    return {x for x in range(hi) if x in s}


def ideal_set(e: ValueIdeal, lo: int, hi: int) -> set[int]:
    return {x for x in range(lo, hi) if x in e}


@pytest.mark.parametrize("gens", ZOO)
def test_from_generators_matches_closure_oracle(gens):
    s = NumericalSemigroup.from_generators(gens)
    hi = s.conductor + 2 * max(gens) + 5
    assert members_of(s, hi) == closure_from_generators(list(gens), hi)


@pytest.mark.parametrize("gens", ZOO)
def test_small_elements_end_at_conductor(gens):
    s = NumericalSemigroup.from_generators(gens)
    assert s.small_elements[0] == 0
    assert s.small_elements[-1] == s.conductor
    assert list(s.small_elements) == sorted(set(s.small_elements))
    # conductor is minimal: the previous integer is a gap
    assert (s.conductor - 1) not in s
    assert s.genus == s.conductor - (len(s.small_elements) - 1)
    assert len(s.gaps()) == s.genus


def test_explicit_and_generated_agree():
    a = NumericalSemigroup.from_generators([5, 11, 12, 19])
    b = NumericalSemigroup.from_explicit(
        (0, 5, 10, 11, 12, 15, 16, 17), 19)
    assert a == b
    assert a.small_elements == b.small_elements
    assert hash(a) == hash(b)


def test_minimal_generators_are_minimal():
    for gens in ZOO:
        s = NumericalSemigroup.from_generators(gens)
        hi = 3 * (s.conductor + s.multiplicity) + 5
        mem = members_of(s, hi)
        nonzero = {x for x in mem if x > 0}
        expected = minimal_generators_of_ideal(nonzero, nonzero)
        assert set(s.min_generators) == expected
        # redundant generators collapse
        bigger = NumericalSemigroup.from_generators(
            list(gens) + [gens[0] + gens[-1]])
        assert bigger.min_generators == s.min_generators


def test_natural_numbers_edge():
    n = NumericalSemigroup.natural_numbers()
    assert n.conductor == 0
    assert n.genus == 0
    assert n.multiplicity == 1
    assert n.is_natural_numbers
    assert n.frobenius == -1
    assert NumericalSemigroup.from_generators([1]) == n
    assert NumericalSemigroup.from_explicit((), 0) == n


def test_construction_errors():
    with pytest.raises(EmptyGenerators):
        NumericalSemigroup.from_generators([])
    with pytest.raises(NotCofinite):
        NumericalSemigroup.from_generators([4, 6])
    with pytest.raises(ZeroMissing):
        NumericalSemigroup.from_explicit((1, 2), 3)
    with pytest.raises(NotClosed) as err:
        NumericalSemigroup.from_explicit((0, 3), 10)
    assert (err.value.a, err.value.b) == (3, 3)
    # Schur's window gens[0] * gens[-1] is more bits than a shift can address
    huge = 10 ** 26 + 1
    with pytest.raises(WindowTooLarge) as err:
        NumericalSemigroup.from_generators([huge, 2])
    assert err.value.width == 2 * huge
    # so are an explicit set's window below its tail and an ideal's window
    with pytest.raises(WindowTooLarge) as err:
        NumericalSemigroup.from_explicit((0,), huge)
    assert err.value.width == huge
    with pytest.raises(WindowTooLarge) as err:
        NumericalSemigroup.from_explicit((0, 5, huge - 1), huge)
    assert err.value.width == huge
    with pytest.raises(WindowTooLarge) as err:
        ValueIdeal.generated_by(NumericalSemigroup.from_generators([2, 3]), (2, huge))
    assert err.value.width == huge
    # a window of about 10**18 bits fits a shift but no address space: the
    # allocation fails at once, and that too is a window too large
    wide = 10 ** 18 - 1
    with pytest.raises(WindowTooLarge) as err:
        NumericalSemigroup.from_generators([4, wide])
    assert err.value.width == 4 * wide
    with pytest.raises(WindowTooLarge) as err:
        NumericalSemigroup.from_explicit((0,), wide)
    assert err.value.width == wide
    with pytest.raises(WindowTooLarge) as err:
        ValueIdeal.generated_by(NumericalSemigroup.from_generators([3, 5]), (3, wide))
    assert err.value.width == wide + 5
    for build, error, message in (
            (lambda: NumericalSemigroup.from_generators([0, 3]), EmptyGenerators,
             "generators must be positive, got 0"),
            (lambda: NumericalSemigroup.from_explicit((-1, 0), 3), ZeroMissing,
             "members must be natural numbers"),
            (lambda: NumericalSemigroup.from_explicit((0, 5), 3), NotCofinite,
             "member 5 lies beyond the tail start 3"),
            (lambda: ValueIdeal.generated_by(NumericalSemigroup.from_generators([3, 4]), []),
             EmptyGenerators, "an ideal needs at least one generator")):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message


def test_value_ideal_canonical_form():
    s = NumericalSemigroup.from_generators([3, 4])
    # frontier pulls back over trailing members
    e = ValueIdeal(s, [3, 4, 6, 7, 8, 9], 10)
    assert e.frontier == 6
    assert e.members == (3, 4)
    assert e.min_element == 3
    same = ValueIdeal(s, [3, 4], 6)
    assert e == same
    assert hash(e) == hash(same)
    # an ideal is never equal to what is not one
    assert e.__eq__((3, 4)) is NotImplemented
    assert e != (3, 4)


def test_reprs_show_the_canonical_forms():
    s = NumericalSemigroup.from_generators([4, 3])
    assert repr(s) == "NumericalSemigroup(<3,4>)"
    assert repr(s.maximal_ideal()) == "ValueIdeal({3,4,6->})"
    # no member below the frontier
    assert repr(ValueIdeal(s, [], 6)) == "ValueIdeal({6->})"


def test_value_ideal_rejects_non_ideal():
    s = NumericalSemigroup.from_generators([3, 4])
    with pytest.raises(NotClosed):
        ValueIdeal(s, [1], 20)  # 1 + 3 = 4 missing
    with pytest.raises(NotClosed):
        ValueIdeal(s, [0], 100)  # 0 + 3 = 3 missing, frontier far out
    # a bare tail is a legitimate ideal: a translate of the conductor ideal
    tail = ValueIdeal(s, [], 100)
    assert tail.min_element == 100
    assert tail.minimal_generators() == (100, 101, 102)


def test_a_non_ideal_names_a_missing_sum_past_the_small_elements():
    # every sum with a small element of <3,5,7> is a member; 0 + 7 is not
    s = NumericalSemigroup.from_generators([3, 5, 7])
    with pytest.raises(NotClosed) as err:
        ValueIdeal(s, [0, 3, 5, 6], 8)
    assert (err.value.a, err.value.b) == (0, 7)
    assert str(err.value) == "not closed under addition: 0 + 7 = 7 is missing"


def test_every_non_closure_witness_is_a_missing_sum():
    # random sets, and windows of true ideals with one member dropped, whose
    # missing sums often need an s of S past the conductor
    rng = random.Random(18)
    raised = 0
    for case in range(400):
        gens = rng.sample(range(2, 12), 2)
        if math.gcd(*gens) != 1:
            continue
        s = NumericalSemigroup.from_generators(gens)
        in_s = closure_from_generators(gens, 100)
        if case % 2:
            listed = set(rng.sample(range(-6, 24), rng.randint(1, 8)))
            frontier = rng.randint(max(listed) + 1, 30)
        else:
            whole = ValueIdeal.generated_by(s, rng.sample(range(-6, 12), rng.randint(1, 3)))
            frontier = whole.frontier + rng.randint(0, 8)
            listed = set(whole.elements_below(frontier))
            listed.discard(rng.choice(sorted(listed)))

        def in_e(v):
            return v in listed or v >= frontier
        try:
            ValueIdeal(s, listed, frontier)
        except NotClosed as err:
            raised += 1
            x, y = err.a, err.b
            assert in_e(x) and y in in_s and not in_e(x + y), (gens, listed, frontier)
    assert raised > 100


IDEAL_ZOO = [
    ((3, 4), [3, 4]),
    ((3, 4), [6, 7]),
    ((3, 4, 5), [3, 4]),
    ((5, 21, 32, 48), [31, 32, 40]),
    ((10, 23, 55, 58, 82), [10, 23]),
    ((2, 3), [2, 3]),
    ((6, 11, 16, 20, 25), [6, 11, 16, 20, 25]),
    ((8, 10, 13, 15), [8, 10]),
]


def brute_pair(sgens, igens):
    s = NumericalSemigroup.from_generators(sgens)
    hi = 4 * (s.conductor + max(igens) + max(sgens)) + 9
    small = s.small_elements
    return s, ideal_members(small, s.conductor, list(igens), hi), hi


@pytest.mark.parametrize("sgens,igens", IDEAL_ZOO)
def test_generated_by_matches_union_oracle(sgens, igens):
    s, expected, hi = brute_pair(sgens, igens)
    e = ValueIdeal.generated_by(s, igens)
    window = hi // 2
    assert ideal_set(e, 0, window) == {x for x in expected if x < window}


@pytest.mark.parametrize("sgens,igens", IDEAL_ZOO)
def test_sumset_matches_oracle(sgens, igens):
    s, emem, hi = brute_pair(sgens, igens)
    e = ValueIdeal.generated_by(s, igens)
    m = s.maximal_ideal()
    mmem = ideal_members(s.small_elements, s.conductor,
                         list(s.min_generators), hi)
    window = hi // 3
    expected = {x for x in sumset(emem, mmem, hi) if x < window}
    assert ideal_set(e + m, 0, window) == expected


@pytest.mark.parametrize("sgens,igens", IDEAL_ZOO)
def test_colon_matches_oracle(sgens, igens):
    s, emem, hi = brute_pair(sgens, igens)
    e = ValueIdeal.generated_by(s, igens)
    m = s.maximal_ideal()
    mmem = ideal_members(s.small_elements, s.conductor,
                         list(s.min_generators), hi)
    window = hi // 4
    guard = hi // 2
    for a_set, a_obj, b_set, b_obj in [
        (emem, e, mmem, m), (mmem, m, emem, e), (emem, e, emem, e),
    ]:
        expected = colon(a_set, b_set, -window, window, guard)
        got = a_obj.colon(b_obj)
        assert ideal_set(got, -window, window) == expected


@pytest.mark.parametrize("sgens,igens", IDEAL_ZOO)
def test_intersect_shift_contains(sgens, igens):
    s, emem, hi = brute_pair(sgens, igens)
    e = ValueIdeal.generated_by(s, igens)
    m = s.maximal_ideal()
    window = hi // 2
    mset = ideal_set(m, 0, window)
    eset = {x for x in emem if x < window}
    assert ideal_set(e.intersect(m), 0, window) == eset & mset
    assert ideal_set(e.shift(7), 0, window) == {x + 7 for x in eset
                                                if x + 7 < window}
    assert m.contains(e)
    assert e.contains(e)
    assert e.contains(m) == (eset >= mset)


def test_length_between_is_gap_count():
    s = NumericalSemigroup.from_generators([5, 21, 32, 48])
    m = s.maximal_ideal()
    mm = m + m
    hi = 3 * s.conductor
    big = ideal_set(m, 0, hi)
    small = ideal_set(mm, 0, hi)
    assert length_between(m, mm) == gap_length(big, small, hi)
    with pytest.raises(NotNested) as err:
        length_between(mm, m)
    assert err.value.witness in big - small


def test_length_between_across_carriers_rejected():
    s = NumericalSemigroup.from_generators([3, 4])
    t = NumericalSemigroup.from_generators([3, 5, 7])
    with pytest.raises(CarrierMismatch):
        length_between(s.as_ideal(), t.maximal_ideal())


def test_operations_reject_carrier_mismatch():
    s = NumericalSemigroup.from_generators([3, 4])
    t = NumericalSemigroup.from_generators([2, 3])
    with pytest.raises(CarrierMismatch):
        s.maximal_ideal() + t.maximal_ideal()
    with pytest.raises(CarrierMismatch):
        s.maximal_ideal().colon(t.maximal_ideal())


def test_equal_carriers_built_apart_combine():
    # two equal but distinct semigroup objects: every binary operation must
    # accept ideals over either, not only over the very same object
    s = NumericalSemigroup.from_generators([5, 11, 12, 19])
    t = NumericalSemigroup.from_explicit((0, 5, 10, 11, 12, 15, 16, 17), 19)
    assert s == t and s is not t
    e, f = ValueIdeal.generated_by(s, [5, 11]), ValueIdeal.generated_by(t, [5, 11])
    m_s, m_t = s.maximal_ideal(), t.maximal_ideal()
    assert e == f and e is not f
    assert e + m_t == f + m_s == e + m_s
    assert m_s.colon(f) == m_t.colon(e) == m_s.colon(e)
    assert e.intersect(m_t) == f.intersect(m_s) == e
    assert m_s.contains(f) and m_t.contains(e) and not e.contains(m_t)
    assert length_between(m_s, f) == length_between(m_t, e) == length_between(m_s, e)
    other = NumericalSemigroup.from_generators([5, 11, 12, 18])
    g = ValueIdeal.generated_by(other, [5, 11])
    assert e != g
    for op in (lambda x, y: x + y, ValueIdeal.colon, ValueIdeal.intersect,
               ValueIdeal.contains, length_between):
        with pytest.raises(CarrierMismatch):
            op(e, g)


def test_ideal_minimal_generators_and_principal():
    s = NumericalSemigroup.from_generators([5, 21, 32, 48])
    e = ValueIdeal.generated_by(s, [31, 32, 40, 52])  # 52 = 31 + 21 redundant
    assert e.minimal_generators() == (31, 32, 40)
    assert not e.is_principal()
    p = ValueIdeal.generated_by(s, [21, 26, 42])  # both in 21 + S
    assert p.minimal_generators() == (21,)
    assert p.is_principal()


def test_conductor_ideal_and_normalization():
    s = NumericalSemigroup.from_generators([3, 5, 7])
    gamma = s.conductor_ideal()
    assert gamma.members == ()
    assert gamma.frontier == s.conductor
    bar = s.normalization()
    assert bar.min_element == 0
    assert bar.frontier == 0
    assert s.as_ideal().contains(gamma)
    assert bar.contains(s.as_ideal())
