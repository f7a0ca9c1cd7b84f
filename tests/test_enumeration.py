"""Genus-tree enumeration and non-principal ideal streams."""

import random

import pytest

from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.enumeration import (
    count_by_genus,
    default_generator_bound,
    enumerate_ideals,
    enumerate_semigroups,
    genus_tree_children,
    sample_ideals,
    semigroups_of_genus,
)
from sgblow.errors import WindowTooLarge

from oracles import (
    all_nonprincipal_ideals,
    antichains_in_order,
    count_semigroups_of_genus,
)


def test_counts_by_genus_match_brute_force():
    counts = count_by_genus(8)
    assert counts == (1, 1, 2, 4, 7, 12, 23, 39, 67)
    for g, expected in enumerate(counts):
        assert count_semigroups_of_genus(g) == expected
        assert len(semigroups_of_genus(g)) == expected


def test_a_negative_genus_bound_enumerates_nothing():
    assert list(enumerate_semigroups(-1)) == []


def test_enumeration_is_deterministic_and_bfs_ordered():
    first = [s.small_elements for s in enumerate_semigroups(6)]
    second = [s.small_elements for s in enumerate_semigroups(6)]
    assert first == second
    assert len(first) == len(set(first)) == sum(count_by_genus(6))
    # genus never decreases along the stream
    last = -1
    for s in enumerate_semigroups(6):
        assert s.genus >= last
        last = s.genus


def test_tree_children_remove_one_generator_past_frobenius():
    s = NumericalSemigroup.from_generators([3, 4, 5])
    kids = genus_tree_children(s)
    got = {k.small_elements for k in kids}
    assert got == {(0, 4), (0, 3, 5), (0, 3, 4, 6)}
    for k in kids:
        assert k.genus == s.genus + 1
    assert genus_tree_children(NumericalSemigroup.natural_numbers())[0] \
        .small_elements == (0, 2)


def _fields(s):
    return (s.bits, s.conductor, s.genus, s.multiplicity, s.min_generators)


@pytest.mark.parametrize("parent, removed, child", [
    # g + m = 7 becomes a generator: 7 - 3 = 4 and 7 - 5 = 2 are not in <3,5,7>
    ((3, 4, 5), 4, (3, 5, 7)),
    # nothing is added: 5 + 3 - 4 = 4 is a nonzero member of <3,4>
    ((3, 4, 5), 5, (3, 4)),
    # the multiplicity moves, so the child finds its generators from scratch
    ((3, 4, 5), 3, (4, 5, 6, 7)),
    ((1,), 1, (2, 3)),
])
def test_each_branch_of_the_child_generator_rule(parent, removed, child):
    s = NumericalSemigroup.from_generators(parent)
    kids = {g: k for g, k in _children_by_explicit_members(s)}
    grown = dict(zip(kids, genus_tree_children(s)))
    assert grown[removed].min_generators == child
    assert _fields(grown[removed]) == _fields(kids[removed])


def _children_by_explicit_members(s):
    """(g, S minus g) for each minimal generator g > F, each child built
    through the validating from_explicit route."""
    return [(g, NumericalSemigroup.from_explicit(
                [x for x in s.elements_up_to(g) if x != g], g + 1))
            for g in s.min_generators if g > s.frobenius]


def test_tree_children_match_the_validating_route_to_genus_11():
    level, seen = [NumericalSemigroup.natural_numbers()], 1
    for _ in range(11):
        nxt = []
        for s in level:
            want = _children_by_explicit_members(s)
            kids = [k for _, k in want]
            assert genus_tree_children(s) == kids, s
            for (g, k), child in zip(want, genus_tree_children(s)):
                assert _fields(child) == _fields(k), (s, g)
                assert child.genus == s.genus + 1
                assert child.conductor == g + 1
                # the removed generator is the child's Frobenius number
                assert (child.bits >> g) & 1 == 0
            nxt.extend(kids)
        seen += len(nxt)
        level = nxt
    assert seen == sum(count_by_genus(11))


def test_ideal_stream_on_a_tiny_semigroup():
    s = NumericalSemigroup.from_generators([2, 3])
    got = {e.minimal_generators() for e in enumerate_ideals(s, bound=5)}
    assert got == {(2, 3), (3, 4), (4, 5)}
    assert list(enumerate_ideals(NumericalSemigroup.natural_numbers())) == []


def test_default_bound_and_a_known_member():
    s = NumericalSemigroup.from_generators([5, 21, 32, 48])
    assert default_generator_bound(s) == s.conductor + 2 * s.multiplicity
    gens_seen = {e.minimal_generators() for e in enumerate_ideals(s)}
    assert (31, 32, 40) in gens_seen


def test_ideal_stream_matches_subset_oracle():
    for gens in [(2, 3), (3, 4), (3, 4, 5), (4, 5, 6, 7)]:
        s = NumericalSemigroup.from_generators(gens)
        bound = s.conductor + s.multiplicity
        stream = list(enumerate_ideals(s, bound=bound))
        assert len({e.minimal_generators() for e in stream}) == len(stream)
        got = {frozenset(e.minimal_generators()) for e in stream}
        want = all_nonprincipal_ideals(s.small_elements, s.conductor, bound)
        assert got == want
        for e in stream:
            assert not e.is_principal()
            assert all(g <= bound for g in e.minimal_generators())


def test_the_walk_order_is_the_oracle_lexicographic_order():
    walked = 0
    for s in enumerate_semigroups(6):
        for offset in range(-2, 4):
            bound = default_generator_bound(s) + offset
            for non_principal_only in (True, False):
                got = [e._mingens for e in enumerate_ideals(
                    s, bound=bound, non_principal_only=non_principal_only)]
                want = antichains_in_order(s.small_elements, s.conductor, bound,
                                           2 if non_principal_only else 1)
                assert got == want, (s, bound, non_principal_only)
                walked += len(got)
    assert walked == 85898


def test_enumerated_ideals_carry_their_minimal_generators():
    ideals = 0
    for s in enumerate_semigroups(6):
        for e in enumerate_ideals(s):
            # the same ideal rebuilt without them finds its own
            fresh = ValueIdeal._of(s, e.min_element, e.bits, e.frontier)
            assert fresh._mingens is None
            assert e._mingens == fresh.minimal_generators(), e
            ideals += 1
    assert ideals == 6423


def test_the_full_stream_adds_one_principal_ideal_per_window_value():
    streamed = 0
    for s in enumerate_semigroups(5):
        for offset in (-2, 0, 3):
            bound = default_generator_bound(s) + offset
            window = [x for x in range(1, bound + 1) if x in s]
            stream = list(enumerate_ideals(s, bound=bound, non_principal_only=False))
            for e in stream:
                # the ideal its antichain generates, through the validating
                # constructor: each x + S cut at min + c
                gens = e._mingens
                assert e == ValueIdeal(s, [x + y for x in gens
                                          for y in s.elements_up_to(s.conductor)],
                                       gens[0] + s.conductor), e
                fresh = ValueIdeal._of(s, e.min_element, e.bits, e.frontier)
                assert gens == fresh.minimal_generators(), e
            streamed += len(stream)
            principal = [e for e in stream if len(e._mingens) == 1]
            assert [e._mingens for e in principal] == [(x,) for x in window]
            rest = [e for e in stream if len(e._mingens) > 1]
            non_principal = list(enumerate_ideals(s, bound=bound))
            assert rest == non_principal
            assert [e._mingens for e in rest] == [e._mingens for e in non_principal]
    assert streamed == 6595


def test_a_generator_window_past_any_shift_is_a_domain_error():
    s = NumericalSemigroup.from_generators([3, 5])
    with pytest.raises(WindowTooLarge) as err:
        next(enumerate_ideals(s, bound=10 ** 20))
    assert err.value.width == 10 ** 20 + 1
    # a bound below the multiplicity leaves an empty window
    assert list(enumerate_ideals(s, bound=2, non_principal_only=False)) == []


def _reference_sample(s, count, rng):
    """Every ideal built, then count of them drawn by index."""
    pool = list(enumerate_ideals(s))
    if len(pool) <= count:
        return pool
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]


def _key(e):
    return (e.min_element, e.bits, e.frontier, e._mingens)


def test_sampling_builds_the_draw_of_the_full_pool():
    drawn = 0
    for s in enumerate_semigroups(6):
        pool = sum(1 for _ in enumerate_ideals(s))
        for seed in range(5):
            for count in (0, 1, 3, pool + 1):
                got = sample_ideals(s, count, random.Random(seed))
                want = _reference_sample(s, count, random.Random(seed))
                assert [_key(e) for e in got] == [_key(e) for e in want], (s, seed, count)
                drawn += len(got)
    assert drawn == 33095
    with pytest.raises(WindowTooLarge):
        sample_ideals(NumericalSemigroup.from_generators([3, 5]), 3,
                      random.Random(0), bound=10 ** 20)


def test_sampling_is_deterministic_and_inside_the_pool():
    s = NumericalSemigroup.from_generators([5, 6, 7])
    pool = {e.minimal_generators() for e in enumerate_ideals(s)}
    a = sample_ideals(s, 5, random.Random(9))
    b = sample_ideals(s, 5, random.Random(9))
    c = sample_ideals(s, 5, random.Random(10))
    assert [e.minimal_generators() for e in a] \
        == [e.minimal_generators() for e in b]
    assert a != c or len(pool) <= 5
    assert len(a) == 5
    for e in a:
        assert e.minimal_generators() in pool
    assert len(sample_ideals(s, 10 ** 6, random.Random(0))) == len(pool)
