"""Genus-tree enumeration and non-principal ideal streams."""

import random

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

from oracles import all_nonprincipal_ideals, count_semigroups_of_genus


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
