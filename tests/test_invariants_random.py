"""Randomized differential test of the ring invariants against plain-set oracles.

Seeded semigroups with conductors up to about 300 give windows many machine
words wide.  K, S:M and S:K are checked whole against the oracle's exact
sets, and every entry r_i of the type sequence against lengths of colons
S:R_i and of sums K + R_i taken on them, where R_i is the filter of S from
its i-th small element on.  The classification is checked against c = 2g
(Gorenstein) and r - 1 = 2g - c (almost Gorenstein).
"""

import random

import pytest

from sgblow import invariants
from sgblow.core import NumericalSemigroup
from sgblow.enumeration import enumerate_ideals
from sgblow.invariants import canonical_ideal, classify, ring, type_sequence
from sgblow.statements import verify_many

from oracles import canonical_ideal as oracle_k, cofinite, colon, length, maximal_ideal, sumset
from test_core_random import pair, random_semigroup

CASES = 60
BLOCK = 10


def make_cases():
    rng = random.Random(1)
    return [random_semigroup(rng) for _ in range(CASES)]


CASE_LIST = make_cases()


def oracle_type_sequence(small, c) -> list[int]:
    """r_i = l((S:R_i)/(S:R_(i-1))), checked against l((K+R_(i-1))/(K+R_i))."""
    s_set, k_set = cofinite(small, c), oracle_k(small, c)
    filters = [cofinite(small[i:], c) for i in range(len(small))]
    duals = [colon(s_set, f) for f in filters]
    products = [sumset(k_set, f) for f in filters]
    entries = []
    for i in range(1, len(small)):
        by_duals = length(duals[i], duals[i - 1])
        assert by_duals == length(products[i - 1], products[i])
        entries.append(by_duals)
    assert duals[0] == s_set
    return entries


@pytest.mark.parametrize("case", range(0, CASES, BLOCK), ids=lambda i: f"block{i}")
def test_ring_invariants_against_oracles(case):
    for gens, small, c in CASE_LIST[case:case + BLOCK]:
        s = NumericalSemigroup.from_generators(gens)
        assert s.small_elements == small
        genus = c - (len(small) - 1)

        k_set = oracle_k(small, c)
        assert pair(canonical_ideal(s)) == k_set

        entries = oracle_type_sequence(small, c)
        assert type_sequence(s).entries == tuple(entries)

        r = entries[0]
        flags = classify(s)
        assert flags.cm_type == r
        assert flags.gorenstein == (c == 2 * genus)
        assert flags.almost_gorenstein == (r - 1 == 2 * genus - c)
        assert flags.kunz == (flags.almost_gorenstein and r == 2)

        s_set = cofinite(small, c)
        rg = ring(s)
        assert pair(rg.dual_m) == colon(s_set, maximal_ideal(s_set))
        assert pair(rg.r_colon_omega) == colon(s_set, k_set)


def test_verify_many_over_every_ideal_builds_one_ring(monkeypatch):
    built = []
    init = invariants.Ring.__init__

    def counting_init(self, s):
        built.append(s)
        init(self, s)

    monkeypatch.setattr(invariants.Ring, "__init__", counting_init)
    ring.cache_clear()
    s = NumericalSemigroup.from_generators([5, 7, 9])
    ideals = list(enumerate_ideals(s))
    assert len(ideals) > 20
    for e in ideals:
        verify_many(e)
    assert built == [s]
