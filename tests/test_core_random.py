"""Randomized differential test of the core against the plain-set oracles.

Seeded semigroups with conductors up to about 300 and ideals with negative
and positive minima give windows far wider than one machine word; a fixed
list with conductors up to 3000 and ideals with up to e generators, one per
residue class mod the multiplicity e, covers the windows of thousands of
bits where + and colon shift once per class.  Each check compares the
library's result whole, as its canonical form (members below the frontier,
frontier), with the oracle's exact pair for it.
"""

import math
import random

import pytest

from sgblow.core import NumericalSemigroup, ValueIdeal, _flags, _positions, length_between
from sgblow.errors import NotClosed, NotNested
from sgblow.invariants import bidual

from oracles import (
    closure_from_generators,
    cofinite,
    colon,
    contains,
    ideal,
    intersect,
    length,
    maximal_ideal,
    member,
    minimal_generators,
    sumset,
)

CASES = 200
MAX_CONDUCTOR = 300


def random_semigroup(rng: random.Random) -> tuple[list[int], tuple[int, ...], int]:
    """Generators, small elements and conductor, all from the closure oracle."""
    while True:
        gens = sorted(rng.sample(range(3, 45), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        members, conductor = closure_from_generators(gens)
        if conductor <= MAX_CONDUCTOR:
            return gens, members + (conductor,), conductor


def pair(e: ValueIdeal) -> tuple[tuple[int, ...], int]:
    """The canonical form of e, as the oracles write a set."""
    return e.members, e.frontier


def make_cases():
    rng = random.Random(0)
    cases = []
    for _ in range(CASES):
        sgens, small, c = random_semigroup(rng)
        e = small[1]
        ideals = []
        for _ in range(2):
            gens = rng.sample(range(c + 2 * e), rng.randint(1, 4))
            ideals.append(gens)
            shift = rng.choice([-1, 1]) * rng.randint(1, c + e)
            ideals.append([g + shift for g in gens])
        cases.append((sgens, small, c, ideals, rng.randint(-c, c)))
    return cases


CASE_LIST = make_cases()


@pytest.mark.parametrize("case", range(0, CASES, 20), ids=lambda i: f"block{i}")
def test_core_against_oracles(case):
    for sgens, small, c, ideal_gens, z in CASE_LIST[case:case + 20]:
        check_case(sgens, small, c, ideal_gens, z)


def check_case(sgens, small, c, ideal_gens, z):
    s = NumericalSemigroup.from_generators(sgens)
    assert s.small_elements == small
    assert s.conductor == c
    s_pair = cofinite(small, c)
    mingens = minimal_generators(maximal_ideal(s_pair), s_pair)
    assert s.min_generators == mingens

    checked = []
    for gens in ideal_gens + [mingens]:
        e, expected = ValueIdeal.generated_by(s, gens), ideal(small, c, gens)
        assert pair(e) == expected
        assert e.minimal_generators() == minimal_generators(expected, s_pair)
        assert pair(e.shift(z)) == ideal(small, c, [g + z for g in gens])
        # (E+z)** = E** + z: Thm5.9.1 tests reflexivity of nuE alone on it
        assert bidual(e.shift(z)) == bidual(e).shift(z)
        checked.append((e, expected))
    assert checked[-1][0] == s.maximal_ideal()

    # each ideal against the next in the cycle E, E shifted, F, F shifted, M
    for a, b in zip(checked, checked[1:] + checked[:1]):
        check_pair(*a, *b)


def check_pair(a, ra, b, rb):
    assert pair(a + b) == sumset(ra, rb)
    assert pair(a.colon(b)) == colon(ra, rb)
    assert pair(a.intersect(b)) == intersect(ra, rb)
    assert a.contains(b) == contains(ra, rb)
    if contains(ra, rb):
        assert length_between(a, b) == length(ra, rb)
    else:
        with pytest.raises(NotNested) as err:
            length_between(a, b)
        assert member(err.value.witness, rb) and not member(err.value.witness, ra)


LARGE_SEMIGROUPS = ([3, 1000], [5, 1201, 1502], [9, 350, 361], [11, 250, 301],
                    [23, 67, 131], [31, 170, 289, 397], [41, 50])


@pytest.mark.parametrize("sgens", LARGE_SEMIGROUPS, ids=lambda g: "<" + ",".join(map(str, g)) + ">")
def test_large_windows_against_oracles(sgens):
    rng = random.Random(sum(sgens))
    s = NumericalSemigroup.from_generators(sgens)
    c, e = s.conductor, sgens[0]
    s_pair = closure_from_generators(sgens)
    assert pair(s.as_ideal()) == s_pair
    assert s.min_generators == tuple(sgens)

    ideals = []
    for _ in range(2):
        classes = rng.sample(range(e), rng.randint(2, e))
        gens = [r + e * rng.randrange((c + 2 * e) // e) for r in classes]
        gens = [g + rng.randint(-c, c) - min(gens) for g in gens] if ideals else gens
        x, expected = ValueIdeal.generated_by(s, gens), ideal(s_pair[0], c, gens)
        assert pair(x) == expected
        assert x.minimal_generators() == minimal_generators(expected, s_pair)
        ideals.append((x, expected))
    (a, ra), (b, rb) = ideals
    total = sumset(ra, rb)
    # each order shifts the other operand
    assert pair(a + b) == total == pair(b + a)
    assert (a + b).minimal_generators() == minimal_generators(total, s_pair)
    for (x, rx), (y, ry) in ((ideals[0], ideals[1]), (ideals[1], ideals[0])):
        quotient = colon(rx, ry)
        assert pair(x.colon(y)) == quotient
        assert x.colon(y).minimal_generators() == minimal_generators(quotient, s_pair)


# the semigroups of the benchmark's large-conductor workload: conductors 90 to
# 142, and 400 for <17,26>
LARGE_CONDUCTOR = [[13, 20, 22], [14, 19, 25], [13, 16, 24], [14, 22, 23], [13, 21, 23],
                   [15, 19, 23, 31], [11, 13], [12, 19, 29], [12, 29, 37], [17, 26]]


def test_minimal_generators_shift_once_per_generator_of_s():
    # an ideal built without its generators finds them as E minus the union
    # of E + g over S's minimal generators g; the oracle takes E minus
    # (E + M) over all of M instead.  N, {0, 7->} and the translates of N
    # have generators at or past their frontier.
    rng = random.Random(36)
    shapes = [random_semigroup(rng)[0] for _ in range(12)] + LARGE_CONDUCTOR + [
        [1], list(range(7, 14))]
    negative = 0
    for sgens in shapes:
        s = NumericalSemigroup.from_generators(sgens)
        small, c, e = s.small_elements, s.conductor, s.multiplicity
        s_pair = cofinite(small, c)
        tail = -c - e - 1
        cases = [(s.normalization(), ((), 0)), (s.conductor_ideal(), ((), c)),
                 (s.normalization().shift(tail), ((), tail))]
        for _ in range(2):
            gens = rng.sample(range(c + 2 * e), rng.randint(1, min(4, c + 2 * e)))
            for shift in (0, -rng.randint(max(gens) + 1, max(gens) + c + e)):
                moved = [g + shift for g in gens]
                cases.append((ValueIdeal.generated_by(s, moved), ideal(small, c, moved)))
        for x, expected in cases:
            negative += x.min_element < 0
            assert pair(x) == expected
            assert x.minimal_generators() == minimal_generators(expected, s_pair), (sgens, x)
        # M built from the window of S minus 0, without S's generators
        bare = ValueIdeal._of(s, 0, s.bits & ~1, max(c, 1))
        assert bare.minimal_generators() == s.min_generators
    assert negative == 3 * len(shapes)


def test_set_bit_positions_match_a_plain_bit_loop():
    rng = random.Random(2006)
    masks = [0, 1, 2, 3, 255, 256, (1 << 600) - 1, 1 << 599]
    masks += [rng.getrandbits(rng.randrange(601)) for _ in range(500)]
    for bits in masks:
        for base in (-50, -1, 0, 1, 50, rng.randrange(-50, 51)):
            expected = tuple(base + i for i in range(bits.bit_length()) if bits >> i & 1)
            assert _positions(bits, base) == expected
    assert _positions(0) == ()


def test_bit_flags_match_a_plain_bit_loop():
    rng = random.Random(2007)
    masks = [0, 1, 2, 3, 255, 256, (1 << 600) - 1, 1 << 599]
    masks += [rng.getrandbits(rng.randrange(601)) for _ in range(500)]
    for bits in masks:
        # leading zeros up to the width are flags too
        for width in (bits.bit_length(), bits.bit_length() + rng.randrange(1, 70)):
            assert _flags(bits, width) == bytes(bits >> i & 1 for i in range(width))
    assert _flags(0, 0) == b""


def test_validation_accepts_exactly_the_closed_windows():
    # + and colon assume an operand closed under S, so the check of an
    # unchecked window must not run through them: dense random windows are
    # often closed under some members of S but not under the multiplicity
    rng = random.Random(21)
    outcomes = {True: 0, False: 0}
    for gens in ([3, 5], [4, 7], [5, 7, 9], [6, 7, 8, 9, 10, 11]):
        s = NumericalSemigroup.from_generators(gens)
        c = s.conductor
        in_s = closure_from_generators(gens)
        for case in range(1500):
            lo = rng.randint(-c - 5, c + 5)
            frontier = lo + rng.randint(1, 3 * c + 12)
            density = rng.choice([0.3, 0.6, 0.8, 0.9, 0.95])
            listed = {x for x in range(lo, frontier) if rng.random() < density}
            if case % 3 == 0:
                # a true ideal's window with one member dropped
                whole = ValueIdeal.generated_by(s, rng.sample(range(lo, lo + c + 6), 2))
                frontier = whole.frontier + rng.randint(0, 6)
                listed = set(whole.elements_below(frontier))
                listed.discard(rng.choice(sorted(listed)))
            # E + S inside E, with E full from the frontier on
            e = cofinite(listed, frontier)
            closed = contains(e, sumset(e, in_s))
            try:
                ValueIdeal(s, listed, frontier)
                accepted = True
            except NotClosed:
                accepted = False
            assert accepted == closed, (gens, sorted(listed), frontier)
            outcomes[closed] += 1
    assert min(outcomes.values()) > 300, outcomes
