"""Randomized differential test of the core against the plain-set oracles.

Seeded semigroups with conductors up to about 300 and ideals with negative
and positive minima give windows far wider than one machine word; a fixed
list with conductors up to 3000 and ideals with up to e generators, one per
residue class mod the multiplicity e, covers the windows of thousands of
bits where + and colon shift once per class.  Every ideal over S with least
member m is full from m + c on, so each check compares memberships over a
finite window that covers everything below the point where both sides are
full, and asserts that the library's result is full from there on as well.
"""

import math
import random

import pytest

from sgblow.core import NumericalSemigroup, ValueIdeal, _flags, _positions, length_between
from sgblow.errors import NotClosed, NotNested
from sgblow.invariants import bidual

from oracles import (
    closure_from_generators,
    colon,
    gap_length,
    ideal_members,
    minimal_generators_of_ideal,
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
        bound = gens[0] * gens[-1]
        members = closure_from_generators(gens, bound)
        conductor = max(set(range(bound)) - members) + 1
        if conductor <= MAX_CONDUCTOR:
            small = tuple(sorted(x for x in members if x < conductor)) + (conductor,)
            return gens, small, conductor


def window(e: ValueIdeal, lo: int, hi: int) -> set[int]:
    """The library's members in [lo, hi), checked to be full from hi on."""
    assert e.frontier <= hi
    assert e.min_element >= lo
    return {x for x in range(lo, hi) if x in e}


def ideal_set(small, c, gens, hi) -> set[int]:
    """The ideal generated by gens below hi; the oracle wants generators >= 0."""
    m = min(gens)
    return {x + m for x in ideal_members(small, c, [g - m for g in gens], hi - m)}


def cut(values: set[int], lo: int, hi: int) -> set[int]:
    return {x for x in values if lo <= x < hi}


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
    e = small[1]
    nonzero = cut(ideal_set(small, c, [0], c + 2 * e), 1, c + 2 * e)
    mingens = minimal_generators_of_ideal(nonzero, nonzero)
    assert set(s.min_generators) == mingens

    checked = []
    for gens in ideal_gens + [sorted(mingens)]:
        ideal, m = ValueIdeal.generated_by(s, gens), min(gens)
        full = ideal_set(small, c, gens, m + 3 * c + 3 * e)
        assert window(ideal, m, m + c + 1) == cut(full, m, m + c + 1)
        gens_ref = minimal_generators_of_ideal(cut(full, m, m + c + e), nonzero)
        assert set(ideal.minimal_generators()) == gens_ref
        shifted = ideal_set(small, c, [g + z for g in gens], m + z + c + 1)
        assert window(ideal.shift(z), m + z, m + z + c + 1) == shifted
        # (E+z)** = E** + z: Thm5.9.1 tests reflexivity of nuE alone on it
        assert bidual(ideal.shift(z)) == bidual(ideal).shift(z)
        checked.append((ideal, m, full))
    assert checked[-1][0] == s.maximal_ideal()

    # each ideal against the next in the cycle E, E shifted, F, F shifted, M
    for a, b in zip(checked, checked[1:] + checked[:1]):
        check_pair(*a, *b, c)


def check_pair(a, ma, ra, b, mb, rb, c):
    # the sum is full from ma + mb + c on and needs each window only up to c past its minimum
    lo, hi = ma + mb, ma + mb + c + 1
    assert window(a + b, lo, hi) == sumset(cut(ra, ma, ma + c + 1), cut(rb, mb, mb + c + 1), hi)

    # z in A:B has z >= ma - mb, and z + f lies in A for every f >= mb + c once z >= ma - mb
    lo, hi = ma - mb, ma - mb + c + 1
    assert window(a.colon(b), lo, hi) == colon(ra, rb, lo, hi, mb + c)

    lo, hi = min(ma, mb), max(ma, mb) + c + 1
    wa, wb = cut(ra, lo, hi), cut(rb, lo, hi)
    assert window(a.intersect(b), lo, hi) == wa & wb
    assert a.contains(b) == (wb <= wa)
    if wb <= wa:
        assert length_between(a, b) == gap_length(wa, wb, hi)
    else:
        with pytest.raises(NotNested) as err:
            length_between(a, b)
        assert err.value.witness in wb
        assert err.value.witness not in wa


LARGE_SEMIGROUPS = ([3, 1000], [5, 1201, 1502], [9, 350, 361], [11, 250, 301],
                    [23, 67, 131], [31, 170, 289, 397], [41, 50])


def full_window(values: set[int], hi: int, pad: int) -> set[int]:
    """A set exact below hi and full from hi on, listed up to hi + pad."""
    return values | set(range(hi, hi + pad))


@pytest.mark.parametrize("sgens", LARGE_SEMIGROUPS, ids=lambda g: "<" + ",".join(map(str, g)) + ">")
def test_large_windows_against_oracles(sgens):
    rng = random.Random(sum(sgens))
    s = NumericalSemigroup.from_generators(sgens)
    c, e = s.conductor, sgens[0]
    bound = sgens[0] * sgens[-1]
    members = closure_from_generators(sgens, bound)
    assert c == max(set(range(bound)) - members) + 1
    small, pad = tuple(sorted(x for x in members if x < c)) + (c,), max(sgens)
    assert s.small_elements == small
    assert s.min_generators == tuple(sgens)

    def mingens(values, hi):
        # x is in E + M exactly when x - g is in E for a minimal generator g of S
        return minimal_generators_of_ideal(full_window(values, hi, pad), set(sgens))

    ideals = []
    for _ in range(2):
        classes = rng.sample(range(e), rng.randint(2, e))
        gens = [r + e * rng.randrange((c + 2 * e) // e) for r in classes]
        gens = [g + rng.randint(-c, c) - min(gens) for g in gens] if ideals else gens
        ideal, m = ValueIdeal.generated_by(s, gens), min(gens)
        full = ideal_set(small, c, gens, m + c + 1)
        assert window(ideal, m, m + c + 1) == full
        assert set(ideal.minimal_generators()) == mingens(full, m + c + 1)
        ideals.append((ideal, m, full))
    (a, ma, ra), (b, mb, rb) = ideals
    lo, hi = ma + mb, ma + mb + c + 1
    total = sumset(ra, rb, hi)
    # each order shifts the other operand
    assert window(a + b, lo, hi) == total == window(b + a, lo, hi)
    assert set((a + b).minimal_generators()) == mingens(total, hi)
    for (x, mx, rx), (y, my, ry) in ((ideals[0], ideals[1]), (ideals[1], ideals[0])):
        lo, hi = mx - my, mx - my + c + 1
        quotient = colon(full_window(rx, mx + c + 1, c + 1), ry, lo, hi, my + c)
        assert window(x.colon(y), lo, hi) == quotient
        assert set(x.colon(y).minimal_generators()) == mingens(quotient, hi)


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
        # M below c + e: every sum x + y with y in E that lands below
        # min E + c + e, where E's generators all lie
        nonzero = cut(ideal_set(small, c, [0], c + e), 1, c + e)
        cases = [(s.normalization(), set(range(c + e))),
                 (s.conductor_ideal(), set(range(c, 2 * c + e)))]
        tail = -c - e - 1
        cases.append((s.normalization().shift(tail), set(range(tail, tail + c + e))))
        for _ in range(2):
            gens = rng.sample(range(c + 2 * e), rng.randint(1, min(4, c + 2 * e)))
            for shift in (0, -rng.randint(max(gens) + 1, max(gens) + c + e)):
                moved = [g + shift for g in gens]
                m = min(moved)
                cases.append((ValueIdeal.generated_by(s, moved),
                              ideal_set(small, c, moved, m + c + e)))
        for ideal, members in cases:
            negative += ideal.min_element < 0
            assert ideal.minimal_generators() == tuple(
                sorted(minimal_generators_of_ideal(members, nonzero))), (sgens, ideal)
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
        in_s = closure_from_generators(gens, 4 * c + 40)
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
            closed = all(x + y >= frontier or x + y in listed
                         for x in listed for y in in_s if x + y < frontier)
            try:
                ValueIdeal(s, listed, frontier)
                accepted = True
            except NotClosed:
                accepted = False
            assert accepted == closed, (gens, sorted(listed), frontier)
            outcomes[closed] += 1
    assert min(outcomes.values()) > 300, outcomes
