"""Canonical duality, type sequences, and ring classification."""

import pytest

from sgblow.core import NumericalSemigroup, ValueIdeal, length_between
from sgblow.enumeration import enumerate_semigroups
from sgblow.errors import NotIntegral, RegularRing
from sgblow.invariants import (
    bidual,
    canonical_closure,
    canonical_ideal,
    classify,
    dual,
    integral_closure,
    is_reflexive,
    omega_product,
    type_sequence,
)

from oracles import canonical_members

ZOO = [(3, 4), (3, 5, 7), (2, 3), (4, 5, 6, 7), (5, 21, 32, 48),
       (7, 8, 12, 13, 18), (6, 11, 16, 20, 25), (8, 10, 13, 15)]


@pytest.mark.parametrize("gens", ZOO)
def test_canonical_ideal_matches_oracle(gens):
    s = NumericalSemigroup.from_generators(gens)
    k = canonical_ideal(s)
    hi = 2 * s.conductor + 5
    got = {x for x in range(hi) if x in k}
    assert got == canonical_members(s.small_elements, s.conductor, hi)
    assert k.min_element == 0
    assert k.frontier == s.conductor


def test_gorenstein_iff_canonical_is_trivial():
    for gens in ZOO:
        s = NumericalSemigroup.from_generators(gens)
        assert (canonical_ideal(s) == s.as_ideal()) == classify(s).gorenstein


def sample_ideals_for(s):
    m = s.maximal_ideal()
    out = [s.as_ideal(), m, m + m, canonical_ideal(s), s.conductor_ideal(),
           dual(m), s.normalization()]
    gens = s.min_generators
    if len(gens) >= 2:
        out.append(ValueIdeal.generated_by(s, [gens[0], gens[1]]))
    out.append(ValueIdeal.generated_by(s, [s.conductor, s.conductor + 1]))
    return out


@pytest.mark.parametrize("gens", ZOO)
def test_canonical_duality_is_an_involution(gens):
    s = NumericalSemigroup.from_generators(gens)
    k = canonical_ideal(s)
    for e in sample_ideals_for(s):
        assert k.colon(k.colon(e)) == e


@pytest.mark.parametrize("gens", ZOO)
def test_duality_preserves_lengths(gens):
    s = NumericalSemigroup.from_generators(gens)
    k = canonical_ideal(s)
    ideals = sample_ideals_for(s)
    for e in ideals:
        for f in ideals:
            if not e.contains(f):
                continue
            lhs = length_between(e, f)
            rhs = length_between(k.colon(f), k.colon(e))
            assert lhs == rhs


def test_canonical_self_colon_is_the_semigroup():
    for gens in ZOO:
        s = NumericalSemigroup.from_generators(gens)
        k = canonical_ideal(s)
        assert k.colon(k) == s.as_ideal()


@pytest.mark.parametrize("gens", ZOO)
def test_bidual_is_a_closure(gens):
    s = NumericalSemigroup.from_generators(gens)
    for e in sample_ideals_for(s):
        ee = bidual(e)
        assert ee.contains(e)
        assert bidual(ee) == ee
        assert is_reflexive(e) == (ee == e)
    # duals themselves are always reflexive
    m = s.maximal_ideal()
    assert is_reflexive(dual(m))


def test_dual_is_antitone():
    s = NumericalSemigroup.from_generators([5, 21, 32, 48])
    m = s.maximal_ideal()
    mm = m + m
    assert m.contains(mm)
    assert dual(mm).contains(dual(m))


def test_type_sequence_of_n_is_degenerate():
    with pytest.raises(RegularRing):
        type_sequence(NumericalSemigroup.natural_numbers())


def test_type_sequence_known_values():
    ts = type_sequence(NumericalSemigroup.from_generators([3, 4]))
    assert ts.entries == (1, 1, 1)
    assert ts.n == 3
    assert type_sequence(NumericalSemigroup.from_generators([3, 4, 5])).entries \
        == (2,)
    assert type_sequence(NumericalSemigroup.from_generators([4, 5, 6, 7])).entries \
        == (3,)


def test_type_sequence_bounds_and_sums():
    for s in enumerate_semigroups(8):
        if s.is_natural_numbers:
            continue
        ts = type_sequence(s)
        r = ts.cm_type
        assert len(ts.entries) == s.conductor - s.genus
        assert all(1 <= x <= r for x in ts.entries)
        assert ts.total() == s.genus
        assert sum(x - 1 for x in ts.entries) == 2 * s.genus - s.conductor


def test_cm_type_agrees_with_dual_of_maximal():
    for gens in ZOO:
        s = NumericalSemigroup.from_generators(gens)
        r = type_sequence(s).cm_type
        assert r == length_between(dual(s.maximal_ideal()), s.as_ideal())


def test_classification_flags():
    flags = classify(NumericalSemigroup.from_generators([3, 4]))
    assert flags.gorenstein and flags.almost_gorenstein and not flags.kunz
    assert flags.cm_type == 1
    flags = classify(NumericalSemigroup.from_generators([3, 4, 5]))
    assert flags.kunz and flags.almost_gorenstein and not flags.gorenstein
    assert flags.cm_type == 2
    flags = classify(NumericalSemigroup.from_generators([4, 5, 6, 7]))
    assert flags.almost_gorenstein and not flags.kunz and flags.cm_type == 3
    flags = classify(NumericalSemigroup.from_generators([6, 11, 16, 20, 25]))
    assert not flags.almost_gorenstein


def test_almost_gorenstein_iff_dual_canonical_covers_maximal():
    for s in enumerate_semigroups(7):
        if s.is_natural_numbers:
            continue
        covers = dual(canonical_ideal(s)).contains(s.maximal_ideal())
        assert covers == classify(s).almost_gorenstein


def test_classify_natural_numbers():
    flags = classify(NumericalSemigroup.natural_numbers())
    assert flags.gorenstein and flags.cm_type == 1


def test_omega_product_and_closures():
    s = NumericalSemigroup.from_generators([7, 8, 12, 13, 18])
    m = s.maximal_ideal()
    assert omega_product(m) == m + canonical_ideal(s)
    tilde = canonical_closure(m)
    bar = integral_closure(m)
    assert tilde.contains(m)
    assert bar.contains(tilde)
    assert s.as_ideal().contains(bar)
    # integral closure of the maximal ideal is everything positive in S
    assert bar.members == tuple(x for x in s.small_elements
                                if 0 < x < s.conductor)


def test_closures_need_integral_ideals():
    s = NumericalSemigroup.from_generators([3, 4])
    shifted = s.maximal_ideal().shift(-1)
    with pytest.raises(NotIntegral):
        canonical_closure(shifted)
    with pytest.raises(NotIntegral):
        integral_closure(shifted)
