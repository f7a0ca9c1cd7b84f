"""The blow-up records each ring keeps: one per Lambda, shared by its pairs.

Every Analysis reads the quantities of its blow-up Lambda from the record
on the semigroup's Ring, built by the first pair with that Lambda.  A pair
that reads a record must come out equal to one built with no record at
hand, and a record is stored only once it is whole.
"""

import random

import pytest

import sgblow.blowup
from sgblow.blowup import Analysis
from sgblow.core import NumericalSemigroup, ValueIdeal, length_between
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.errors import InvariantViolation
from sgblow.invariants import ring

# what only the catalog and the document read, assigned after cross_check
CATALOG_ONLY = {
    "r", "i0", "r_filter_i0", "r_star_i0", "n_lambda", "lambda_gorenstein",
    "lam_is_normalization", "len_bidual_over_lambda", "len_omega_over_lambda",
    "len_omega_over_bidual", "len_rbar_over_omega", "len_rbar_over_bidual",
    "len_bidual_over_rstar", "sum_gamma", "sum_not_gamma", "sum_not_gamma_excess",
    "d", "ideal_bidual", "ideal_reflexive", "r_colon_is_power",
    "len_rcolon_over_power_nu", "len_r_over_power_nu", "len_gammar_over_conductor_power",
    "lam_contains_dual_m",
}


def _key(a):
    return a.lam.bits, a.lam.frontier


def _quantities(a):
    """Every attribute but the ring, which differs once the cache is cleared."""
    return {k: v for k, v in vars(a).items() if k != "ring"}


def _seeded_ideals(s, seed):
    """m and two ideals generated by a and two members v with v - a outside S."""
    rng = random.Random(seed)
    a, c = s.multiplicity, s.conductor
    apery = [v for v in range(a + 1, c + a) if v in s and v - a not in s]
    return [s.maximal_ideal()] + [
        ValueIdeal.generated_by(s, [a, *rng.sample(apery, 2)]) for _ in range(2)]


def _pairs_sharing_a_blowup():
    """ideal(3,7) and ideal(5,9) over <3,5,7>: both blow up to {0,3->}."""
    s = NumericalSemigroup.from_generators([3, 5, 7])
    return s, ValueIdeal.generated_by(s, [3, 7]), ValueIdeal.generated_by(s, [5, 9])


def _check_warm_equals_cold(ideals):
    ring.cache_clear()
    warm = [Analysis(e) for e in ideals]
    for e, a in zip(ideals, warm):
        ring.cache_clear()
        assert _quantities(Analysis(e)) == _quantities(a), e


def test_reading_a_record_equals_building_it_over_genus_5():
    pairs = lambdas = 0
    for s in enumerate_semigroups(5):
        ideals = list(enumerate_ideals(s))
        _check_warm_equals_cold(ideals)
        pairs += len(ideals)
        lambdas += len({Analysis(e).lam for e in ideals})
    # the universe reuses records, so the warm side read some
    assert lambdas < pairs


@pytest.mark.parametrize("gens,seed", [((13, 20, 22), 1), ((17, 26), 2)])
def test_reading_a_record_equals_building_it_at_large_windows(gens, seed):
    s = NumericalSemigroup.from_generators(gens)
    ideals = _seeded_ideals(s, seed)
    # read every record warm: the second pass hits the records of the first
    ring.cache_clear()
    first = [Analysis(e) for e in ideals]
    assert all(_quantities(Analysis(e)) == _quantities(a) for e, a in zip(ideals, first))
    _check_warm_equals_cold(ideals)


def test_pairs_with_one_blowup_share_one_record():
    s, e, f = _pairs_sharing_a_blowup()
    ring.cache_clear()
    a, b = Analysis(e), Analysis(f)
    assert a.lam == b.lam != s.normalization()
    blowups = ring(s).blowups
    assert list(blowups) == [_key(a)]
    checked, catalog, _ = blowups[_key(a)]
    assert a.r_colon_lambda is b.r_colon_lambda is checked[0]
    assert a.r_star_i0 is b.r_star_i0 is catalog[2]
    assert a.gamma_set is b.gamma_set


def test_cross_check_sees_no_catalog_quantity_on_a_warm_record(monkeypatch):
    m = NumericalSemigroup.from_generators([5, 21, 32, 48]).maximal_ideal()
    ring.cache_clear()
    cold = Analysis(m)
    assert _key(cold) in ring(m.carrier).blowups
    seen = {}
    monkeypatch.setattr(Analysis, "cross_check", lambda self: seen.update(vars(self)))
    warm = Analysis(m)
    assert {"conditions", "gamma_set", "len_r_over_rcolon", "delta_lambda"} <= seen.keys()
    assert not CATALOG_ONLY & seen.keys()
    assert CATALOG_ONLY <= vars(warm).keys()
    assert CATALOG_ONLY | seen.keys() == vars(warm).keys()


def _fault_in_checked_half(monkeypatch, s):
    # l(Rbar/Lambda) is delta(Lambda), the first length the checked half takes
    norm = ring(s).normalization

    def faulty(larger, smaller):
        if larger is norm:
            raise InvariantViolation("planted fault")
        return length_between(larger, smaller)
    monkeypatch.setattr(sgblow.blowup, "length_between", faulty)


def _fault_in_catalog_half(monkeypatch, s):
    # R_i0* is the one dual the catalog half takes
    def faulty(e):
        raise InvariantViolation("planted fault")
    monkeypatch.setattr(sgblow.blowup, "dual", faulty)


@pytest.mark.parametrize("plant", [_fault_in_checked_half, _fault_in_catalog_half])
def test_a_fault_in_a_record_raises_on_every_pair_and_stores_nothing(monkeypatch, plant):
    s, e, f = _pairs_sharing_a_blowup()
    ring.cache_clear()
    plant(monkeypatch, s)
    for ideal in (e, f, e):
        with pytest.raises(InvariantViolation, match="planted fault"):
            Analysis(ideal)
    assert ring(s).blowups == {}
    monkeypatch.undo()
    assert Analysis(f).lam == Analysis(e).lam
    assert len(ring(s).blowups) == 1
