"""The blow-up records each ring keeps: one per Lambda, shared by its pairs.

Every Analysis reads the quantities of its blow-up Lambda from the record
on the semigroup's Ring, built whole and checked by the first pair with
that Lambda.  A pair that reads a record must come out equal to one built
with no record at hand, a record is stored only once it is whole, and a
failed check inside one is a bug on every pair with that Lambda.
"""

import json
import random
from collections import Counter

import pytest

import sgblow.blowup
from sgblow.blowup import Analysis
from sgblow.cli import main
from sgblow.core import NumericalSemigroup, ValueIdeal, length_between
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.errors import InvariantViolation, NotNested
from sgblow.invariants import Ring, ring
from sgblow.parsing import format_ideal

HONEST_BUILD = sgblow.blowup._blowup_record

# the four quantities a pair computes for the catalog alone, assigned
# after cross_check
CATALOG_ONLY = {
    "r_colon_is_power", "len_rcolon_over_power_nu", "len_r_over_power_nu",
    "len_gammar_over_conductor_power",
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
    fields, conditions = blowups[_key(a)]
    assert a.r_colon_lambda is b.r_colon_lambda is fields["r_colon_lambda"]
    assert a.lam_bidual is b.lam_bidual is fields["lam_bidual"]
    assert a.gamma_set is b.gamma_set is fields["gamma_set"]
    assert a.lambda_verdicts is b.lambda_verdicts is fields["lambda_verdicts"]
    assert a.conditions.b1 == b.conditions.b1 == conditions["b1"]


def test_cross_check_sees_no_catalog_quantity_cold_or_warm(monkeypatch):
    m = NumericalSemigroup.from_generators([5, 21, 32, 48]).maximal_ideal()
    seen = {}
    monkeypatch.setattr(Analysis, "cross_check", lambda self: seen.update(vars(self)))
    # cold builds the record, warm reads the one cold stored
    ring.cache_clear()
    for temperature in ("cold", "warm"):
        seen.clear()
        a = Analysis(m)
        assert _key(a) in ring(m.carrier).blowups
        assert {"conditions", "gamma_set", "len_r_over_rcolon", "delta_lambda", "d"} \
            <= seen.keys(), temperature
        assert not CATALOG_ONLY & seen.keys(), temperature
        assert CATALOG_ONLY | seen.keys() == vars(a).keys(), temperature
        # the class's prepared mapping, copied in whole before cross_check,
        # holds no catalog quantity
        fixed = ring(m.carrier).translates[m.bits, m.frontier - m.min_element].fixed
        assert fixed.keys() <= seen.keys() and not CATALOG_ONLY & fixed.keys(), temperature


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


def test_each_record_and_its_checks_are_built_once_per_blowup_over_genus_5(fresh_rings,
                                                                           monkeypatch):
    builds, reads = Counter(), Counter()

    def build(rg, lam):
        builds[rg.s, lam] += 1
        return HONEST_BUILD(rg, lam)

    def length(x, y):
        # l(Lambda/R) and l(R:Lambda/gamma_R) are the only lengths an
        # Analysis takes with S or gamma_R as the smaller set
        rg = ring(y.carrier)
        reads["l(Lambda/R)"] += y is rg.s_ideal
        reads["l(R:Lambda/gamma_R)"] += y is rg.conductor_ideal
        return length_between(x, y)

    def n(rg):
        # with no statement run, only l(R/R:Lambda) = n - |Gamma| reads n
        reads["n"] += 1
        return rg.s.bits.bit_count()
    monkeypatch.setattr(sgblow.blowup, "_blowup_record", build)
    monkeypatch.setattr(sgblow.blowup, "length_between", length)
    monkeypatch.setattr(Ring, "n", property(n))
    pairs = [e for s in enumerate_semigroups(5) for e in enumerate_ideals(s)]
    blowups = {(e.carrier, Analysis(e).lam) for e in pairs}
    assert set(builds) == blowups and set(builds.values()) == {1}
    assert reads == dict.fromkeys(("l(Lambda/R)", "l(R:Lambda/gamma_R)", "n"), len(blowups))
    assert len(blowups) < len(pairs)


def _one_more(honest):
    return honest + 1


def _not_nested(honest):
    raise NotNested(0)


# (the lengths, as a function of the ring and Lambda, that a planted record
# build misreads; how it misreads them; the error Analysis raises)
RECORD_FAULTS = [
    (lambda rg, lam: (rg.normalization, lam), _one_more,
     "rho must equal genus minus the blow-up genus"),
    (lambda rg, lam: (rg.s_ideal.colon(lam), rg.conductor_ideal), _one_more,
     "Gamma size disagrees with l(R:Lambda/gamma_R)"),
    (lambda rg, lam: (rg.s_ideal, rg.s_ideal.colon(lam)), _one_more,
     "l(R/R:Lambda) must count small elements outside Gamma"),
    # l(omega_Lambda/Lambda), a length only the catalog reads
    (lambda rg, lam: (rg.k + lam, lam), _not_nested,
     "pair build raised NotNested: not nested: 0 lies in the smaller set but not the larger"),
]
RECORD_FAULT_IDS = ["delta-lambda", "gamma-size", "outside-gamma", "catalog-not-nested"]


def _plant_in_record(monkeypatch, s, lam, lengths, misread):
    """Inside the build of S's record of lam, and nowhere else, the length
    of the sets lengths(rg, lam) reads misread(its value); returns the list
    of builds that misread it."""
    misreads = []

    def build(rg, lam_):
        if rg.s != s or lam_ != lam:
            return HONEST_BUILD(rg, lam_)
        target = lengths(rg, lam)

        def length(x, y):
            honest = length_between(x, y)
            if (x, y) != target:
                return honest
            misreads.append(lam)
            return misread(honest)
        with monkeypatch.context() as m:
            m.setattr(sgblow.blowup, "length_between", length)
            return HONEST_BUILD(rg, lam_)
    monkeypatch.setattr(sgblow.blowup, "_blowup_record", build)
    return misreads


@pytest.mark.parametrize("lengths,misread,message", RECORD_FAULTS, ids=RECORD_FAULT_IDS)
def test_a_failed_record_check_is_a_bug_on_every_pair_with_that_blowup(
        fresh_rings, monkeypatch, capsys, lengths, misread, message):
    s, e, _ = _pairs_sharing_a_blowup()
    argv = ["verify", "--max-genus", "3", "--ideals", "all", "--jobs", "1", "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)["totals"]
    lam = Analysis(e).lam
    sharing = [f for f in enumerate_ideals(s) if Analysis(f).lam == lam]
    assert len(sharing) == 4
    ring.cache_clear()
    misreads = _plant_in_record(monkeypatch, s, lam, lengths, misread)
    for f in sharing:
        with pytest.raises(InvariantViolation) as info:
            Analysis(f)
        assert str(info.value) == message
    # each build misread the length once, and none was stored
    assert len(misreads) == len(sharing)
    assert (lam.bits, lam.frontier) not in ring(s).blowups
    ring.cache_clear()
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [
        {"semigroup": "{0,3,5->}", "ideal": format_ideal(f), "statement_id": "InvariantViolation",
         "lhs": None, "rhs": None, "witness": None, "notes": message} for f in sharing]
    assert doc["totals"]["pairs"] == clean["pairs"] - len(sharing)
    # analyze reports it as a bug, not as bad input
    assert main(["analyze", "<3,5,7>", "--ideal", format_ideal(e)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal check failed (a bug): InvariantViolation: {message}\n"
