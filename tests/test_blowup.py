"""Hilbert function, reduction exponent, blow-up, and the condition groups."""

from dataclasses import fields

import pytest

from sgblow.blowup import (
    ConditionsReport,
    HPolynomial,
    analyze,
    blowup_lambda,
    check_conditions_a_b,
    h_polynomial,
    hilbert_function,
    power,
)
from sgblow.core import NumericalSemigroup, ValueIdeal, length_between
from sgblow.enumeration import enumerate_ideals
from sgblow.errors import (
    EquivalenceViolation,
    InvariantViolation,
    NotProper,
    PrincipalIdeal,
)
from sgblow.invariants import (
    bidual,
    canonical_closure,
    classify,
    integral_closure,
    type_sequence,
)
from sgblow.statements import STATEMENTS, verify_many

from oracles import cofinite, ideal, iterated_blowup, length, sumset

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


def pair(gens, ideal_gens):
    s = NumericalSemigroup.from_generators(gens)
    return s, ValueIdeal.generated_by(s, ideal_gens)


def brute_powers(s, ideal_gens, count):
    """S, E, 2E, ... up to (count - 1)E, as the oracle's exact sets."""
    e = ideal(s.small_elements, s.conductor, ideal_gens)
    out = [cofinite(s.small_elements, s.conductor)]
    while len(out) < count:
        out.append(sumset(out[-1], e))
    return out


@pytest.mark.parametrize("gens,ideal_gens", IDEAL_ZOO)
def test_hilbert_function_matches_brute_force(gens, ideal_gens):
    s, e = pair(gens, ideal_gens)
    rep = analyze(e)
    hs = hilbert_function(e, rep.nu + 3)
    p = brute_powers(s, ideal_gens, len(hs) + 1)
    assert hs == tuple(map(length, p, p[1:]))


@pytest.mark.parametrize("gens,ideal_gens", IDEAL_ZOO)
def test_reduction_exponent_bounds(gens, ideal_gens):
    s, e = pair(gens, ideal_gens)
    rep = analyze(e)
    hs = hilbert_function(e, rep.nu)
    assert 1 <= rep.nu <= rep.e - 1
    assert hs[rep.nu] == rep.e
    assert all(h < rep.e for h in hs[:rep.nu])
    assert rep.rho == sum(rep.e - h for h in hs)


@pytest.mark.parametrize("gens,ideal_gens", IDEAL_ZOO)
def test_rho_is_the_genus_drop(gens, ideal_gens):
    s, e = pair(gens, ideal_gens)
    rep = analyze(e)
    assert rep.rho == s.genus - rep.delta_lambda
    assert rep.rho == length_between(rep.lam, s.as_ideal())
    # from the reduction exponent on, colengths of powers are linear in n
    for n in range(rep.nu, rep.nu + 4):
        assert length_between(s.as_ideal(), rep.power(n)) == rep.e * n - rep.rho


@pytest.mark.parametrize("gens,ideal_gens", IDEAL_ZOO)
def test_powers_match_brute_sums(gens, ideal_gens):
    s, e = pair(gens, ideal_gens)
    rep = analyze(e)
    # past nu + 1 the powers are shifts of nuE; the oracle sums them
    for k, brute in enumerate(brute_powers(s, ideal_gens, rep.nu + 4)):
        assert (rep.power(k).members, rep.power(k).frontier) == brute
    assert power(e, 0) == s.as_ideal()
    with pytest.raises(ValueError):
        power(e, -1)


@pytest.mark.parametrize("gens,ideal_gens", IDEAL_ZOO)
def test_blowup_matches_iterated_quotients(gens, ideal_gens):
    s, e = pair(gens, ideal_gens)
    rep = analyze(e)
    lam_oracle, stage = iterated_blowup(s.small_elements, s.conductor,
                                        ideal_gens)
    assert (rep.lam.members, rep.lam.frontier) == lam_oracle
    assert stage == rep.nu
    assert blowup_lambda(e) == rep.lam


@pytest.mark.parametrize("gens,ideal_gens", IDEAL_ZOO)
def test_colon_of_blowup_contains_top_power(gens, ideal_gens):
    s, e = pair(gens, ideal_gens)
    rep = analyze(e)
    top = rep.power(rep.nu)
    assert rep.r_colon_lambda.contains(top)
    assert rep.r_colon_is_power == (rep.r_colon_lambda == top)
    assert rep.conductor_in_power == (top.frontier <= s.conductor)
    assert rep.d >= 0
    n = len(s.small_elements) - 1
    assert all(1 <= i <= n for i in rep.gamma_set)
    assert s.small_elements[rep.i0] == rep.r_colon_lambda.min_element


@pytest.mark.parametrize("gens,ideal_gens", IDEAL_ZOO)
def test_gamma_and_its_complement_split_the_small_elements(gens, ideal_gens):
    s, e = pair(gens, ideal_gens)
    rep = analyze(e)
    n = len(s.small_elements) - 1
    assert sorted(rep.gamma_set + rep.outside_gamma) == list(range(1, n + 1))
    assert rep.gamma_set == tuple(i for i in range(1, n + 1)
                                  if s.small_elements[i - 1] in rep.r_colon_lambda)
    entries = type_sequence(s).entries
    assert rep.sum_gamma == sum(entries[i - 1] for i in rep.gamma_set)
    assert rep.sum_not_gamma == sum(entries[i - 1] for i in rep.outside_gamma)
    assert rep.sum_not_gamma_excess == sum(entries[i - 1] - 1 for i in rep.outside_gamma)


@pytest.mark.parametrize("gens,ideal_gens", IDEAL_ZOO)
def test_closure_chain(gens, ideal_gens):
    s, e = pair(gens, ideal_gens)
    refl = bidual(e)
    tilde = canonical_closure(e)
    bar = integral_closure(e)
    assert refl.contains(e)
    assert tilde.contains(refl)
    assert bar.contains(tilde)
    assert s.as_ideal().contains(bar)


def test_small_semigroup_blowup_hits_normalization_late():
    # the first quotient stage can be strictly below the blow-up
    s = NumericalSemigroup.from_generators([3, 4, 5])
    e = ValueIdeal.generated_by(s, [3, 4])
    assert e.colon(e) == s.as_ideal()
    assert blowup_lambda(e) == s.normalization()
    assert analyze(e).nu == 2


def test_condition_groups_are_coherent():
    for gens, ideal_gens in IDEAL_ZOO:
        s, e = pair(gens, ideal_gens)
        conds = check_conditions_a_b(e)
        assert conds.a1 == conds.a2 == conds.a3 == conds.a4 == conds.a5 \
            == conds.a6 == conds.holds_a
        assert conds.b1 == conds.b2 == conds.holds_b
        assert conds.holds_a == (conds.holds_b
                                 and conds.colon_inside_omega_dual)


def _a4_by_sums(a):
    """A4 scanned over powers built by the public k-fold sums."""
    k, s_ideal = a.ring.k, a.ring.s_ideal
    p = power(a.ideal, a.nu)
    while True:
        if (p + k).intersect(s_ideal) != p:
            return False
        if p.min_element >= a.c:
            return True
        p = p + a.ideal


@pytest.mark.parametrize("gens", [(3, 101), (5, 103), (7, 50)])
def test_a4_scan_matches_sums_at_large_windows(gens):
    a = analyze(NumericalSemigroup.from_generators(gens).maximal_ideal())
    assert a.c >= 200
    assert a.conditions.a4 == _a4_by_sums(a)


def test_verify_many_at_a_large_conductor():
    m = NumericalSemigroup.from_generators([3, 4001]).maximal_ideal()
    assert m.carrier.conductor == 8000
    assert not [v for v in verify_many(m) if v.status == "failed"]


def test_a_blowup_equal_to_s_is_an_internal_error():
    a = analyze(NumericalSemigroup.from_generators([3, 4, 5]).maximal_ideal())
    a.lam = a.ring.s_ideal
    with pytest.raises(InvariantViolation):
        a.cross_check()


COHERENT = dict(a1=True, a2=True, a3=True, a4=True, a5=True, a6=True,
                b1=True, b2=True, colon_inside_omega_dual=True)


@pytest.mark.parametrize("broken", [{"a3": False}, {"b2": False},
                                    {"colon_inside_omega_dual": False}])
def test_an_incoherent_report_is_an_equivalence_violation(broken):
    assert ConditionsReport(**COHERENT).coherent
    values = {**COHERENT, **broken}
    report = ConditionsReport(**values)
    assert not report.coherent
    a = analyze(NumericalSemigroup.from_generators([3, 4, 5]).maximal_ideal())
    a.conditions = report
    assert STATEMENTS["Prop2.9"](a).status == "failed"
    with pytest.raises(EquivalenceViolation) as info:
        a.cross_check()
    assert all(f"{name}={value}" in str(info.value) for name, value in values.items())


def test_almost_gorenstein_forces_the_bridge():
    for gens in [(3, 4), (3, 4, 5), (4, 5, 6, 7), (10, 23, 55, 58, 82)]:
        s = NumericalSemigroup.from_generators(gens)
        assert classify(s).almost_gorenstein
        conds = check_conditions_a_b(s.maximal_ideal())
        assert conds.colon_inside_omega_dual


def test_known_h_polynomial():
    s = NumericalSemigroup.from_generators([10, 23, 55, 58, 82])
    h = h_polynomial(s.maximal_ideal())
    assert h.coefficients == (1, 4, 1, 2, 2)
    assert h.nu == 4 and h.rho == 20 and h.e == 10
    assert not h.symmetric


def test_h_symmetry_is_read_once_and_matches_a_walk_over_the_coefficients():
    # over <4,5,11> both kinds occur, and (1,2,0,1) has equal ends yet is not symmetric
    s = NumericalSemigroup.from_generators([4, 5, 11])
    for e in enumerate_ideals(s):
        h = h_polynomial(e)
        c = h.coefficients
        expected = all(c[i] == c[h.nu - i] for i in range(h.nu + 1))
        assert h.symmetric == expected
        # cached beside the fields, which alone make up ==, hash and repr
        assert vars(h)["symmetric"] == expected
        plain = HPolynomial(**{f.name: getattr(h, f.name) for f in fields(h)})
        assert plain == h and hash(plain) == hash(h) and repr(plain) == repr(h)
        assert "symmetric" not in repr(h)


def test_improper_inputs_are_rejected():
    s = NumericalSemigroup.from_generators([3, 4])
    with pytest.raises(PrincipalIdeal):
        analyze(ValueIdeal.generated_by(s, [6]))
    with pytest.raises(NotProper):
        analyze(s.as_ideal())
    from sgblow.invariants import canonical_ideal
    with pytest.raises(NotProper):
        analyze(canonical_ideal(NumericalSemigroup.from_generators([3, 5, 7])))
