"""Catalog of checkable identities tying type sequences to blow-up data.

Every statement is a function of a shared Analysis bundle (ring-level
quantities on its a.ring) and returns a TheoremVerdict: held, failed, or
vacuous when its hypotheses are not met.  A verdict is an immutable tuple
record, and the vacuous verdict of a statement is one shared object.
Inequalities and identities are evaluated in exact integer arithmetic;
fractional forms are cross-multiplied so nothing ever rounds.

Statement ids follow the external naming contract (Thm4.7.1, Prop6.9.2, ...).
A bare group id like "Thm4.7" expands to all of its parts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .blowup import Analysis
from .core import ValueIdeal, length_between
from .errors import InvariantViolation, UnknownStatement
from .invariants import integral_closure, is_reflexive


class TheoremVerdict(NamedTuple):
    """One statement's verdict on one pair.

    Equality is type-strict: a verdict equals only another verdict with the
    same fields, never a plain tuple of them.  The hash is the field tuple's.
    """

    statement_id: str
    hypotheses_met: bool
    holds: bool
    status: str
    lhs: object = None
    rhs: object = None
    witness: dict | None = None
    notes: str = ""

    def __eq__(self, other):
        if other.__class__ is TheoremVerdict:
            return tuple.__eq__(self, other)
        # a plain tuple would otherwise fall back to tuple equality
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's own test
    __hash__ = tuple.__hash__


@lru_cache(maxsize=None)
def _vacuous(sid: str, notes: str) -> TheoremVerdict:
    """The one vacuous verdict of a statement; verdicts are immutable, so
    every pair that misses the hypotheses shares it."""
    return TheoremVerdict(sid, False, True, "vacuous", None, None, None, notes)


def _verdict(sid: str, hyp: bool, ok: bool = True, *, lhs=None, rhs=None,
             notes: str = "") -> TheoremVerdict:
    if not hyp:
        return _vacuous(sid, notes)
    # tuple.__new__ skips the argument handling of TheoremVerdict(...)
    if ok:
        return tuple.__new__(TheoremVerdict, (sid, True, True, "held", lhs, rhs, None, notes))
    return tuple.__new__(TheoremVerdict, (sid, True, False, "failed", lhs, rhs,
                                          {"lhs": lhs, "rhs": rhs}, notes))


# ---- groups of equivalent closure conditions ----


def _prop2_9(a: Analysis) -> TheoremVerdict:
    c = a.conditions
    values = (c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.b1, c.b2,
              c.colon_inside_omega_dual)
    return _verdict("Prop2.9", True, c.coherent, lhs=values,
                    notes="closure conditions: both groups agree internally "
                          "and across the bridge")


# ---- conductor comparisons ----


def _prop3_2_1(a: Analysis) -> TheoremVerdict:
    return _verdict("Prop3.2.1", True, a.c - a.c_lambda <= a.e * a.nu,
                    lhs=a.c - a.c_lambda, rhs=a.e * a.nu)


def _prop3_2_2(a: Analysis) -> TheoremVerdict:
    gap = a.ring.n - a.n_lambda
    mid = a.c - a.c_lambda - a.rho
    diagram = a.power_nu.frontier == a.nu * a.e + a.c_lambda
    third = a.e * a.nu - a.rho - a.len_gammar_over_conductor_power
    ok = diagram and gap == mid and mid == third and gap <= a.len_r_over_power_nu
    return _verdict("Prop3.2.2", True, ok, lhs=gap, rhs=mid,
                    notes="two-sided chain; also pins the conductor of the "
                          "nu-th power at nu*e + c_Lambda")


def _prop3_2_3(a: Analysis) -> TheoremVerdict:
    p1 = a.c - a.c_lambda == a.e * a.nu
    p2 = a.c == a.nu * a.e + a.c_lambda
    p3 = a.conductor_in_power
    p4 = a.ring.n - a.n_lambda == a.len_r_over_power_nu
    ok = p1 == p2 == p3 == p4
    return _verdict("Prop3.2.3", True, ok, lhs=(p1, p2, p3, p4),
                    notes="four equivalent forms of the extremal conductor gap")


def _rmk3_3_1(a: Analysis) -> TheoremVerdict:
    gap = a.ring.n - a.n_lambda
    ok = gap >= -a.rho and (not a.is_max_ideal or gap >= a.e - a.rho)
    return _verdict("Rmk3.3.1", True, ok, lhs=gap,
                    rhs=(a.e - a.rho if a.is_max_ideal else -a.rho))


def _lemma3_4(a: Analysis) -> TheoremVerdict:
    hyp = a.r_colon_is_power
    if not hyp:
        return _verdict("Lemma3.4", False)
    ok = (a.c - a.c_lambda == a.e * a.nu) and a.conditions.b1
    return _verdict("Lemma3.4", True, ok,
                    lhs=a.c - a.c_lambda, rhs=a.e * a.nu,
                    notes="colon equal to the power forces the extremal gap "
                          "and reflexivity of the blow-up")


def _prop3_5_1(a: Analysis) -> TheoremVerdict:
    lhs = 2 * a.rho
    rhs = (a.e * a.nu + (2 * a.delta - a.c)
           - a.len_rcolon_over_power_nu - a.len_omega_over_lambda)
    return _verdict("Prop3.5.1", True, lhs == rhs, lhs=lhs, rhs=rhs)


def _prop3_5_2(a: Analysis) -> TheoremVerdict:
    p1 = 2 * a.rho == a.e * a.nu + (2 * a.delta - a.c)
    p2 = a.lambda_gorenstein and a.c - a.c_lambda == a.e * a.nu
    p3 = a.r_colon_is_power and a.omega_lambda == a.lam
    p4 = a.r_colon_is_power and a.ring.r_colon_omega.contains(a.r_colon_lambda)
    ok = p1 == p2 == p3 == p4
    return _verdict("Prop3.5.2", True, ok, lhs=(p1, p2, p3, p4))


# ---- the defect d and type-sequence sums ----


def _prop4_2(a: Analysis) -> TheoremVerdict:
    ok = (a.len_rbar_over_omega <= a.sum_gamma <= a.len_rbar_over_bidual
          and len(a.gamma_set) == a.len_rbar_over_omega)
    return _verdict("Prop4.2", True, ok,
                    lhs=(a.len_rbar_over_omega, a.sum_gamma,
                         a.len_rbar_over_bidual),
                    notes="sandwich for the Gamma sum; Gamma size matches "
                          "the covolume of omega Lambda")


def _prop4_3_1(a: Analysis) -> TheoremVerdict:
    rhs = a.len_omega_over_bidual - (a.sum_gamma - len(a.gamma_set))
    return _verdict("Prop4.3.1", True, a.d == rhs, lhs=a.d, rhs=rhs)


def _prop4_3_2(a: Analysis) -> TheoremVerdict:
    hyp = a.lam_bidual.contains(a.ring.k)
    alt = a.ring.r_colon_omega.contains(a.r_colon_lambda)
    if hyp != alt:
        raise InvariantViolation("the two hypothesis forms must agree")
    if not hyp:
        return _verdict("Prop4.3.2", False)
    return _verdict("Prop4.3.2", True, a.d == 0, lhs=a.d, rhs=0)


def _prop4_3_3(a: Analysis) -> TheoremVerdict:
    tail = sum(a.ring.ts.entries[i - 1] for i in a.outside_gamma if i > a.i0)
    rhs = tail - a.len_bidual_over_rstar
    return _verdict("Prop4.3.3", True, a.d == rhs, lhs=a.d, rhs=rhs)


def _prop4_3_4(a: Analysis) -> TheoremVerdict:
    closed = integral_closure(a.r_colon_lambda) == a.r_colon_lambda
    if closed != (a.r_colon_lambda == a.r_filter_i0):
        raise InvariantViolation("integral closedness of the colon must mean "
                                 "it is a full value filter")
    if not closed:
        return _verdict("Prop4.3.4", False)
    return _verdict("Prop4.3.4", True, a.d == 0, lhs=a.d, rhs=0)


def _thm4_4_1(a: Analysis) -> TheoremVerdict:
    rhs = a.sum_not_gamma - a.len_bidual_over_lambda - a.d
    bound = a.r * a.len_r_over_rcolon
    ok = a.rho == rhs and a.rho <= bound
    return _verdict("Thm4.4.1", True, ok, lhs=a.rho, rhs=rhs,
                    notes=f"upper bound r*l(R/R:Lambda) = {bound}")


def _thm4_4_2(a: Analysis) -> TheoremVerdict:
    head = sum(a.ring.ts.entries[i - 1] for i in range(1, a.i0 + 1))
    rhs = head - a.len_bidual_over_lambda + a.len_bidual_over_rstar
    return _verdict("Thm4.4.2", True, a.rho == rhs, lhs=a.rho, rhs=rhs)


def _rmk4_5(a: Analysis) -> TheoremVerdict:
    extremal = a.rho == a.r * a.len_r_over_rcolon
    flat = all(a.ring.ts.entries[i - 1] == a.r for i in a.outside_gamma)
    rhs = flat and a.conditions.b1 and a.d == 0
    return _verdict("Rmk4.5", True, extremal == rhs, lhs=extremal, rhs=rhs)


def _cor4_6_1(a: Analysis) -> TheoremVerdict:
    lhs = a.e * a.nu + a.r * a.len_rcolon_over_power_nu
    rhs = (a.r + 1) * a.len_r_over_power_nu
    return _verdict("Cor4.6.1", True, lhs <= rhs, lhs=lhs, rhs=rhs)


def _cor4_6_2(a: Analysis) -> TheoremVerdict:
    if not a.h.symmetric:
        return _verdict("Cor4.6.2", False)
    lhs = 2 * a.r * a.len_rcolon_over_power_nu
    rhs = (a.r - 1) * a.e * a.nu
    return _verdict("Cor4.6.2", True, lhs <= rhs, lhs=lhs, rhs=rhs)


def _thm4_7_1(a: Analysis) -> TheoremVerdict:
    lhs = 2 * a.rho
    rhs = (a.e * a.nu + a.sum_not_gamma_excess - a.d
           - a.len_bidual_over_lambda - a.len_rcolon_over_power_nu)
    return _verdict("Thm4.7.1", True, lhs == rhs, lhs=lhs, rhs=rhs)


def _thm4_7_2(a: Analysis) -> TheoremVerdict:
    flat = 2 * a.rho == a.e * a.nu + a.sum_not_gamma_excess
    tight = a.r_colon_is_power and a.d == 0
    return _verdict("Thm4.7.2", True, flat == tight, lhs=flat, rhs=tight)


# ---- almost Gorenstein refinements ----


def _prop5_1(a: Analysis) -> TheoremVerdict:
    matches = (a.ideal + a.ring.k) == a.ideal_bidual and a.ring.maximal_probe
    ok = a.ring.ring_class.almost_gorenstein == matches
    return _verdict("Prop5.1", True, ok,
                    lhs=a.ring.ring_class.almost_gorenstein, rhs=matches,
                    notes="probed on the tested ideal and the maximal ideal; "
                          "the maximal ideal alone decides the converse")


def _cor5_2(a: Analysis) -> TheoremVerdict:
    if not a.ring.ring_class.almost_gorenstein:
        return _verdict("Cor5.2", False)
    first = a.lam_bidual == a.omega_lambda and a.d == 0
    rhs = a.r - 1 + a.len_r_over_rcolon - a.len_bidual_over_lambda
    ok = first and a.rho == rhs
    return _verdict("Cor5.2", True, ok, lhs=a.rho, rhs=rhs)


def _thm5_3_1(a: Analysis) -> TheoremVerdict:
    if not a.ring.ring_class.almost_gorenstein:
        return _verdict("Thm5.3.1", False)
    lhs = 2 * a.rho
    rhs = (a.e * a.nu + a.r - 1
           - a.len_rcolon_over_power_nu - a.len_bidual_over_lambda)
    return _verdict("Thm5.3.1", True, lhs == rhs, lhs=lhs, rhs=rhs)


def _thm5_3_2(a: Analysis) -> TheoremVerdict:
    if not a.ring.ring_class.almost_gorenstein:
        return _verdict("Thm5.3.2", False)
    p1 = 2 * a.rho == a.e * a.nu + a.r - 1
    p2 = a.lambda_gorenstein and a.c - a.c_lambda == a.e * a.nu
    p3 = a.r_colon_is_power
    p4 = a.k_colon_lambda == a.power_nu
    ok = (p1 == p2 == p3 == p4) and (not p1 or a.conditions.a1)
    return _verdict("Thm5.3.2", True, ok, lhs=(p1, p2, p3, p4),
                    notes="when the conditions hold, the canonical ideal "
                          "sits inside the blow-up")


def _cor5_4(a: Analysis) -> TheoremVerdict:
    hyp = a.ring.ring_class.almost_gorenstein and a.h.symmetric
    if not hyp:
        return _verdict("Cor5.4", False)
    gap = a.len_rcolon_over_power_nu
    ok = gap <= a.r - 1 and ((gap == a.r - 1) == a.conditions.b1)
    return _verdict("Cor5.4", True, ok, lhs=gap, rhs=a.r - 1)


def _cor5_5(a: Analysis) -> TheoremVerdict:
    hyp = a.ring.ring_class.gorenstein and a.h.symmetric
    if not hyp:
        return _verdict("Cor5.5", False)
    ok = (2 * a.rho == a.e * a.nu + a.r - 1
          and a.r_colon_is_power)
    return _verdict("Cor5.5", True, ok, lhs=2 * a.rho,
                    rhs=a.e * a.nu + a.r - 1)


def _cor5_6(a: Analysis) -> TheoremVerdict:
    if not a.ring.ring_class.almost_gorenstein:
        return _verdict("Cor5.6", False)
    conductor_is_power = a.ring.conductor_ideal == a.power_nu
    rhs = a.lam_is_normalization and 2 * a.delta == a.e * a.nu + a.r - 1
    return _verdict("Cor5.6", True, conductor_is_power == rhs,
                    lhs=conductor_is_power, rhs=rhs,
                    notes="the conductor ideal of the ring is the one compared "
                          "against the nu-th power")


def _rmk5_8(a: Analysis) -> TheoremVerdict:
    if not a.ring.ring_class.almost_gorenstein:
        return _verdict("Rmk5.8", False)
    refl = a.ideal_reflexive
    rhs = a.ideal.colon(a.ideal).contains(a.ring.dual_m)
    return _verdict("Rmk5.8", True, refl == rhs, lhs=refl, rhs=rhs)


def _thm5_9_1(a: Analysis) -> TheoremVerdict:
    if not a.ring.ring_class.almost_gorenstein:
        return _verdict("Thm5.9.1", False)
    c1 = a.lam.contains(a.ring.dual_m)
    # every power past nu is nuE translated and (E+z)** = E** + z, so the
    # powers from nu on are all reflexive or none is: one test reads all three
    c2 = is_reflexive(a.power_nu)
    ok = c1 == c2 == a.conditions.a1 == a.conditions.b1
    return _verdict("Thm5.9.1", True, ok, lhs=(c1, c2, c2, c2),
                    notes="reflexivity of the powers; equivalent to both "
                          "closure-condition groups")


def _thm5_9_2(a: Analysis) -> TheoremVerdict:
    hyp = a.ring.ring_class.almost_gorenstein and a.ideal_reflexive
    if not hyp:
        return _verdict("Thm5.9.2", False)
    ok = (a.conditions.a1 and a.conditions.b1
          and a.lam.contains(a.ring.dual_m))
    return _verdict("Thm5.9.2", True, ok, lhs=ok)


# ---- the maximal-ideal case ----


def _rmk6_1(a: Analysis) -> TheoremVerdict:
    if not a.is_max_ideal:
        return _verdict("Rmk6.1", False)
    shifted_dual = a.ring.dual_m.shift(a.e)
    rhs = (length_between(shifted_dual, a.r_colon_lambda)
           + (a.e - a.r))
    ok = a.len_r_over_rcolon == rhs
    if a.ring.ring_class.almost_gorenstein:
        ok = ok and a.conditions.b1
    return _verdict("Rmk6.1", True, ok, lhs=a.len_r_over_rcolon, rhs=rhs)


def _rmk6_2(a: Analysis) -> TheoremVerdict:
    if not a.is_max_ideal:
        return _verdict("Rmk6.2", False)
    stable = a.lam == a.ring.m_ideal.colon(a.ring.m_ideal)
    forms = (stable, a.e == a.mu, a.rho == a.e - 1, a.r == a.e - 1)
    ok = len(set(forms)) == 1
    return _verdict("Rmk6.2", True, ok, lhs=forms)


def _prop6_3(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.e == a.mu
    if not hyp:
        return _verdict("Prop6.3", False)
    ok = a.ring.ring_class.almost_gorenstein == a.lambda_gorenstein
    return _verdict("Prop6.3", True, ok,
                    lhs=a.ring.ring_class.almost_gorenstein,
                    rhs=a.lambda_gorenstein)


def _lemma6_4_3(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.r == a.e - 2
    if not hyp:
        return _verdict("Lemma6.4.3", False)
    cube = a.power(3)
    ok = a.ring.m_ideal.shift(a.e).contains(cube)
    return _verdict("Lemma6.4.3", True, ok,
                    notes="the cube of the maximal ideal falls into its "
                          "multiplicity translate")


def _prop6_5_1(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.r == a.e - 2
    if not hyp:
        return _verdict("Prop6.5.1", False)
    return _verdict("Prop6.5.1", True, a.e == a.mu + 1, lhs=a.e, rhs=a.mu + 1)


def _prop6_5_2(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.e == a.mu + 1
    if not hyp:
        return _verdict("Prop6.5.2", False)
    gap = length_between(a.ring.dual_m.shift(a.e), a.r_colon_lambda)
    return _verdict("Prop6.5.2", True, gap == 1, lhs=gap, rhs=1)


def _thm6_6(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.e == a.mu + 1
    if not hyp:
        return _verdict("Thm6.6", False)
    rhs = a.r - 1 + (a.e - 1) * (a.nu - 2)
    return _verdict("Thm6.6", True, a.len_rcolon_over_power_nu == rhs,
                    lhs=a.len_rcolon_over_power_nu, rhs=rhs)


def _cor6_7_1(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.e == a.mu + 1
    if not hyp:
        return _verdict("Cor6.7.1", False)
    lhs = a.r_colon_is_power
    rhs = a.ring.ring_class.gorenstein and a.nu == 2
    return _verdict("Cor6.7.1", True, lhs == rhs, lhs=lhs, rhs=rhs)


def _cor6_7_2(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.e == a.mu + 1
    if not hyp:
        return _verdict("Cor6.7.2", False)
    lhs = sum(a.ring.ts.entries[i - 1] - 1 for i in a.outside_gamma if i >= 2)
    rhs = a.d + a.len_bidual_over_lambda + (a.nu - 2)
    return _verdict("Cor6.7.2", True, lhs == rhs, lhs=lhs, rhs=rhs)


def _cor6_7_3(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.e == a.mu + 1
    if not hyp:
        return _verdict("Cor6.7.3", False)
    rhs = a.nu == 2 and a.omega_lambda == a.lam
    return _verdict("Cor6.7.3", True,
                    a.ring.ring_class.almost_gorenstein == rhs,
                    lhs=a.ring.ring_class.almost_gorenstein, rhs=rhs)


def _cor6_7u(a: Analysis) -> TheoremVerdict:
    if not a.is_max_ideal:
        return _verdict("Cor6.7u", False)
    lhs = a.r == a.e - 2 and a.r_colon_is_power
    rhs = a.ring.ring_class.gorenstein and a.e == 3
    return _verdict("Cor6.7u", True, lhs == rhs, lhs=lhs, rhs=rhs)


def _rmk6_8(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.nu == 2
    if not hyp:
        return _verdict("Rmk6.8", False)
    rhs = 2 * a.e - a.mu - 1
    return _verdict("Rmk6.8", True, a.rho == rhs, lhs=a.rho, rhs=rhs)


def _prop6_9_1(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.nu == 2
    if not hyp:
        return _verdict("Prop6.9.1", False)
    lhs = 2 * a.e + a.r * a.len_rcolon_over_power_nu
    rhs = (a.r + 1) * (a.mu + 1)
    return _verdict("Prop6.9.1", True, lhs <= rhs, lhs=lhs, rhs=rhs)


def _prop6_9_2(a: Analysis) -> TheoremVerdict:
    hyp = (a.is_max_ideal and a.nu == 2
           and a.ring.ring_class.almost_gorenstein)
    if not hyp:
        return _verdict("Prop6.9.2", False)
    lhs = 2 * (a.e - a.mu - 1)
    rhs = (a.r - 1) - a.len_rcolon_over_power_nu
    ok = lhs == rhs
    if a.ring.ring_class.gorenstein:
        ok = ok and a.e == a.mu + 1 and a.r_colon_is_power
    if a.ring.ring_class.kunz:
        ok = ok and a.e == a.mu + 1 and a.len_rcolon_over_power_nu == 1
    return _verdict("Prop6.9.2", True, ok, lhs=lhs, rhs=rhs,
                    notes="with the Gorenstein and Kunz specializations "
                          "folded in")


def _cor6_10(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.ring.ring_class.gorenstein
    if not hyp:
        return _verdict("Cor6.10", False)
    square = a.power(2)
    forms = (a.e == a.mu + 1, a.nu == 2, a.r_colon_lambda == square)
    ok = len(set(forms)) == 1
    return _verdict("Cor6.10", True, ok, lhs=forms,
                    notes="the colon is compared against the literal square, "
                          "not the nu-th power")


def _prop6_11(a: Analysis) -> TheoremVerdict:
    if not a.is_max_ideal:
        return _verdict("Prop6.11", False)
    square = a.power(2)
    lhs = a.ring.conductor_ideal == square
    rhs = (a.lam_is_normalization
           and 2 * (a.e - a.mu - 1) == 2 * a.delta - a.c
           and a.nu == 2)
    return _verdict("Prop6.11", True, lhs == rhs, lhs=lhs, rhs=rhs)


def _prop6_13_1(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.nu == 3 and a.r == 2
    if not hyp:
        return _verdict("Prop6.13.1", False)
    hilbert2 = length_between(a.power(2), a.power(3))
    lhs = 3 * (a.e - a.mu - 1) + 2 * a.len_rcolon_over_power_nu
    rhs = 3 * hilbert2
    return _verdict("Prop6.13.1", True, lhs <= rhs, lhs=lhs, rhs=rhs,
                    notes="colon length taken over the cube, matching the "
                          "derivation from the general power inequality")


def _prop6_13_2(a: Analysis) -> TheoremVerdict:
    hyp = a.is_max_ideal and a.nu == 3 and a.h.symmetric
    if not hyp:
        return _verdict("Prop6.13.2", False)
    lhs = a.r * a.len_rcolon_over_power_nu
    rhs = 3 * a.mu * (a.r - 1)
    return _verdict("Prop6.13.2", True, lhs <= rhs, lhs=lhs, rhs=rhs)


def _prop6_13_3(a: Analysis) -> TheoremVerdict:
    hyp = (a.is_max_ideal and a.nu == 3
           and a.ring.ring_class.almost_gorenstein)
    if not hyp:
        return _verdict("Prop6.13.3", False)
    rhs = (a.len_rcolon_over_power_nu == a.r - 1 and a.e == 2 * a.mu)
    return _verdict("Prop6.13.3", True, a.h.symmetric == rhs,
                    lhs=a.h.symmetric, rhs=rhs)


def _cor6_14(a: Analysis) -> TheoremVerdict:
    hyp = (a.is_max_ideal and a.ring.ring_class.almost_gorenstein
           and a.e == 2 * a.mu)
    if not hyp:
        return _verdict("Cor6.14", False)
    lhs = a.r_colon_is_power
    rhs = 2 * a.rho == 2 * a.nu * a.mu + a.r - 1
    return _verdict("Cor6.14", True, lhs == rhs, lhs=lhs, rhs=rhs)


STATEMENTS = {
    "Prop2.9": _prop2_9,
    "Prop3.2.1": _prop3_2_1,
    "Prop3.2.2": _prop3_2_2,
    "Prop3.2.3": _prop3_2_3,
    "Rmk3.3.1": _rmk3_3_1,
    "Lemma3.4": _lemma3_4,
    "Prop3.5.1": _prop3_5_1,
    "Prop3.5.2": _prop3_5_2,
    "Prop4.2": _prop4_2,
    "Prop4.3.1": _prop4_3_1,
    "Prop4.3.2": _prop4_3_2,
    "Prop4.3.3": _prop4_3_3,
    "Prop4.3.4": _prop4_3_4,
    "Thm4.4.1": _thm4_4_1,
    "Thm4.4.2": _thm4_4_2,
    "Rmk4.5": _rmk4_5,
    "Cor4.6.1": _cor4_6_1,
    "Cor4.6.2": _cor4_6_2,
    "Thm4.7.1": _thm4_7_1,
    "Thm4.7.2": _thm4_7_2,
    "Prop5.1": _prop5_1,
    "Cor5.2": _cor5_2,
    "Thm5.3.1": _thm5_3_1,
    "Thm5.3.2": _thm5_3_2,
    "Cor5.4": _cor5_4,
    "Cor5.5": _cor5_5,
    "Cor5.6": _cor5_6,
    "Rmk5.8": _rmk5_8,
    "Thm5.9.1": _thm5_9_1,
    "Thm5.9.2": _thm5_9_2,
    "Rmk6.1": _rmk6_1,
    "Rmk6.2": _rmk6_2,
    "Prop6.3": _prop6_3,
    "Lemma6.4.3": _lemma6_4_3,
    "Prop6.5.1": _prop6_5_1,
    "Prop6.5.2": _prop6_5_2,
    "Thm6.6": _thm6_6,
    "Cor6.7.1": _cor6_7_1,
    "Cor6.7.2": _cor6_7_2,
    "Cor6.7.3": _cor6_7_3,
    "Cor6.7u": _cor6_7u,
    "Rmk6.8": _rmk6_8,
    "Prop6.9.1": _prop6_9_1,
    "Prop6.9.2": _prop6_9_2,
    "Cor6.10": _cor6_10,
    "Prop6.11": _prop6_11,
    "Prop6.13.1": _prop6_13_1,
    "Prop6.13.2": _prop6_13_2,
    "Prop6.13.3": _prop6_13_3,
    "Cor6.14": _cor6_14,
}


def catalog_ids() -> tuple[str, ...]:
    return tuple(STATEMENTS)


def expand_statement_ids(requested) -> tuple[str, ...]:
    """Resolve exact ids and group prefixes like "Thm4.7" to catalog ids."""
    names: list[str] = []
    for raw in requested:
        sid = raw.strip()
        hits = [sid] if sid in STATEMENTS else [
            name for name in STATEMENTS if name.startswith(sid + ".") or name == sid + "u"]
        if not hits:
            raise UnknownStatement(f"no statement matches {sid!r}")
        names.extend(hits)
    return tuple(dict.fromkeys(names))


@lru_cache(maxsize=64)
def _resolved_ids(requested: tuple[str, ...]) -> tuple[str, ...]:
    """expand_statement_ids, once per distinct request."""
    return expand_statement_ids(requested)


def verify_statement(statement_id: str, e: ValueIdeal) -> TheoremVerdict:
    if statement_id not in STATEMENTS:
        raise UnknownStatement(f"no statement named {statement_id!r}")
    return STATEMENTS[statement_id](Analysis.of(e))


def verify_many(e: ValueIdeal, statement_ids=None) -> list[TheoremVerdict]:
    """Run several statements against one shared analysis."""
    names = catalog_ids() if statement_ids is None else _resolved_ids(tuple(statement_ids))
    shared = Analysis.of(e)
    return [STATEMENTS[name](shared) for name in names]
