"""Blow-up analysis of a proper ideal over a numerical semigroup.

For a non-principal ideal E inside the maximal ideal, the multiplicity is
e = min E (a monomial minimal reduction always exists in this model), the
Hilbert function H(n) counts nE minus (n+1)E, the reduction exponent nu is
the first n with H(n) = e, and the blow-up Lambda is the colon quotient
nuE - nuE, where the stages nE - nE stabilize.  From nu on the powers are
translates: (n+1)E = e + nE, so only the powers up to nu+1 are sums and
every later one is nuE shifted.

Lambda is computed twice: as the stage nuE - nuE, and independently as the
semigroup generated by S together with E shifted down by its minimum.
That semigroup contains S, so it is full from c on: the second route
closes S's own mask under the shifted minimal generators on the window
[0, c).  Both routes must agree; disagreement raises InvariantViolation.

Analysis is the one object per (semigroup, ideal) pair.  A translate
E + d of E has the same stages, Lambda and E - E, and its powers and
K + nuE are E's moved by multiples of d: + and colon read only masks, so
building them again would repeat the same integer operations.  So what a
translation only moves is one record per translation class E - min E
over S, kept in a.ring.translates and built whole by _Translates from the
first pair of the class: the powers S, E, ..., (nu+1)E by sums, nu, the
check that (nu+1)E = e + nuE, the stages with Lambda, both scans that
must reach Lambda at nu, the generated route, the lookup of Lambda's
record, K + nuE, A5, A6, whether E is reflexive and whether K + E = E**.
The stages nE - nE are one scan, and its first, E - E, is what Rmk5.8
and Rmk6.2 read.  K + E and E** are taken by the build and not kept:
K + E serves A6 and, compared with E**, Prop5.1, and E** decides whether
E is reflexive.  K + nuE serves A4, A5 and A6, which sums the K + nE
between only while it scans; when nu = 1, K + nuE is K + E.  For E = M
the build reads the ring's M + K and M** instead of summing and
dualizing itself.

The record protocol.  A translation record is plain prepared data,
written by its build and never after: base (min E), powers and hilbert
(E's own H), k_nu (K + nuE), and what a pair takes as it is.  Its
mapping, fixed, holds every Analysis attribute the class fixes: the
fields of Lambda's record, nu, Lambda, E - E, r, whether E is reflexive
(ideal_reflexive), whether K + E = E** (ideal_omega_is_bidual), the
class's verdict store class_verdicts and S's notation c, delta, mu and
c_Lambda.  Its report template, conditions, holds the ConditionsReport
fields but A4.  A pair starts its instance dict as one copy of the
mapping, so an attribute set on one pair shows on no other, while the
values are shared.  Among them is the class's verdict
store, keyed by statements.Statement record: statements.verify_many reads each class-level verdict (Prop5.1, Rmk5.8,
Thm5.9.1, Thm5.9.2) from it or makes the verdict and puts it there, so
every translate of E shares it.  Whether nuE is reflexive, which only
Thm5.9.1 reads, is not on the record: it is a lazy field of the pair,
taken on the pair's own ring, and as the verdict that reads it is made
once per class, the verify path takes nuE's bidual once per class.
The length l((S:M + e)/(R:Lambda)), which Rmk6.1 and Prop6.5.2 read
when E = M, is a lazy field of the pair too, so a pair that meets both
hypotheses takes it once.

The constructor reads E's record, building and storing it on a miss, then
computes what depends on where E sits against S once, as a plain
attribute: the powers moved onto E, H with its checks (on a translate H
is taken anew and must be E's moved by d), rho against l(Lambda/R), h
(HPolynomial.of, from H, nu and rho), A4, which meets nE + K with S,
and whether E is M and the conductor lies in nuE.  It runs the pair's
cross_check as soon as what it reads is in place, and only then takes the
four quantities the pair computes for the catalog alone: whether R:Lambda
is nuE and the three lengths against nuE.  The ring-level quantities (K,
the type sequence, the class, S:M, S:K, M + K, M**) are read from the
semigroup's one Ring, a.ring, which all pairs over S share.  Ring stays lazy: dual,
canonical_ideal and integral_closure each read one of its fields, and
need not pay for the type sequence.

Many ideals of S share one blow-up, so the quantities that depend on
Lambda alone are one record per (S, Lambda), kept in a.ring.blowups:
R:Lambda, Lambda**, omega_Lambda = K + Lambda, K:Lambda, delta(Lambda),
Gamma and its complement, i0, the Lambda-level lengths, the Gamma sums,
d, the condition members A1-A3, B1, B2 and the bridge (A1 and B1 also as
the fields k_in_lambda and lambda_reflexive, which the catalog reads),
whether Lambda contains S:M, and the catalog's two Lambda-level
hypotheses, K in Lambda** and R:Lambda integrally closed.  The record is
the one place these are computed; the catalog's conjuncts only read them.
Gamma, the i in 1..n with s_(i-1) in R:Lambda, is read in one pass: as
R:Lambda lies in S and holds c + N, its membership flags on [0, c), picked
at S's members by S's own flags on [0, c), are one flag per small element
s_0..s_(n-1), and Gamma, its complement and the sum of r_i over Gamma are
what those flags select from 1..n and from the type sequence.
What involves E is in E's translation record or on the pair.
_blowup_record builds a record whole and runs Lambda's own checks before
the lengths only the catalog reads.  _Translates calls it on a miss, once
both routes to Lambda agree, and stores what it returns, so a Lambda whose
build raises is never cached and raises again on every pair with it; a
translation class whose build raises is not stored either, and raises
again on every translate.  A record is two dicts, fields keyed by Analysis
attribute and conditions keyed by ConditionsReport field.  One field is
the verdict store a.lambda_verdicts, keyed by statements.Statement record:
statements.verify_many, walking the requested ids once per pair after the
pair's cross_check, reads each Lambda-level verdict from it or makes the
verdict and puts it there, so every pair with this Lambda shares it.

The error contract: _check_proper is the pair's input check, and its
NotProper and PrincipalIdeal are domain errors (exit 2).  Any failure after
it, a NotNested from a length of sets the constructions nest included, is
a bug: Analysis raises it as an InvariantViolation on the pair (exit 3),
of which EquivalenceViolation is one kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import sub

from .core import ValueIdeal, _closure, _flags, length_between
from .errors import (
    EquivalenceViolation,
    InvariantViolation,
    NotProper,
    PrincipalIdeal,
    SgblowError,
)
from .invariants import Ring, _lazy, bidual, dual, integral_closure, ring


def power(e: ValueIdeal, k: int) -> ValueIdeal:
    """k-fold sumset; k = 0 gives the carrier itself.

    A plain loop of sums, kept as a reference that does not use the shift
    rule Analysis.power relies on past nu.
    """
    if k < 0:
        raise ValueError("power wants k >= 0")
    p = e.carrier.as_ideal()
    for _ in range(k):
        p = p + e
    return p


@dataclass(frozen=True)
class HPolynomial:
    """Numerator data of the Hilbert series of the filtration by powers.

    coefficients[i] = H(i) - H(i-1) with coefficients[0] = H(0); the degree
    is the reduction exponent nu, h(1) = e and h'(1) = rho.
    """

    coefficients: tuple[int, ...]
    hilbert: tuple[int, ...]
    e: int
    nu: int
    rho: int

    @classmethod
    def of(cls, a: "Analysis") -> "HPolynomial":
        """From the Hilbert function, nu and rho of a pair's analysis."""
        hs = a.hilbert
        coeffs = tuple(map(sub, hs, (0,) + hs))  # H(i) - H(i-1), with H(-1) = 0
        # one update of the instance dict, where the frozen __init__ would set
        # each field through object.__setattr__
        h = cls.__new__(cls)
        vars(h).update(coefficients=coeffs, hilbert=hs, e=a.e, nu=a.nu, rho=a.rho)
        return h

    @_lazy
    def symmetric(self) -> bool:
        """c_i = c_(nu-i) for every i in 0..nu; evaluated once per instance
        and kept in the instance dict, outside the fields, ==, hash and repr."""
        c, nu = self.coefficients, self.nu
        return c[:nu + 1] == c[nu::-1]


def _check_proper(e: ValueIdeal, s_ideal: ValueIdeal) -> None:
    """E must sit inside the maximal ideal of its carrier S (given as s_ideal)."""
    if not s_ideal.contains(e) or 0 in e:
        raise NotProper("blow-up analysis wants an ideal inside the maximal ideal")
    if e.is_principal():
        raise PrincipalIdeal(f"ideal generated by {e.min_element} alone is principal")


def hilbert_function(e: ValueIdeal, n_max: int) -> tuple[int, ...]:
    """H(0..n_max); constant e from nu on."""
    hs = analyze(e).hilbert
    return tuple(hs[min(n, len(hs) - 1)] for n in range(n_max + 1))


def h_polynomial(e: ValueIdeal) -> HPolynomial:
    return analyze(e).h


def blowup_lambda(e: ValueIdeal) -> ValueIdeal:
    """The blow-up of E: union of the stages nE - nE."""
    return analyze(e).lam


@dataclass(frozen=True)
class ConditionsReport:
    """The two proven-equivalent condition groups and the bridge between them.

    Group A: the canonical ideal sits inside the blow-up (six forms).
    Group B: the blow-up is reflexive (two forms).
    A holds iff B holds together with R:Lambda inside R:omega.
    """

    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a5: bool
    a6: bool
    b1: bool
    b2: bool
    colon_inside_omega_dual: bool

    @property
    def holds_a(self) -> bool:
        return self.a1

    @property
    def holds_b(self) -> bool:
        return self.b1

    @property
    def coherent(self) -> bool:
        """Group A agrees within itself, so does group B, and A holds iff B
        and the bridge do."""
        return (self.a1 == self.a2 == self.a3 == self.a4 == self.a5 == self.a6
                and self.b1 == self.b2
                and self.a1 == (self.b1 and self.colon_inside_omega_dual))


class Analysis:
    """Every quantity of one (semigroup, ideal) pair, each computed once.

    The constructor builds the pair in dependency order from the record of
    E's translation class, as the module docstring sets out, and runs
    cross_check before the quantities only the catalog reads.  Every timed
    path reads them all, so each is a plain attribute; power_nu_reflexive
    and len_shifted_dual_m_over_rcolon, which only a few statements read,
    are lazy ones.  Past nu+1 a power is nuE shifted (power); self.powers
    never grows.  An Analysis passed in place of the ideal is rebuilt from
    its ideal.  Ring-level quantities live on self.ring.
    """

    def __init__(self, e: ValueIdeal):
        if isinstance(e, Analysis):
            e = e.ideal
        s = e.carrier
        a = e.min_element
        rg = ring(s)
        s_ideal = rg.s_ideal
        _check_proper(e, s_ideal)

        # past the input check every failure is a bug on this pair
        try:
            # what a translation of E only moves is one record per class
            # E - min E on the ring, built whole by the first pair met
            key = e.bits, e.frontier - a
            tr = rg.translates.get(key)
            if tr is None:
                tr = rg.translates[key] = _Translates(rg, e)
                d, powers, hseq = 0, tr.powers, tr.hilbert
            else:
                # E is the first pair's ideal moved by d, so kE is its kE
                # moved by k*d; H(n), which moves by d, is taken anew
                d = a - tr.base
                powers = [s_ideal, e] + (
                    [p.shift(k * d) for k, p in enumerate(tr.powers[2:], 2)] if d
                    else tr.powers[2:])
                hseq = tuple(map(length_between, powers, powers[1:]))
                # l(I + d) = l(I) - d, so H_(E+d)(n) = H_E(n) + d for every n;
                # E's H reaches min E at nu alone, so this one reaches e there
                moved = tuple(h + d for h in tr.hilbert)
                if hseq != moved:
                    raise InvariantViolation(
                        f"Hilbert function of a translate is {hseq}, expected {moved}")
            fixed = tr.fixed
            rho = sum(a - h for h in hseq)
            if rho != s.genus - fixed["delta_lambda"]:
                raise InvariantViolation("rho disagrees with l(Lambda/R)")

            # every attribute the class fixes, in one copy of its mapping
            # (see the module docstring); the stores below are the pair's
            self.__dict__ = fixed.copy()
            self.ideal, self.s, self.ring = e, s, rg
            self.powers = powers
            self.hilbert = hseq
            self.rho = rho
            self.e = a
            nu = fixed["nu"]
            self.h = HPolynomial.of(self)
            self.is_max_ideal = e == rg.m_ideal
            self.power_nu = p_nu = powers[nu]
            self.conductor_in_power = p_nu.frontier <= s.conductor

            # A4 intersects with S, so it is the one member of either group
            # a translation can change
            k_nu = tr.k_nu.shift(nu * d) if d else tr.k_nu
            self.conditions = report = ConditionsReport.__new__(ConditionsReport)
            vars(report).update(tr.conditions, a4=self._holds_a4(k_nu))
            self.cross_check()

            # what only the catalog and the document read
            r_colon = fixed["r_colon_lambda"]
            self.r_colon_is_power = r_colon == p_nu
            # the lengths that involve nuE, validated for nesting by length_between
            self.len_rcolon_over_power_nu = length_between(r_colon, p_nu)
            self.len_r_over_power_nu = length_between(s_ideal, p_nu)
            self.len_gammar_over_conductor_power = length_between(
                rg.conductor_ideal, rg.normalization.shift(nu * a + fixed["c_lambda"]))
        except InvariantViolation:
            raise
        except SgblowError as exc:
            raise InvariantViolation(f"pair build raised {type(exc).__name__}: {exc}") from exc

    @classmethod
    def of(cls, e: ValueIdeal) -> "Analysis":
        return cls(e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Analysis):
            return NotImplemented
        return self.ideal == other.ideal

    def __hash__(self) -> int:
        return hash(self.ideal)

    def cross_check(self) -> None:
        """The pair's internal checks: the blow-up is not S, and the
        condition groups cohere.  Lambda's own checks run when its record is
        built."""
        # Lambda contains E - e, so Lambda = S would make E = e + S principal
        if self.lam == self.ring.s_ideal:
            raise InvariantViolation("the blow-up equals the semigroup itself")
        if not self.conditions.coherent:
            raise EquivalenceViolation(f"condition groups do not cohere: {self.conditions}")

    @_lazy
    def power_nu_reflexive(self) -> bool:
        """nuE** = nuE, taken on the pair's own ring on the first read:
        (E+z)** = E** + z, so it holds for the whole class or for none of
        it, and when nu = 1 it is whether E is reflexive."""
        if self.nu == 1:
            return self.ideal_reflexive
        s_ideal, p_nu = self.ring.s_ideal, self.power_nu
        return s_ideal.colon(s_ideal.colon(p_nu)) == p_nu

    @_lazy
    def len_shifted_dual_m_over_rcolon(self) -> int:
        """l((S:M + e)/(R:Lambda)), which Rmk6.1 and Prop6.5.2 both read
        when E = M, taken once on the first read."""
        return length_between(self.ring.dual_m.shift(self.e), self.r_colon_lambda)

    def power(self, k: int) -> ValueIdeal:
        """kE: a kept sum up to nu+1, and nuE shifted by (k - nu)e past that."""
        if k <= self.nu + 1:
            return self.powers[k]
        return self.powers[self.nu].shift((k - self.nu) * self.e)

    def _holds_a4(self, k_nu: ValueIdeal) -> bool:
        # A4 quantifies over all n >= nu: nE + K meets S in nE, given
        # k_nu = K + nuE.  Past nu, nE
        # is nuE shifted by z = (n - nu)e, so shifting back the condition is
        # (nuE + K) meet (S - z) = nuE.  Once min nuE + z passes the conductor,
        # S - z holds all of nuE + K, so the scan is finite.  nuE lies in S,
        # so hi >= c: from hi on all three sets are full for every z >= 0.
        # min K = 0, so lo = min nuE > 0.
        p = self.power_nu
        lo, hi, own, summed = p._common(k_nu)
        c, step = self.c, self.e
        last = max(0, -(-(c - lo) // step)) * step
        # bit i is lo + i of S, for lo + i < hi + last
        s_bits = (self.s.bits | ((1 << (hi + last)) - (1 << c))) >> lo
        for z in range(0, last + 1, step):
            if summed & (s_bits >> z) != own:
                return False
        return True


class _Translates:
    """What a translation of E only moves: one record per class E - min E
    over S, built whole and checked by the first pair met, E itself.

    Its fields and how a pair reads them are the record protocol of the
    module docstring.  A translate E + d reads powers[k] (k >= 1) moved by
    k*d and k_nu moved by nu*d, and checks its own H against hilbert moved
    by d.  K + E and E** are locals of the build, which nothing reads past
    it.
    """

    def __init__(self, rg: Ring, e: ValueIdeal):
        s, s_ideal, a = rg.s, rg.s_ideal, e.min_element
        powers = [s_ideal, e]
        hseq: list[int] = []
        while True:
            h = length_between(powers[-2], powers[-1])
            if h > a:
                raise InvariantViolation("Hilbert value exceeded the multiplicity")
            hseq.append(h)
            if h == a:
                break
            if len(hseq) > a + 1:
                raise InvariantViolation("Hilbert function failed to reach the multiplicity")
            powers.append(powers[-1] + e)
        nu = len(hseq) - 1
        if nu < 1:
            raise InvariantViolation("reduction exponent 0 would mean a principal ideal")
        # H(nu) = e says the sum adds nothing beyond a translate; every power
        # past nu is built on this
        if powers[nu + 1] != powers[nu].shift(a):
            raise InvariantViolation("(nu+1)E differs from e + nuE")

        # the stages nE - nE must first hit Lambda exactly at nu, and so must
        # nE + Lambda = nE; past nu every stage equals stage nu, because
        # (n+1)E is a translate of nE
        stages = [p.colon(p) for p in powers[1:nu + 1]]
        lam = stages[-1]
        first_stage = stages.index(lam) + 1
        if first_stage != nu:
            raise InvariantViolation(
                f"stages reached the blow-up at {first_stage}, expected {nu}")
        first_invariant = next(
            (k for k in range(1, nu + 1) if (powers[k] + lam) == powers[k]), None)
        if first_invariant != nu:
            raise InvariantViolation(
                f"powers absorb the blow-up from {first_invariant}, expected {nu}")

        # independent route: the semigroup generated by S and E - min(E).
        # It contains S, so it is full from c on: S's mask closed under the
        # shifted generators on [0, c) is all of it
        c = s.conductor
        generated = _closure(s.bits, c, [g - a for g in e.minimal_generators() if g != a])
        if lam != ValueIdeal._of(s, 0, generated, c):
            raise InvariantViolation("blow-up routes disagree")

        # Lambda's own quantities are one record per (S, Lambda) on the ring,
        # shared by every class with this blow-up and built whole on a miss
        key = lam.bits, lam.frontier
        blowup = rg.blowups.get(key)
        if blowup is None:
            blowup = rg.blowups[key] = _blowup_record(rg, lam)

        # A5 and A6 read the sums K + nE.  Each is summed once: n = 1 (kept
        # for Prop5.1; the ring's M + K when E = M) and n = nu (A4 and A5)
        # here, and A6 sums the ones between only while it scans
        k, p_nu = rg.k, powers[nu]
        is_max_ideal = e == rg.m_ideal
        k_e = rg.m_plus_k if is_max_ideal else e + k
        k_nu = k_e if nu == 1 else k + p_nu
        a5 = k_nu == p_nu
        a6 = k_e == e or a5 or any((k + powers[n]) == powers[n] for n in range(2, nu))
        # E** is the ring's M** when E = M
        e_bidual = rg.m_bidual if is_max_ideal else bidual(e)
        self.base, self.powers, self.hilbert, self.k_nu = a, powers, tuple(hseq), k_nu
        fields, conditions = blowup
        self.fixed = {**fields, "nu": nu, "lam": lam, "ideal_colon": stages[0],
                      "r": rg.ts.cm_type, "ideal_reflexive": e_bidual == e,
                      "ideal_omega_is_bidual": k_e == e_bidual,
                      "class_verdicts": {}, "c": c, "delta": s.genus,
                      "mu": s.embedding_dimension, "c_lambda": lam.frontier}
        self.conditions = {**conditions, "a5": a5, "a6": a6}


# swaps the flags 0 and 1
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _blowup_record(rg: Ring, lam: ValueIdeal) -> tuple[dict, dict]:
    """Every quantity of Lambda over S: fields, keyed by the Analysis
    attribute each becomes (the empty verdict store lambda_verdicts among
    them), and conditions, keyed by ConditionsReport field.

    Lambda's own checks run before any length only the catalog reads.
    Among them each of the two Lambda-level hypotheses is checked against
    its second form: K in Lambda** against the bridge R:omega containing
    R:Lambda ("the two hypothesis forms must agree"), and R:Lambda
    integrally closed against R:Lambda = R_i0 ("integral closedness of the
    colon must mean it is a full value filter").  R_i0, S from min R:Lambda
    on, and its dual R_i0* feed that check and l(Lambda**/R_i0*) only, so
    neither is a field.  It runs inside Analysis's pair boundary, which
    reports any failure here as an InvariantViolation.
    """
    s, s_ideal, k, norm = rg.s, rg.s_ideal, rg.k, rg.normalization
    r_colon = s_ideal.colon(lam)
    lam_bidual = s_ideal.colon(r_colon)
    omega = k + lam
    k_colon = k.colon(lam)
    delta_lambda = length_between(norm, lam)
    # l(Lambda/R); past this check Analysis compares rho with genus - delta(Lambda)
    len_lam_over_r = length_between(lam, s_ideal)
    if len_lam_over_r != s.genus - delta_lambda:
        raise InvariantViolation("rho must equal genus minus the blow-up genus")
    # Gamma holds the i in 1..n with s_(i-1) in R:Lambda; outside_gamma the
    # rest.  R:Lambda lies in S and holds c + N, so its flags on [0, c),
    # picked at S's members, are one flag per small element s_0..s_(n-1)
    c, lo = s.conductor, r_colon.min_element
    r_mask = (r_colon.bits << lo) | ((1 << c) - (1 << r_colon.frontier))
    inside = bytes(compress(_flags(r_mask, c), _flags(s.bits, c)))
    indices = range(1, len(inside) + 1)
    gamma_set = tuple(compress(indices, inside))
    outside_gamma = tuple(compress(indices, inside.translate(_FLIP)))
    # window bookkeeping: R:Lambda below the conductor is exactly {s_(i-1) : i in Gamma}
    if len(gamma_set) != length_between(r_colon, rg.conductor_ideal):
        raise InvariantViolation("Gamma size disagrees with l(R:Lambda/gamma_R)")
    len_r_over_rcolon = length_between(s_ideal, r_colon)
    if len_r_over_rcolon != rg.n - len(gamma_set):
        raise InvariantViolation("l(R/R:Lambda) must count small elements outside Gamma")

    # R_i0 is S from s_i0 = min R:Lambda on, in closed canonical form: lo
    # is a member of S (R:Lambda lies in S), at most c (c + N lies in
    # R:Lambda), and c - 1 is a gap
    r_i0 = ValueIdeal._closed(s, lo, s.bits >> lo, c)
    # the catalog's two Lambda-level hypotheses, each against its second form
    bridge = rg.r_colon_omega.contains(r_colon)
    k_in_lam_bidual = lam_bidual.contains(k)
    if k_in_lam_bidual != bridge:
        raise InvariantViolation("the two hypothesis forms must agree")
    r_colon_integrally_closed = integral_closure(r_colon) == r_colon
    if r_colon_integrally_closed != (r_colon == r_i0):
        raise InvariantViolation("integral closedness of the colon must mean "
                                 "it is a full value filter")
    # A1 and B1, which Rmk4.5, Thm5.9.1 and Thm5.9.2 read as fields
    k_in_lambda, lambda_reflexive = lam.contains(k), lam == lam_bidual
    len_rbar_over_bidual = length_between(norm, lam_bidual)
    sum_gamma = sum(compress(rg.ts.entries, inside))
    fields = dict(
        r_colon_lambda=r_colon, lam_bidual=lam_bidual, omega_lambda=omega, k_colon_lambda=k_colon,
        delta_lambda=delta_lambda, gamma_set=gamma_set, outside_gamma=outside_gamma,
        len_r_over_rcolon=len_r_over_rcolon, i0=rg.small_elements.index(lo),
        n_lambda=lam.frontier - delta_lambda,
        # a semigroup ring is Gorenstein exactly when gaps and non-gaps balance
        lambda_gorenstein=2 * delta_lambda == lam.frontier, lam_is_normalization=lam == norm,
        len_bidual_over_lambda=length_between(lam_bidual, lam),
        len_omega_over_lambda=length_between(omega, lam),
        len_omega_over_bidual=length_between(omega, lam_bidual),
        len_rbar_over_omega=length_between(norm, omega), len_rbar_over_bidual=len_rbar_over_bidual,
        len_bidual_over_rstar=length_between(lam_bidual, dual(r_i0)),
        # the Gamma sums, and the sum of r_i - 1 over the indices outside Gamma
        sum_gamma=sum_gamma, sum_not_gamma=s.genus - sum_gamma,
        sum_not_gamma_excess=s.genus - sum_gamma - len(outside_gamma),
        d=len_rbar_over_bidual - sum_gamma, lam_contains_dual_m=lam.contains(rg.dual_m),
        k_in_lam_bidual=k_in_lam_bidual, r_colon_integrally_closed=r_colon_integrally_closed,
        k_in_lambda=k_in_lambda, lambda_reflexive=lambda_reflexive, lambda_verdicts={})
    # A1-A3, B1, B2 and the bridge R:Lambda inside R:omega
    return fields, dict(
        a1=k_in_lambda, a2=omega == lam, a3=k_colon == r_colon, b1=lambda_reflexive,
        b2=k_colon == (k + r_colon), colon_inside_omega_dual=bridge)


BlowupReport = Analysis


def analyze(e: ValueIdeal) -> Analysis:
    """The analysis of the pair, built and cross-checked by Analysis(e)."""
    return Analysis(e)


def check_conditions_a_b(e: ValueIdeal) -> ConditionsReport:
    """Both condition groups and the bridge; their coherence is asserted."""
    return analyze(e).conditions
