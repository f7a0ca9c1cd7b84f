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

Analysis is the one object per (semigroup, ideal) pair and the one place
the filtration is built.  Its constructor computes the powers, H, nu, rho
and Lambda with their checks, then every other pair quantity once, as a
plain attribute, running the pair's cross-checks as soon as what they read
is in place.  Each sum and quotient is taken once and shared by all its
readers: the stages nE - nE are one scan, and its first, E - E, is what
Rmk5.8 and Rmk6.2 read; K + E serves Prop5.1 and A6, and K + nuE serves
A4, A5 and A6, which sums the K + nE between only while it scans; when
nu = 1 the three are one.  For E = M the pair reads the ring's M + K and
M** instead of summing and dualizing itself.  The ring-level quantities
(K, the type sequence, the class, S:M, S:K, M + K, M**) are read from the
semigroup's one Ring, a.ring, which all pairs over S share.  Ring stays
lazy: dual, canonical_ideal and integral_closure each read one of its
fields, and need not pay for the type sequence.

Many ideals of S share one blow-up, so the quantities that depend on
Lambda alone are one record per (S, Lambda), kept in a.ring.blowups:
R:Lambda, Lambda**, omega_Lambda = K + Lambda, K:Lambda, delta(Lambda),
Gamma and its complement, i0 with R_i0 and R_i0*, the Lambda-level
lengths, the Gamma sums, d, the condition members A1-A3, B1, B2 and the
bridge, and whether Lambda contains S:M.  What involves E stays per pair:
the powers, H, nu, rho, A4-A6, E**, whether R:Lambda is nuE, and the
lengths against nuE.  _blowup_record builds a record whole and runs
Lambda's own checks before the lengths only the catalog reads.  Analysis
calls it on a miss, once both routes to Lambda agree, and stores what it
returns, so a Lambda whose build raises is never cached and raises again on
every pair with it.  The record ends with the verdict store,
a.lambda_verdicts, which statements.verify_many fills after the pair's
cross_check with the Lambda-level verdicts every pair with this Lambda
shares.

The error contract: _check_proper is the pair's input check, and its
NotProper and PrincipalIdeal are domain errors (exit 2).  Any failure after
it, a NotNested from a length of sets the constructions nest included, is
a bug: Analysis raises it as an InvariantViolation on the pair (exit 3),
of which EquivalenceViolation is one kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ValueIdeal, _closure, length_between
from .errors import (
    EquivalenceViolation,
    InvariantViolation,
    NotProper,
    PrincipalIdeal,
    SgblowError,
)
from .invariants import Ring, _lazy, bidual, dual, ring


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
        coeffs = (hs[0],) + tuple(hs[i] - hs[i - 1] for i in range(1, a.nu + 1))
        return cls(coefficients=coeffs, hilbert=hs, e=a.e, nu=a.nu, rho=a.rho)

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

    The constructor is the one place a pair is built, in dependency order.
    It builds the filtration of E: the powers S, E, ..., (nu+1)E by sums,
    the Hilbert function, nu, rho and Lambda = nuE - nuE, checking each
    against an independent route.  It then copies the ring's record of
    Lambda (built whole by _blowup_record on a miss) with one tuple unpack,
    computes the pair-level quantities cross_check reads, runs cross_check,
    and assigns the rest, which only the catalog and the document read;
    every timed path reads them all, so each is a plain attribute.  Past
    nu+1 a power is nuE shifted (power); self.powers never grows.  An
    Analysis passed in place of the ideal is rebuilt from its ideal.
    Ring-level quantities live on self.ring.
    """

    def __init__(self, e: ValueIdeal):
        if isinstance(e, Analysis):
            e = e.ideal
        s = e.carrier
        a = e.min_element
        rg = ring(s)
        s_ideal = rg.s_ideal
        _check_proper(e, s_ideal)
        self.ideal, self.s, self.ring = e, s, rg

        # past the input check every failure is a bug on this pair
        try:
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
            rho = sum(a - h for h in hseq)

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
            # shared by every pair with this blow-up and built whole on a miss
            key = lam.bits, lam.frontier
            record = rg.blowups.get(key)
            if record is None:
                record = rg.blowups[key] = _blowup_record(rg, lam)
            (self.r_colon_lambda, self.lam_bidual, self.omega_lambda, self.k_colon_lambda,
             self.delta_lambda, self.gamma_set, self.outside_gamma, self.len_r_over_rcolon,
             len_lam_over_r, a1, a2, a3, b1, b2, bridge,
             self.i0, self.r_filter_i0, self.r_star_i0, self.n_lambda, self.lambda_gorenstein,
             self.lam_is_normalization, self.len_bidual_over_lambda, self.len_omega_over_lambda,
             self.len_omega_over_bidual, self.len_rbar_over_omega, self.len_rbar_over_bidual,
             self.len_bidual_over_rstar, self.sum_gamma, self.sum_not_gamma,
             self.sum_not_gamma_excess, self.d, self.lam_contains_dual_m,
             self.lambda_verdicts) = record
            if rho != len_lam_over_r:
                raise InvariantViolation("rho disagrees with l(Lambda/R)")

            self.powers = powers
            self.hilbert = tuple(hseq)
            self.nu = nu
            self.rho = rho
            self.lam = lam
            self.ideal_colon = stages[0]  # E:E

            # notation
            self.e = a
            self.c = c
            self.delta = s.genus
            self.mu = s.embedding_dimension
            self.c_lambda = lam.frontier
            self.h = HPolynomial.of(self)
            self.is_max_ideal = e == rg.m_ideal
            self.power_nu = p_nu = powers[nu]
            self.conductor_in_power = p_nu.frontier <= c

            # every member of both groups, each evaluated on its own; A4-A6 read
            # the sums K + nE, the rest only Lambda.  Each K + nE is summed once:
            # n = 1 (kept for Prop5.1; the ring's M + K when E = M) and n = nu
            # (A4 and A5) here, and A6 sums the ones between only while it scans
            k = rg.k
            self.ideal_omega = k_e = rg.m_plus_k if self.is_max_ideal else e + k
            k_nu = k_e if nu == 1 else k + p_nu
            self.conditions = ConditionsReport(
                a1=a1, a2=a2, a3=a3,
                a4=self._holds_a4(k_nu),
                a5=k_nu == p_nu,
                a6=(k_e == e or k_nu == p_nu
                    or any((k + powers[n]) == powers[n] for n in range(2, nu))),
                b1=b1, b2=b2, colon_inside_omega_dual=bridge,
            )
            self.cross_check()

            # what only the catalog and the document read
            self.r = rg.ts.cm_type
            # E** is the ring's M** when E = M
            self.ideal_bidual = rg.m_bidual if self.is_max_ideal else bidual(e)
            self.ideal_reflexive = self.ideal_bidual == e
            self.r_colon_is_power = self.r_colon_lambda == p_nu
            # the lengths that involve nuE, validated for nesting by length_between
            self.len_rcolon_over_power_nu = length_between(self.r_colon_lambda, p_nu)
            self.len_r_over_power_nu = length_between(s_ideal, p_nu)
            self.len_gammar_over_conductor_power = length_between(
                rg.conductor_ideal, ValueIdeal._of(s, 0, 0, nu * a + self.c_lambda))
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


def _blowup_record(rg: Ring, lam: ValueIdeal) -> tuple:
    """Every quantity of Lambda over S, in the order Analysis unpacks them,
    ending with the empty verdict store.

    Lambda's own checks run before any length only the catalog reads.  It
    runs inside Analysis's pair boundary, which reports any failure here as
    an InvariantViolation.
    """
    s, s_ideal, k, norm = rg.s, rg.s_ideal, rg.k, rg.normalization
    r_colon = s_ideal.colon(lam)
    lam_bidual = s_ideal.colon(r_colon)
    omega = k + lam
    k_colon = k.colon(lam)
    delta_lambda = length_between(norm, lam)
    len_lam_over_r = length_between(lam, s_ideal)
    if len_lam_over_r != s.genus - delta_lambda:
        raise InvariantViolation("rho must equal genus minus the blow-up genus")
    # Gamma holds the i in 1..n with s_(i-1) in R:Lambda; outside_gamma the rest
    inside = [x in r_colon for x in rg.small_elements[:-1]]
    gamma_set = tuple(i for i, hit in enumerate(inside, 1) if hit)
    outside_gamma = tuple(i for i, hit in enumerate(inside, 1) if not hit)
    # window bookkeeping: R:Lambda below the conductor is exactly {s_(i-1) : i in Gamma}
    if len(gamma_set) != length_between(r_colon, rg.conductor_ideal):
        raise InvariantViolation("Gamma size disagrees with l(R:Lambda/gamma_R)")
    len_r_over_rcolon = length_between(s_ideal, r_colon)
    if len_r_over_rcolon != rg.n - len(gamma_set):
        raise InvariantViolation("l(R/R:Lambda) must count small elements outside Gamma")

    # R_i0 is S from s_i0 = min R:Lambda on
    lo = r_colon.min_element
    r_filter_i0 = ValueIdeal._of(s, lo, s.bits >> lo, s.conductor)
    r_star_i0 = dual(r_filter_i0)
    len_rbar_over_bidual = length_between(norm, lam_bidual)
    sum_gamma = sum(rg.ts.entries[i - 1] for i in gamma_set)
    sum_not_gamma = s.genus - sum_gamma
    return (r_colon, lam_bidual, omega, k_colon, delta_lambda, gamma_set, outside_gamma,
            len_r_over_rcolon, len_lam_over_r,
            # A1-A3, B1, B2 and the bridge R:Lambda inside R:omega
            lam.contains(k), omega == lam, k_colon == r_colon,
            lam == lam_bidual, k_colon == (k + r_colon), rg.r_colon_omega.contains(r_colon),
            rg.small_elements.index(lo), r_filter_i0, r_star_i0, lam.frontier - delta_lambda,
            # a semigroup ring is Gorenstein exactly when gaps and non-gaps balance
            2 * delta_lambda == lam.frontier, lam == norm,
            length_between(lam_bidual, lam), length_between(omega, lam),
            length_between(omega, lam_bidual), length_between(norm, omega),
            len_rbar_over_bidual, length_between(lam_bidual, r_star_i0),
            # the Gamma sums, and the sum of r_i - 1 over the indices outside Gamma
            sum_gamma, sum_not_gamma, sum_not_gamma - len(outside_gamma),
            len_rbar_over_bidual - sum_gamma, lam.contains(rg.dual_m), {})


BlowupReport = Analysis


def analyze(e: ValueIdeal) -> Analysis:
    """The analysis of the pair, built and cross-checked by Analysis(e)."""
    return Analysis(e)


def check_conditions_a_b(e: ValueIdeal) -> ConditionsReport:
    """Both condition groups and the bridge; their coherence is asserted."""
    return analyze(e).conditions
