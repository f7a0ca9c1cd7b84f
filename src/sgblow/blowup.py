"""Blow-up analysis of a proper ideal over a numerical semigroup.

For a non-principal ideal E inside the maximal ideal, the multiplicity is
e = min E (a monomial minimal reduction always exists in this model), the
Hilbert function H(n) counts nE minus (n+1)E, the reduction exponent nu is
the first n with H(n) = e, and the blow-up Lambda is the colon quotient
nuE - nuE, where the stages nE - nE stabilize.  From nu on the powers are
translates: (n+1)E = e + nE, so only the powers up to nu+1 are sums and
every later one is nuE shifted.

Lambda is computed twice: as the stage nuE - nuE, and independently as the
semigroup generated by S together with E shifted down by its minimum.  Both
routes must agree; disagreement raises InvariantViolation.

Analysis is the one object per (semigroup, ideal) pair and the one place
the filtration is built.  Its constructor computes the powers, H, nu, rho
and Lambda with their checks, then runs the pair's cross-checks; every
other quantity is derived lazily, each at most once.  The ring-level
quantities (K, the type sequence, the class, S:M, S:K) are read from the
semigroup's one Ring, a.ring, which all pairs over S share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import NumericalSemigroup, ValueIdeal, length_between
from .errors import (
    EquivalenceViolation,
    InvariantViolation,
    NotProper,
    PrincipalIdeal,
)
from .invariants import bidual, dual, ring


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

    @property
    def symmetric(self) -> bool:
        c = self.coefficients
        return all(c[i] == c[self.nu - i] for i in range(self.nu + 1))


def _check_proper(e: ValueIdeal) -> None:
    s_ideal = e.carrier.as_ideal()
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


class Analysis:
    """Every quantity of one (semigroup, ideal) pair, each computed at most once.

    The constructor builds the filtration of E: the powers S, E, ..., (nu+1)E
    by sums, the Hilbert function, nu, rho and Lambda = nuE - nuE, checking
    each against an independent route, and then runs cross_check.  Past
    nu+1 a power is nuE shifted (power); self.powers never grows.  An
    Analysis passed in place of the ideal is rebuilt from its ideal.
    Ring-level quantities live on self.ring.
    """

    def __init__(self, e: ValueIdeal):
        if isinstance(e, Analysis):
            e = e.ideal
        _check_proper(e)
        s = e.carrier
        a = e.min_element
        self.ideal, self.s, self.ring = e, s, ring(s)
        s_ideal = self.ring.s_ideal

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
        lam = powers[nu].colon(powers[nu])
        first_stage = next((k for k in range(1, nu) if powers[k].colon(powers[k]) == lam), nu)
        if first_stage != nu:
            raise InvariantViolation(f"stages reached the blow-up at {first_stage}, expected {nu}")
        first_invariant = next(k for k in range(1, nu + 1) if (powers[k] + lam) == powers[k])
        if first_invariant != nu:
            raise InvariantViolation(
                f"powers absorb the blow-up from {first_invariant}, expected {nu}")
        if rho != length_between(lam, s_ideal):
            raise InvariantViolation("rho disagrees with l(Lambda/R)")

        # independent route: the semigroup generated by S and E - min(E)
        shifted = [g - a for g in e.minimal_generators() if g != a]
        generated = NumericalSemigroup.from_generators(sorted(set(s.min_generators) | set(shifted)))
        if lam != ValueIdeal._of(s, 0, generated.bits, generated.conductor):
            raise InvariantViolation("blow-up routes disagree")

        self.powers = powers
        self.hilbert = tuple(hseq)
        self.nu = nu
        self.rho = rho
        self.lam = lam
        self.cross_check()

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
        """The pair's internal checks: the blow-up is not S, the window
        bookkeeping and the coherence of the condition groups."""
        # Lambda contains E - e, so Lambda = S would make E = e + S principal
        if self.lam == self.ring.s_ideal:
            raise InvariantViolation("the blow-up equals the semigroup itself")
        if self.rho != self.delta - self.delta_lambda:
            raise InvariantViolation("rho must equal genus minus the blow-up genus")
        # window bookkeeping: R:Lambda below the conductor is exactly {s_(i-1) : i in Gamma}
        if len(self.gamma_set) != length_between(self.r_colon_lambda, self.ring.conductor_ideal):
            raise InvariantViolation("Gamma size disagrees with l(R:Lambda/gamma_R)")
        if self.len_r_over_rcolon != self.ring.n - len(self.gamma_set):
            raise InvariantViolation("l(R/R:Lambda) must count small elements outside Gamma")
        c = self.conditions
        if not (c.a1 == c.a2 == c.a3 == c.a4 == c.a5 == c.a6):
            raise EquivalenceViolation(
                f"group A disagrees: {c.a1},{c.a2},{c.a3},{c.a4},{c.a5},{c.a6}")
        if c.b1 != c.b2:
            raise EquivalenceViolation(f"group B disagrees: {c.b1},{c.b2}")
        if c.a1 != (c.b1 and c.colon_inside_omega_dual):
            raise EquivalenceViolation("bridge rule between the groups failed")

    def power(self, k: int) -> ValueIdeal:
        """kE: a kept sum up to nu+1, and nuE shifted by (k - nu)e past that."""
        if k <= self.nu + 1:
            return self.powers[k]
        return self.powers[self.nu].shift((k - self.nu) * self.e)

    # notation

    @property
    def c(self) -> int:
        return self.s.conductor

    @property
    def delta(self) -> int:
        return self.s.genus

    @property
    def r(self) -> int:
        return self.ring.ts.cm_type

    @property
    def mu(self) -> int:
        return self.s.embedding_dimension

    # pair-level data

    @property
    def e(self) -> int:
        return self.ideal.min_element

    @cached_property
    def h(self) -> HPolynomial:
        return HPolynomial.of(self)

    @cached_property
    def r_colon_lambda(self) -> ValueIdeal:
        return self.ring.s_ideal.colon(self.lam)

    @cached_property
    def lam_bidual(self) -> ValueIdeal:
        return self.ring.s_ideal.colon(self.r_colon_lambda)

    @cached_property
    def omega_lambda(self) -> ValueIdeal:
        return self.ring.k + self.lam

    @cached_property
    def k_colon_lambda(self) -> ValueIdeal:
        return self.ring.k.colon(self.lam)

    @property
    def c_lambda(self) -> int:
        return self.lam.frontier

    @cached_property
    def delta_lambda(self) -> int:
        return length_between(self.ring.normalization, self.lam)

    @cached_property
    def gamma_set(self) -> tuple[int, ...]:
        small = self.ring.small_elements
        return tuple(i for i in range(1, self.ring.n + 1) if small[i - 1] in self.r_colon_lambda)

    @cached_property
    def d(self) -> int:
        return self.len_rbar_over_bidual - self.sum_gamma

    @cached_property
    def i0(self) -> int:
        return self.ring.small_elements.index(self.r_colon_lambda.min_element)

    @cached_property
    def power_nu(self) -> ValueIdeal:
        return self.power(self.nu)

    @cached_property
    def r_colon_is_power(self) -> bool:
        return self.r_colon_lambda == self.power_nu

    @property
    def conductor_in_power(self) -> bool:
        return self.power_nu.frontier <= self.c

    @cached_property
    def ideal_bidual(self) -> ValueIdeal:
        return bidual(self.ideal)

    @cached_property
    def ideal_reflexive(self) -> bool:
        return self.ideal_bidual == self.ideal

    @property
    def is_max_ideal(self) -> bool:
        return self.ideal == self.ring.m_ideal

    @cached_property
    def conditions(self) -> ConditionsReport:
        """Every member of both groups, each evaluated on its own; cross_check
        asserts that they cohere."""
        k, lam, nu = self.ring.k, self.lam, self.nu
        return ConditionsReport(
            a1=lam.contains(k),
            a2=self.omega_lambda == lam,
            a3=self.k_colon_lambda == self.r_colon_lambda,
            a4=self._holds_a4(),
            a5=(k + self.power_nu) == self.power_nu,
            a6=any((k + self.power(n)) == self.power(n) for n in range(1, nu + 1)),
            b1=lam == self.lam_bidual,
            b2=self.k_colon_lambda == (k + self.r_colon_lambda),
            colon_inside_omega_dual=self.ring.r_colon_omega.contains(self.r_colon_lambda),
        )

    def _holds_a4(self) -> bool:
        # A4 quantifies over all n >= nu; once the product minimum passes the
        # conductor the condition is translation-stable, so the scan is finite.
        # Past nu, nE + K is nuE + K shifted by (n - nu)e.
        p = self.power_nu
        q = p + self.ring.k
        for t in range(self.c + 3):
            z = t * self.e
            if q.shift(z).intersect(self.ring.s_ideal) != p.shift(z):
                return False
            if p.min_element + z >= self.c:
                return True
        raise InvariantViolation("A4 scan failed to terminate")

    @cached_property
    def n_lambda(self) -> int:
        return self.c_lambda - self.delta_lambda

    @cached_property
    def lambda_gorenstein(self) -> bool:
        # a semigroup ring is Gorenstein exactly when gaps and non-gaps balance
        return 2 * self.delta_lambda == self.c_lambda

    @cached_property
    def lam_is_normalization(self) -> bool:
        return self.lam == self.ring.normalization

    @cached_property
    def r_filter_i0(self) -> ValueIdeal:
        lo = self.ring.small_elements[self.i0]
        return ValueIdeal._of(self.s, lo, self.s.bits >> lo, self.c)

    @cached_property
    def r_star_i0(self) -> ValueIdeal:
        return dual(self.r_filter_i0)

    # lengths, all validated for nesting by length_between

    @cached_property
    def len_rcolon_over_power_nu(self) -> int:
        return length_between(self.r_colon_lambda, self.power_nu)

    @cached_property
    def len_bidual_over_lambda(self) -> int:
        return length_between(self.lam_bidual, self.lam)

    @cached_property
    def len_omega_over_lambda(self) -> int:
        return length_between(self.omega_lambda, self.lam)

    @cached_property
    def len_omega_over_bidual(self) -> int:
        return length_between(self.omega_lambda, self.lam_bidual)

    @cached_property
    def len_r_over_rcolon(self) -> int:
        return length_between(self.ring.s_ideal, self.r_colon_lambda)

    @cached_property
    def len_r_over_power_nu(self) -> int:
        return length_between(self.ring.s_ideal, self.power_nu)

    @cached_property
    def len_rbar_over_omega(self) -> int:
        return length_between(self.ring.normalization, self.omega_lambda)

    @cached_property
    def len_rbar_over_bidual(self) -> int:
        return length_between(self.ring.normalization, self.lam_bidual)

    @cached_property
    def len_bidual_over_rstar(self) -> int:
        return length_between(self.lam_bidual, self.r_star_i0)

    @cached_property
    def len_gammar_over_conductor_power(self) -> int:
        hi = ValueIdeal._of(self.s, 0, 0, self.nu * self.e + self.c_lambda)
        return length_between(self.ring.conductor_ideal, hi)

    @cached_property
    def sum_gamma(self) -> int:
        return sum(self.ring.ts.entries[i - 1] for i in self.gamma_set)

    @cached_property
    def sum_not_gamma(self) -> int:
        return self.delta - self.sum_gamma

    @cached_property
    def sum_not_gamma_excess(self) -> int:
        """Sum of r_i - 1 over indices outside Gamma."""
        return self.sum_not_gamma - (self.ring.n - len(self.gamma_set))


BlowupReport = Analysis


def analyze(e: ValueIdeal) -> Analysis:
    """The analysis of the pair, built and cross-checked by Analysis(e)."""
    return Analysis(e)


def check_conditions_a_b(e: ValueIdeal) -> ConditionsReport:
    """Both condition groups and the bridge; their coherence is asserted."""
    return analyze(e).conditions
