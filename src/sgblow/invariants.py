"""Duality and classification invariants of a numerical semigroup ring.

The canonical ideal K = {j : c-1-j not in S} drives a duality on relative
ideals: l(E/F) = l((K-F)/(K-E)) whenever F lies in E.  The type sequence
refines the Cohen-Macaulay type r = l((S-M)/S); its entries are computed by
two independent routes (colon duals and K-products) and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import NumericalSemigroup, ValueIdeal, length_between
from .errors import InvariantViolation, NotIntegral, RegularRing


@lru_cache(maxsize=4096)
def canonical_ideal(s: NumericalSemigroup) -> ValueIdeal:
    """K = {j : c-1-j is a gap}; normalized so min K = 0 and K sits inside N."""
    c = s.conductor
    members = [j for j in range(c) if (c - 1 - j) not in s]
    return ValueIdeal(s, members, c, validate=False)


def dual(e: ValueIdeal) -> ValueIdeal:
    """S - E, the colon of the semigroup by E."""
    return e.carrier.as_ideal().colon(e)


def bidual(e: ValueIdeal) -> ValueIdeal:
    return dual(dual(e))


def is_reflexive(e: ValueIdeal) -> bool:
    return bidual(e) == e


def omega_product(e: ValueIdeal) -> ValueIdeal:
    """E + K, the product with the canonical ideal."""
    return e + canonical_ideal(e.carrier)


def canonical_closure(e: ValueIdeal) -> ValueIdeal:
    """(E + K) intersected with S; needs E inside S."""
    s_ideal = e.carrier.as_ideal()
    if not s_ideal.contains(e):
        raise NotIntegral("canonical closure needs an ideal contained in the semigroup")
    return omega_product(e).intersect(s_ideal)


def integral_closure(e: ValueIdeal) -> ValueIdeal:
    """(min E + N) intersected with S; needs E inside S."""
    s_ideal = e.carrier.as_ideal()
    if not s_ideal.contains(e):
        raise NotIntegral("integral closure needs an ideal contained in the semigroup")
    return e.carrier.normalization().shift(e.min_element).intersect(s_ideal)


@dataclass(frozen=True)
class TypeSequence:
    """Entries r_1..r_n for the filtration by the small elements."""

    entries: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def cm_type(self) -> int:
        return self.entries[0]

    def total(self) -> int:
        return sum(self.entries)


def _small_element_filter(s: NumericalSemigroup, i: int) -> ValueIdeal:
    """R_i: the members of S that are >= the i-th small element."""
    members = [x for x in s.small_elements[i:] if x < s.conductor]
    return ValueIdeal(s, members, s.conductor, validate=False)


@lru_cache(maxsize=4096)
def type_sequence(s: NumericalSemigroup) -> TypeSequence:
    """Compute r_i by colon duals and by K-products; the routes must agree."""
    if s.is_natural_numbers:
        raise RegularRing("the type sequence of N is empty")
    n = len(s.small_elements) - 1
    k = canonical_ideal(s)
    s_ideal = s.as_ideal()
    filters = [_small_element_filter(s, i) for i in range(n + 1)]
    duals = [s_ideal.colon(f) for f in filters]
    via_duals = [length_between(duals[i], duals[i - 1]) for i in range(1, n + 1)]
    products = [k + f for f in filters]
    via_products = [length_between(products[i - 1], products[i]) for i in range(1, n + 1)]
    if via_duals != via_products:
        raise InvariantViolation(
            f"type sequence routes disagree: {via_duals} vs {via_products}")
    return TypeSequence(tuple(via_duals))


@dataclass(frozen=True)
class RingClass:
    """Classification flags of the semigroup ring."""

    gorenstein: bool
    almost_gorenstein: bool
    kunz: bool
    cm_type: int

    @property
    def label(self) -> str:
        """The most specific class: gorenstein, kunz, almost_gorenstein or general."""
        return ("gorenstein" if self.gorenstein
                else "kunz" if self.kunz
                else "almost_gorenstein" if self.almost_gorenstein
                else "general")


@lru_cache(maxsize=4096)
def classify(s: NumericalSemigroup) -> RingClass:
    """Gorenstein / almost Gorenstein / Kunz, with the CM type.

    Almost Gorenstein is decided three equivalent ways (M + K = M, the gap
    count identity r - 1 = 2*genus - c, and the shape of the type sequence);
    any disagreement is a bug.
    """
    if s.is_natural_numbers:
        return RingClass(gorenstein=True, almost_gorenstein=True, kunz=False, cm_type=1)
    k = canonical_ideal(s)
    ts = type_sequence(s)
    r = ts.cm_type
    m = s.maximal_ideal()
    by_product = (m + k) == m
    by_counts = (r - 1) == 2 * s.genus - s.conductor
    by_shape = all(x == 1 for x in ts.entries[1:])
    if not (by_product == by_counts == by_shape):
        raise InvariantViolation(
            f"almost Gorenstein criteria disagree: {by_product}/{by_counts}/{by_shape}")
    gorenstein = k == s.as_ideal()
    almost = by_product
    if gorenstein and not almost:
        raise InvariantViolation("Gorenstein must imply almost Gorenstein")
    return RingClass(gorenstein=gorenstein, almost_gorenstein=almost,
                     kunz=almost and r == 2, cm_type=r)
