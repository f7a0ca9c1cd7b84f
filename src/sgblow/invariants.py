"""Duality and classification invariants of a numerical semigroup ring.

The canonical ideal K = {j : c-1-j not in S} drives a duality on relative
ideals: l(E/F) = l((K-F)/(K-E)) whenever F lies in E.  The type sequence
refines the Cohen-Macaulay type r = l((S-M)/S); its entries are computed by
two independent routes (colon duals and K-products) and must agree.

Every ring-level quantity lives on one Ring per semigroup, which ring(s)
caches for the semigroup at hand only, and is computed at most once: each
is a _lazy field, computed on its first read and kept in the instance dict
with no lock.  Among them are M + K and M** = S:(S:M), which the ring
class, the probe of Prop5.1 and every pair with E = M read instead of
summing or dualizing again.  The ring also keeps the record of each blow-up
met over S and of each translation class of the ideals met over S (see
Ring and blowup.Analysis).  K is the gap mask read backwards.
Both type-sequence routes walk the filtration R_i = {x in S : x >= s_i} from
R_n = c + N down to R_0 = S over the window [0, c), one small element per
step: the dual route ANDs in a shifted copy of S's mask, the product route
ORs in a shifted copy of K's, so the sequence costs O(n * c / word size).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import NumericalSemigroup, ValueIdeal
from .errors import InvariantViolation, NotIntegral, RegularRing


class _lazy:
    """A field computed by func on its first read and kept in the instance
    dict, where every later read finds it first.

    It does what functools.cached_property does, without the lock that
    cached_property takes on each first read before Python 3.12: runs use
    processes, never threads, so nothing here needs one.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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


class Ring:
    """Every ring-level quantity of one semigroup, each computed at most once.

    blowups holds the record of each blow-up Lambda met over S, keyed by
    (Lambda.bits, Lambda.frontier) (Lambda has min 0 and carrier S): two
    dicts, fields by Analysis attribute and conditions by ConditionsReport
    field, built whole and checked by blowup._blowup_record and read only
    by Analysis.  The fields hold the catalog's two Lambda-level
    hypotheses and the Lambda-level verdicts verify_many fills, keyed by
    statement record, so every pair with that blow-up shares them.  It
    holds at most one record per distinct Lambda.

    translates holds one blowup._Translates per translation class of the
    ideals E met over S, keyed by (E.bits, E.frontier - min E), built whole
    by Analysis on a miss: the powers and K + nuE of the class's first
    pair, which every translate reads moved, and what a translation leaves
    as it is (nu, Lambda, E:E, A5, A6, whether E is reflexive and whether
    K + E = E**), prepared as one mapping each pair copies.  Each also
    holds the class-level verdicts verify_many fills, keyed by statement
    record, so every translate of E shares them.

    Both grow with the ideals met over S, and both are freed with the ring:
    ring(s) keeps one ring, so a run over many semigroups holds the records
    of the semigroup at hand and of no other (each Analysis holds its own).
    """

    def __init__(self, s: NumericalSemigroup):
        self.s = s
        self.blowups: dict[tuple[int, int], tuple[dict[str, object], dict[str, bool]]] = {}
        self.translates: dict[tuple[int, int], object] = {}

    @_lazy
    def s_ideal(self) -> ValueIdeal:
        return self.s.as_ideal()

    @_lazy
    def m_ideal(self) -> ValueIdeal:
        return self.s.maximal_ideal()

    @_lazy
    def normalization(self) -> ValueIdeal:
        return self.s.normalization()

    @_lazy
    def conductor_ideal(self) -> ValueIdeal:
        return self.s.conductor_ideal()

    @_lazy
    def small_elements(self) -> tuple[int, ...]:
        """s_0 = 0 < s_1 < ... < s_n = c."""
        return self.s.small_elements

    @property
    def n(self) -> int:
        """The number of members below the conductor."""
        return self.s.bits.bit_count()

    @_lazy
    def k(self) -> ValueIdeal:
        """K = {j : c-1-j is a gap}: min K = 0 and K is full from c on.

        The reversed gap mask is K's canonical window: c - 1 is a gap, so 0
        is a member, and 0 is not a gap, so c - 1 is not; for N it is empty.
        """
        c = self.s.conductor
        gaps = ((1 << c) - 1) & ~self.s.bits
        return ValueIdeal._closed(self.s, 0, int(format(gaps, f"0{c}b")[::-1], 2), c)

    @_lazy
    def ts(self) -> TypeSequence:
        """r_i = l((S:R_i)/(S:R_(i-1))) = l((K+R_(i-1))/(K+R_i)); the routes must agree.

        R_(i-1) = R_i plus s_(i-1), so S:R_(i-1) = (S:R_i) meet (S - s_(i-1))
        and K + R_(i-1) = (K + R_i) join (K + s_(i-1)).  Both sides are full
        from c on, so each step works on the window [0, c) only.
        """
        s = self.s
        if s.is_natural_numbers:
            raise RegularRing("the type sequence of N is empty")
        c = s.conductor
        window = (1 << c) - 1
        s_wide = s.bits | (window << c)  # S on [0, 2c)
        k = self.k
        k_mask = (k.bits << k.min_element) | ((1 << c) - (1 << k.frontier))  # K on [0, c)
        s_colon, k_sum = window, 0  # S:R_n = N and K + R_n = c + N
        via_duals, via_products = [], []
        for x in reversed(self.small_elements[:-1]):
            narrowed = s_colon & (s_wide >> x)
            via_duals.append((s_colon ^ narrowed).bit_count())
            widened = k_sum | ((k_mask << x) & window)
            via_products.append((widened ^ k_sum).bit_count())
            s_colon, k_sum = narrowed, widened
        if via_duals != via_products:
            raise InvariantViolation(
                f"type sequence routes disagree: {via_duals[::-1]} vs {via_products[::-1]}")
        if s_colon != s.bits or k_sum != k_mask:
            raise InvariantViolation("type sequence routes must end at S:S = S and K + S = K")
        return TypeSequence(tuple(reversed(via_duals)))

    @_lazy
    def ring_class(self) -> RingClass:
        """Gorenstein / almost Gorenstein / Kunz, with the CM type.

        Almost Gorenstein is decided three equivalent ways (M + K = M, the gap
        count identity r - 1 = 2*genus - c, and the shape of the type sequence);
        any disagreement is a bug.
        """
        s = self.s
        if s.is_natural_numbers:
            return RingClass(gorenstein=True, almost_gorenstein=True, kunz=False, cm_type=1)
        ts, m = self.ts, self.m_ideal
        r = ts.cm_type
        by_product = self.m_plus_k == m
        by_counts = (r - 1) == 2 * s.genus - s.conductor
        by_shape = all(x == 1 for x in ts.entries[1:])
        if not (by_product == by_counts == by_shape):
            raise InvariantViolation(
                f"almost Gorenstein criteria disagree: {by_product}/{by_counts}/{by_shape}")
        gorenstein = self.k == self.s_ideal
        almost = by_product
        if gorenstein and not almost:
            raise InvariantViolation("Gorenstein must imply almost Gorenstein")
        return RingClass(gorenstein=gorenstein, almost_gorenstein=almost,
                         kunz=almost and r == 2, cm_type=r)

    @_lazy
    def dual_m(self) -> ValueIdeal:
        return self.s_ideal.colon(self.m_ideal)

    @_lazy
    def r_colon_omega(self) -> ValueIdeal:
        return self.s_ideal.colon(self.k)

    @_lazy
    def m_plus_k(self) -> ValueIdeal:
        """M + K, which the class, the probe and the pair E = M all read."""
        return self.m_ideal + self.k

    @_lazy
    def m_bidual(self) -> ValueIdeal:
        """M** = S:(S:M)."""
        return self.s_ideal.colon(self.dual_m)

    @_lazy
    def maximal_probe(self) -> bool:
        """M + K == M**, the maximal-ideal half of the probe in Prop5.1."""
        return self.m_plus_k == self.m_bidual


@lru_cache(maxsize=1)
def ring(s: NumericalSemigroup) -> Ring:
    """The Ring of s, cached for the semigroup at hand only.

    Every run takes the pairs of one semigroup together, so one slot
    catches every repeat, and a ring with every record it holds is freed
    as soon as the run moves on to the next semigroup.  Returning to an
    earlier semigroup builds its ring afresh; the records are rebuilt on
    demand and verdicts are the same.  An Analysis keeps its own ring, so
    code that holds analyses across semigroups still reads their records.
    """
    return Ring(s)


def canonical_ideal(s: NumericalSemigroup) -> ValueIdeal:
    """K = {j : c-1-j is a gap}; normalized so min K = 0 and K sits inside N."""
    return ring(s).k


def dual(e: ValueIdeal) -> ValueIdeal:
    """S - E, the colon of the semigroup by E."""
    return ring(e.carrier).s_ideal.colon(e)


def bidual(e: ValueIdeal) -> ValueIdeal:
    return dual(dual(e))


def is_reflexive(e: ValueIdeal) -> bool:
    return bidual(e) == e


def omega_product(e: ValueIdeal) -> ValueIdeal:
    """E + K, the product with the canonical ideal."""
    return e + canonical_ideal(e.carrier)


def canonical_closure(e: ValueIdeal) -> ValueIdeal:
    """(E + K) intersected with S; needs E inside S."""
    s_ideal = ring(e.carrier).s_ideal
    if not s_ideal.contains(e):
        raise NotIntegral("canonical closure needs an ideal contained in the semigroup")
    return omega_product(e).intersect(s_ideal)


def integral_closure(e: ValueIdeal) -> ValueIdeal:
    """(min E + N) intersected with S; needs E inside S."""
    r = ring(e.carrier)
    if not r.s_ideal.contains(e):
        raise NotIntegral("integral closure needs an ideal contained in the semigroup")
    return r.normalization.shift(e.min_element).intersect(r.s_ideal)


def type_sequence(s: NumericalSemigroup) -> TypeSequence:
    """Compute r_i by colon duals and by K-products; the routes must agree."""
    return ring(s).ts


def classify(s: NumericalSemigroup) -> RingClass:
    """Gorenstein / almost Gorenstein / Kunz, with the CM type."""
    return ring(s).ring_class
