"""Exact arithmetic on numerical semigroups and their relative ideals.

A numerical semigroup S is a subset of the natural numbers containing 0,
closed under addition, with finite complement.  A relative ideal over S
(ValueIdeal) is a set E of integers with E + S contained in E, bounded below
and cofinite above.  Both are stored canonically as one Python int bitmask
over the finite window below a frontier plus "everything from the frontier
on": bit i of a semigroup's mask is the member i below the conductor, and
bit i of an ideal's mask is the member min_element + i below its frontier.
A sum is an OR of shifted masks, a colon quotient an AND of shifted masks
(computed as the complement of an OR of shifted gap masks), intersection,
containment and equality are single mask operations, and a length is a bit
count.

Every ideal F over S is the least member of F in each residue class mod the
multiplicity m, plus multiples of m (its Apery form), so E + F is the union
of E + x and E : F the intersection of E - x over at most m members x of F,
whatever the window.  + and colon drop from the shift operand, with one
mask, every member x whose x - m is a member too, and walk the rest from the
lowest set bit: at most m shifts of a window-sized int per operation.  That
needs the shifted operand of + and the dividend of colon closed under S.
Every ValueIdeal is, so validating an unchecked window must not run through
+: it tests E + g inside E for each minimal generator g of S, one mask each.

On small windows the fixed cost of each call dominates, so the hot
operations are written to keep it to a few int operations: intersection,
containment and lengths build both windows in one expression; a carrier
check tests identity before equality; and _of canonicalizes every window an
operation builds: sums, colons, intersections, parsed windows, generated_by
and Lambda's generated route.  The fixed ideals over S skip it, since their
canonical forms read straight off S's mask: S is (0, bits, c), M is (m,
bits >> m, max(c, m)), N is (0, 0, 0), x + N is N shifted, K is the gap
mask of [0, c) read backwards, and R_i0 = S from s_i0 on is (s_i0, bits >>
s_i0, c).  Each is canonical because c - 1 is a gap and its least member
(0, m, or s_i0 <= c) lies in S; M of N and of {0, m->} has an empty window.
maximal_ideal builds M inline, as the setup's hot path, and _closed the
rest.  An ideal finds its minimal generators from S's: E + M is the union
of E + g over them, one shift each.  The ideal walk in enumeration skips
_of too, as the genus tree skips _of_mask: it builds each ideal in
canonical form from its antichain's mask, whose least member is the
antichain's least value.  In
the benchmark's traced pass (times at the nominal speed of its
reference slice; 2-core VM, Python 3.11.7) the median sum or colon takes
about 3 us and a length about 1.6 us on the windows of a few dozen bits of
the wide-all workload, and about 12 us and 3 us on the windows of up to a
few hundred bits of large-conductor.  On that VM a whole `sgblow analyze`
process on m over <300,301> (windows of about 90,000 bits) takes 1.7 to
2.2 s.

Lengths of quotients of monomial modules equal gap counts between value
sets, which is why plain counting on windows computes true module lengths.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, Iterator

from .errors import (
    CarrierMismatch,
    EmptyGenerators,
    NotClosed,
    NotCofinite,
    NotNested,
    WindowTooLarge,
    ZeroMissing,
)


# binary digits "0"/"1" as the bytes 0/1 that itertools.compress selects on
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _ones(n: int) -> int:
    """The mask of bits 0..n-1."""
    return (1 << n) - 1 if n > 0 else 0


def _flags(bits: int, width: int) -> bytes:
    """Byte i is bit i of a mask below 1 << width, as 0 or 1, for i in [0, width)."""
    # the marker bit at width keeps the leading zeros; bin() reversed and cut
    # before "0b1" lists bit 0 first
    return bin(bits | 1 << width)[:2:-1].encode().translate(_DIGIT_FLAGS)


def _positions(bits: int, base: int = 0) -> tuple[int, ...]:
    """base + i for every set bit i of a non-negative mask, ascending."""
    # bin() reversed and cut before its "0b" prefix lists bit 0 first.  Not
    # _flags(bits, bits.bit_length()): its marker bit costs 7-20% on the
    # masks of up to 15 bits that the genus walk and set-up pass here
    flags = bin(bits)[:1:-1].encode().translate(_DIGIT_FLAGS)
    return tuple(compress(range(base, base + len(flags)), flags))


def _mask(values: Iterable[int], base: int) -> int:
    bits = 0
    for x in values:
        bits |= 1 << (x - base)
    return bits


def _closure(seed: int, width: int, gens: Iterable[int]) -> int:
    """The mask seed on [0, width) closed under adding each positive
    generator: every seed member plus any sum of generators below width."""
    window = (1 << width) - 1
    member = seed & window
    for g in gens:
        # adding g, 2g, 4g, ... closes the members under multiples of g
        step = g
        while step < width:
            member = (member | (member << step)) & window
            step *= 2
    return member


class NumericalSemigroup:
    """A numerical semigroup in canonical form.

    bits holds the members below the conductor c; everything from c on is a
    member.  small_elements lists S up to and including c, and multiplicity
    is the least positive member (1 for N).  Instances are
    immutable and hashable.  from_generators, from_explicit and
    natural_numbers end in _of_mask, which finds the minimal generators from
    scratch; enumeration.genus_tree_children grows most of its children's
    fields from their parent's instead, and enumeration.enumerate_ideals
    builds each ideal over S in canonical form from its antichain, without
    ValueIdeal._of.
    """

    __slots__ = ("bits", "conductor", "genus", "multiplicity", "min_generators")

    # -- construction ------------------------------------------------------

    @classmethod
    def _of_mask(cls, bits: int, conductor: int) -> "NumericalSemigroup":
        """The semigroup with members bits below a canonical conductor."""
        s = cls.__new__(cls)
        s.bits = bits
        s.conductor = conductor
        s.genus = conductor - bits.bit_count()
        # + and colon read the multiplicity, so it comes before the generators
        positive = bits & ~1
        s.multiplicity = (positive & -positive).bit_length() - 1 if positive else max(conductor, 1)
        # S's generators are not known yet, so they are M minus (M + M), on
        # the closed form of M that maximal_ideal builds
        e = s.multiplicity
        m = ValueIdeal._closed(s, e, bits >> e, max(conductor, e))
        base, _, own, reached = m._common(m + m)
        s.min_generators = _positions(own & ~reached, base)
        return s

    @classmethod
    def natural_numbers(cls) -> "NumericalSemigroup":
        return cls._of_mask(0, 0)

    @classmethod
    def from_generators(cls, generators: Iterable[int]) -> "NumericalSemigroup":
        """Closure of {0} and the generators under addition."""
        gens = sorted({int(g) for g in generators})
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] <= 0:
            raise EmptyGenerators(f"generators must be positive, got {gens[0]}")
        if math.gcd(*gens) != 1:
            raise NotCofinite(f"gcd of generators is {math.gcd(*gens)}, complement is infinite")
        # Schur's bound c <= (min - 1)(max - 1) keeps the conductor inside the window;
        # a window past what a shift can address overflows, one past memory fails to
        # allocate
        width = gens[0] * gens[-1]
        try:
            member = _closure(1, width, gens)
        except (OverflowError, MemoryError):
            raise WindowTooLarge(width, f"the generators' window {gens[0]} * {gens[-1]}") from None
        conductor = (~member & ((1 << width) - 1)).bit_length()
        return cls._of_mask(member & ((1 << conductor) - 1), conductor)

    @classmethod
    def from_explicit(cls, members: Iterable[int], arrow_from: int) -> "NumericalSemigroup":
        """Explicit finite member list plus a full tail from arrow_from on."""
        mem = {int(x) for x in members}
        arrow = int(arrow_from)
        if arrow < 0 or any(x < 0 for x in mem):
            raise ZeroMissing("members must be natural numbers")
        if 0 not in mem and arrow > 0:
            raise ZeroMissing("0 must be a member")
        if mem and max(mem) > arrow:
            raise NotCofinite(f"member {max(mem)} lies beyond the tail start {arrow}")
        try:
            below = _mask((x for x in mem if x < arrow), 0)
            for a in _positions(below >> 1, 1):
                # members b >= a with a + b below the arrow but missing;
                # sums landing in the tail need no check
                missing = below & ~(below >> a) & _ones(arrow - a) & ~_ones(a)
                if missing:
                    raise NotClosed(a, (missing & -missing).bit_length() - 1)
            conductor = (~below & _ones(arrow)).bit_length()
        except (OverflowError, MemoryError):
            raise WindowTooLarge(arrow, f"the window below the tail start {arrow}") from None
        return cls._of_mask(below & ((1 << conductor) - 1), conductor)

    # -- queries -----------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        return x >= self.conductor or (x >= 0 and (self.bits >> x) & 1 == 1)

    @property
    def small_elements(self) -> tuple[int, ...]:
        return _positions(self.bits) + (self.conductor,)

    @property
    def embedding_dimension(self) -> int:
        return len(self.min_generators)

    @property
    def frobenius(self) -> int:
        return self.conductor - 1 if self.conductor > 0 else -1

    @property
    def is_natural_numbers(self) -> bool:
        return self.conductor == 0

    def gaps(self) -> tuple[int, ...]:
        return _positions(~self.bits & ((1 << self.conductor) - 1))

    def elements_up_to(self, bound: int) -> Iterator[int]:
        """All members x with x <= bound, ascending."""
        yield from _positions(self.bits & _ones(bound + 1))
        yield from range(self.conductor, bound + 1)

    # -- ideals ------------------------------------------------------------

    def as_ideal(self) -> "ValueIdeal":
        """S as a relative ideal over itself, in closed canonical form (0,
        bits, c): 0 is a member and c - 1 a gap, and for N the window is
        empty (0, 0, 0)."""
        return ValueIdeal._closed(self, 0, self.bits, self.conductor)

    def maximal_ideal(self) -> "ValueIdeal":
        """M = S minus {0}, handed its minimal generators, which are those
        of S.

        Closed canonical form (m, bits >> m, max(c, m)): the multiplicity m
        is a member and c - 1 a gap.  For {0, m->} (c = m) and for N (c = 0,
        m = 1) the window is empty, M = m + N.  Built inline, as the
        setup's hot path.
        """
        m = self.multiplicity
        e = ValueIdeal.__new__(ValueIdeal)
        e.carrier, e.min_element, e.bits, e.frontier, e._mingens = (
            self, m, self.bits >> m, max(self.conductor, m), self.min_generators)
        return e

    def normalization(self) -> "ValueIdeal":
        """All of N, viewed as a relative ideal over S: the empty window (0, 0, 0)."""
        return ValueIdeal._closed(self, 0, 0, 0)

    def conductor_ideal(self) -> "ValueIdeal":
        """The largest translate of N inside S: conductor + N, N shifted."""
        return self.normalization().shift(self.conductor)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.conductor == other.conductor and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.conductor, self.bits))

    def __repr__(self) -> str:
        return f"NumericalSemigroup(<{','.join(map(str, self.min_generators))}>)"


class ValueIdeal:
    """A relative ideal over a fixed numerical semigroup, in canonical form.

    The canonical quadruple is (carrier, min_element, bits, frontier): bit i
    of bits means min_element + i is a member below the frontier, and the
    frontier is the least integer from which on every integer is a member.
    Construction canonicalizes arbitrary window descriptions.
    """

    __slots__ = ("carrier", "min_element", "bits", "frontier", "_mingens")

    def __init__(self, carrier: NumericalSemigroup, members: Iterable[int],
                 cofinite_from: int):
        mem = [int(x) for x in members]
        frontier = int(cofinite_from)
        base = min(mem, default=frontier)
        canonical = ValueIdeal._of(carrier, base, _mask(mem, base), frontier)
        self.carrier = carrier
        self.min_element, self.bits, self.frontier = (
            canonical.min_element, canonical.bits, canonical.frontier)
        self._mingens: tuple[int, ...] | None = None
        if not self._closed_under_carrier():
            raise NotClosed(*self._closure_witness())

    @classmethod
    def _of(cls, carrier: NumericalSemigroup, base: int, bits: int, frontier: int) -> "ValueIdeal":
        """The ideal with members base + i (i a set bit) below frontier, in
        canonical form: the run of members just below the frontier joins the
        tail, and the zeros below the least member are dropped.  Every
        operation that builds a window ends here: sums, colons,
        intersections, parsed windows, generated_by and Lambda's generated
        route.  The fixed ideals over S, whose canonical forms are known in
        closed form (see the module docstring), go through _closed or
        maximal_ideal instead, and shift moves a canonical form whole.
        """
        e = cls.__new__(cls)
        e.carrier = carrier
        e._mingens = None
        width = frontier - base
        if width <= 0:
            e.min_element = e.frontier = frontier
            e.bits = 0
            return e
        width = (~bits & ((1 << width) - 1)).bit_length()
        bits &= (1 << width) - 1
        e.frontier = base + width
        if bits:
            low = (bits & -bits).bit_length() - 1
            e.min_element, e.bits = base + low, bits >> low
        else:
            e.min_element, e.bits = base + width, 0
        return e

    @classmethod
    def _closed(cls, carrier: NumericalSemigroup, min_element: int, bits: int,
                frontier: int) -> "ValueIdeal":
        """The ideal of a window already in canonical form, read off S's
        mask in closed form: bit 0 of bits is set (or bits is 0 and
        min_element = frontier), bit frontier - min_element - 1 is clear,
        and no bit lies past the window.  Each caller says why its form is.
        """
        e = cls.__new__(cls)
        e.carrier, e.min_element, e.bits, e.frontier, e._mingens = (
            carrier, min_element, bits, frontier, None)
        return e

    # -- canonical-form bookkeeping ----------------------------------------

    def _closed_under_carrier(self) -> bool:
        """E + g lies in E for every minimal generator g of S.

        One mask per generator, exact for any window, and independent of +,
        whose cut assumes its shifted operand closed under S already.
        """
        gaps = ((1 << (self.frontier - self.min_element)) - 1) & ~self.bits
        return not any((self.bits << g) & gaps for g in self.carrier.min_generators)

    def _closure_witness(self) -> tuple[int, int]:
        # any s of S from frontier - min_element on sends every member to the tail
        width = self.frontier - self.min_element
        return next((x, s) for x in self.members
                    for s in self.carrier.elements_up_to(width - 1) if (x + s) not in self)

    # -- construction helpers ----------------------------------------------

    @classmethod
    def generated_by(cls, carrier: NumericalSemigroup, values: Iterable[int]) -> "ValueIdeal":
        """Union of the translates v + S over the given values."""
        vals = sorted({int(v) for v in values})
        if not vals:
            raise EmptyGenerators("an ideal needs at least one generator")
        bits = 0
        try:
            for v in vals:
                bits |= carrier.bits << (v - vals[0])
        except (OverflowError, MemoryError):
            hi = vals[-1] + carrier.conductor
            raise WindowTooLarge(hi - vals[0], f"the ideal's window from {vals[0]} to {hi}") from None
        return cls._of(carrier, vals[0], bits, vals[0] + carrier.conductor)

    # -- membership and iteration ------------------------------------------

    @property
    def members(self) -> tuple[int, ...]:
        """The members below the frontier, ascending."""
        return _positions(self.bits, self.min_element)

    def __contains__(self, x: int) -> bool:
        return x >= self.frontier or (x >= self.min_element
                                      and (self.bits >> (x - self.min_element)) & 1 == 1)

    def elements_below(self, hi: int) -> Iterator[int]:
        """All members x with x < hi, ascending."""
        yield from _positions(self.bits & _ones(hi - self.min_element), self.min_element)
        yield from range(self.frontier, hi)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ValueIdeal") -> "ValueIdeal":
        """Sumset {e + f}: the OR of F's window shifted by the least member of
        E in each residue class mod the multiplicity m, at most m shifts.

        F must be closed under S (every ideal is): then F + x + m lies in
        F + x, so a member x + m of E adds nothing.  All from min E +
        frontier F and from frontier E + min F on are sums.
        """
        carrier = self.carrier
        if carrier is not other.carrier and carrier != other.carrier:
            raise CarrierMismatch("ideals live over different semigroups")
        width = min(self.frontier - self.min_element, other.frontier - other.min_element)
        window = (1 << width) - 1
        shifts, shifted = self.bits & window, other.bits & window
        # keep each member x whose x - m is not a member
        shifts &= ~(shifts << carrier.multiplicity)
        bits = 0
        while shifts:
            low = shifts & -shifts
            bits |= shifted << (low.bit_length() - 1)
            shifts ^= low
        base = self.min_element + other.min_element
        return ValueIdeal._of(carrier, base, bits, base + width)

    def colon(self, other: "ValueIdeal") -> "ValueIdeal":
        """Exact colon quotient {z : z + other is contained in self}.

        z is rejected when z + f is a gap of self for a member f of other's
        window, or when z + frontier of other < frontier of self.  Only the
        least f in each residue class mod the multiplicity m is tried, at
        most m shifts: self must be closed under S (every ideal is), so
        z + f in self puts z + f + m in self too.
        """
        carrier = self.carrier
        if carrier is not other.carrier and carrier != other.carrier:
            raise CarrierMismatch("ideals live over different semigroups")
        width = self.frontier - self.min_element
        window = (1 << width) - 1
        gaps = window ^ self.bits
        short = width - (other.frontier - other.min_element)
        rejected = (1 << short) - 1 if short > 0 else 0
        shifts = other.bits & window
        shifts &= ~(shifts << carrier.multiplicity)
        while shifts:
            low = shifts & -shifts
            rejected |= gaps >> (low.bit_length() - 1)
            shifts ^= low
        base = self.min_element - other.min_element
        return ValueIdeal._of(carrier, base, ~rejected, base + width)

    def _common(self, other: "ValueIdeal") -> tuple[int, int, int, int]:
        """(base, hi, own mask, other's mask) over the union of both windows."""
        if self.carrier is not other.carrier and self.carrier != other.carrier:
            raise CarrierMismatch("ideals live over different semigroups")
        m, n = self.min_element, other.min_element
        f, g = self.frontier, other.frontier
        base = m if m < n else n
        hi = f if f > g else g
        full = 1 << (hi - base)
        return (base, hi, (self.bits << (m - base)) | (full - (1 << (f - base))),
                (other.bits << (n - base)) | (full - (1 << (g - base))))

    def intersect(self, other: "ValueIdeal") -> "ValueIdeal":
        base, hi, own, theirs = self._common(other)
        return ValueIdeal._of(self.carrier, base, own & theirs, hi)

    def shift(self, z: int) -> "ValueIdeal":
        """Translate by z: the canonical form moves whole, so it needs no _of."""
        e = ValueIdeal.__new__(ValueIdeal)
        e.carrier, e.min_element, e.bits, e.frontier, e._mingens = (
            self.carrier, self.min_element + z, self.bits, self.frontier + z, None)
        return e

    def contains(self, other: "ValueIdeal") -> bool:
        _, _, own, theirs = self._common(other)
        return not theirs & ~own

    # -- derived data --------------------------------------------------------

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal generating set E minus (E + M).

        M is the union of g + S over S's minimal generators g, so E + M is
        the union of E + g: one shift each.  E + M, like E, is full from
        frontier E + m on, so the window runs from min E to there, which
        holds E's window and that of E + M.
        """
        if self._mingens is None:
            width = self.frontier - self.min_element
            own = self.bits | _ones(self.carrier.multiplicity) << width
            reached = 0
            for g in self.carrier.min_generators:
                reached |= own << g
            self._mingens = _positions(own & ~reached, self.min_element)
        return self._mingens

    def is_principal(self) -> bool:
        return self.minimal_generators() == (self.min_element,)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ValueIdeal):
            return NotImplemented
        return (self.bits == other.bits and self.min_element == other.min_element
                and self.frontier == other.frontier
                and (self.carrier is other.carrier or self.carrier == other.carrier))

    def __hash__(self) -> int:
        return hash((self.carrier, self.min_element, self.bits, self.frontier))

    def __repr__(self) -> str:
        body = ",".join(map(str, self.members))
        sep = "," if body else ""
        return f"ValueIdeal({{{body}{sep}{self.frontier}->}})"


def length_between(larger: ValueIdeal, smaller: ValueIdeal) -> int:
    """Length l(E/F) = #(E minus F); raises NotNested with a witness if F is not in E."""
    base, _, big, small = larger._common(smaller)
    stray = small & ~big
    if stray:
        raise NotNested(base + (stray & -stray).bit_length() - 1)
    return (big ^ small).bit_count()
