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
count, so an operation costs O(window * set bits / word size) at worst.

On small windows the fixed cost of each call dominates, so the hot
operations are written to keep it to a few int operations: + and colon walk
the set bits of one operand a byte at a time, through a table of each byte
value's set bits; intersection, containment and lengths build both windows in one
expression; a carrier check tests identity before equality; and _of is the
one canonicalization routine.  In the benchmark's traced pass (times at the
nominal speed of its reference slice; 2-core VM, Python 3.11.7) a sum or a
colon takes about 3 us and a length about 1.5 us on the windows of a few
dozen bits of the wide-all workload, and about 13 us and 2 us on the windows
of up to a few hundred bits of large-conductor.

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
    ZeroMissing,
)


# the set bits of each byte value: + and colon walk a mask one byte at a
# time, with no arithmetic per set bit beyond its one shift
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
# binary digits "0"/"1" as the bytes 0/1 that itertools.compress selects on
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _ones(n: int) -> int:
    """The mask of bits 0..n-1."""
    return (1 << n) - 1 if n > 0 else 0


def _positions(bits: int, base: int = 0) -> tuple[int, ...]:
    """base + i for every set bit i of a non-negative mask, ascending."""
    # bin() reversed and cut before its "0b" prefix lists bit 0 first
    flags = bin(bits)[:1:-1].encode().translate(_DIGIT_FLAGS)
    return tuple(compress(range(base, base + len(flags)), flags))


def _mask(values: Iterable[int], base: int) -> int:
    bits = 0
    for x in values:
        bits |= 1 << (x - base)
    return bits


def _closure(gens: list[int]) -> tuple[int, int]:
    """(members below the conductor as a mask, conductor) of the semigroup
    generated by positive, ascending generators of gcd 1."""
    # Schur's bound c <= (min - 1)(max - 1) keeps the conductor inside the window
    bound = gens[0] * gens[-1]
    window = (1 << bound) - 1
    member = 1
    for g in gens:
        # adding g, 2g, 4g, ... closes the members under multiples of g
        step = g
        while step < bound:
            member = (member | (member << step)) & window
            step *= 2
    conductor = (~member & window).bit_length()
    return member & ((1 << conductor) - 1), conductor


class NumericalSemigroup:
    """A numerical semigroup in canonical form.

    bits holds the members below the conductor c; everything from c on is a
    member.  small_elements lists S up to and including c.  Instances are
    immutable and hashable, and built by from_generators, from_explicit or
    natural_numbers, which all end in _of_mask.
    """

    __slots__ = ("bits", "conductor", "genus", "min_generators")

    # -- construction ------------------------------------------------------

    @classmethod
    def _of_mask(cls, bits: int, conductor: int) -> "NumericalSemigroup":
        """The semigroup with members bits below a canonical conductor."""
        s = cls.__new__(cls)
        s.bits = bits
        s.conductor = conductor
        s.genus = conductor - bits.bit_count()
        s.min_generators = s.maximal_ideal().minimal_generators()
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
        return cls._of_mask(*_closure(gens))

    @classmethod
    def from_explicit(cls, members: Iterable[int], arrow_from: int) -> "NumericalSemigroup":
        """Explicit finite member list plus a full tail from arrow_from on."""
        mem = {int(x) for x in members}
        arrow = int(arrow_from)
        if any(x < 0 for x in mem):
            raise ZeroMissing("members must be natural numbers")
        if 0 not in mem and arrow > 0:
            raise ZeroMissing("0 must be a member")
        if mem and max(mem) > arrow:
            raise NotCofinite(f"member {max(mem)} lies beyond the tail start {arrow}")
        below = _mask((x for x in mem if x < arrow), 0)
        for a in _positions(below >> 1, 1):
            # members b >= a with a + b below the arrow but missing;
            # sums landing in the tail need no check
            missing = below & ~(below >> a) & _ones(arrow - a) & ~_ones(a)
            if missing:
                raise NotClosed(a, (missing & -missing).bit_length() - 1)
        conductor = (~below & _ones(arrow)).bit_length()
        return cls._of_mask(below & ((1 << conductor) - 1), conductor)

    # -- queries -----------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        return x >= self.conductor or (x >= 0 and (self.bits >> x) & 1 == 1)

    @property
    def small_elements(self) -> tuple[int, ...]:
        return _positions(self.bits) + (self.conductor,)

    @property
    def multiplicity(self) -> int:
        """Least positive element."""
        positive = self.bits & ~1
        return (positive & -positive).bit_length() - 1 if positive else max(self.conductor, 1)

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
        return ValueIdeal._of(self, 0, self.bits, self.conductor)

    def maximal_ideal(self) -> "ValueIdeal":
        return ValueIdeal._of(self, 0, self.bits & ~1, max(self.conductor, 1))

    def normalization(self) -> "ValueIdeal":
        """All of N, viewed as a relative ideal over S."""
        return ValueIdeal._of(self, 0, 0, 0)

    def conductor_ideal(self) -> "ValueIdeal":
        """The largest translate of N inside S: conductor + N."""
        return ValueIdeal._of(self, 0, 0, self.conductor)

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
                 cofinite_from: int, *, validate: bool = True):
        mem = [int(x) for x in members]
        frontier = int(cofinite_from)
        base = min(mem, default=frontier)
        canonical = ValueIdeal._of(carrier, base, _mask(mem, base), frontier)
        self.carrier = carrier
        self.min_element, self.bits, self.frontier = (
            canonical.min_element, canonical.bits, canonical.frontier)
        self._mingens: tuple[int, ...] | None = None
        if validate and not self._closed_under_carrier():
            raise NotClosed(*self._closure_witness())

    @classmethod
    def _of(cls, carrier: NumericalSemigroup, base: int, bits: int, frontier: int) -> "ValueIdeal":
        """The ideal with members base + i (i a set bit) below frontier, in
        canonical form: the run of members just below the frontier joins the
        tail, and the zeros below the least member are dropped.  This is the
        one canonicalization routine.
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

    # -- canonical-form bookkeeping ----------------------------------------

    def _closed_under_carrier(self) -> bool:
        return self + self.carrier.as_ideal() == self

    def _closure_witness(self) -> tuple[int, int]:
        for x in self.members:
            for s in self.carrier.small_elements:
                if (x + s) not in self:
                    return (x, s)
        return (self.min_element, self.carrier.conductor)

    # -- construction helpers ----------------------------------------------

    @classmethod
    def generated_by(cls, carrier: NumericalSemigroup, values: Iterable[int]) -> "ValueIdeal":
        """Union of the translates v + S over the given values."""
        vals = sorted({int(v) for v in values})
        if not vals:
            raise EmptyGenerators("an ideal needs at least one generator")
        bits = 0
        for v in vals:
            bits |= carrier.bits << (v - vals[0])
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
        """Sumset {e + f}: the OR of one window shifted by each member of the other.

        All from min E + frontier F and from frontier E + min F on are sums.
        """
        carrier = self.carrier
        if carrier is not other.carrier and carrier != other.carrier:
            raise CarrierMismatch("ideals live over different semigroups")
        width = min(self.frontier - self.min_element, other.frontier - other.min_element)
        window = (1 << width) - 1
        shifts, shifted = self.bits & window, other.bits & window
        if shifts.bit_count() > shifted.bit_count():
            shifts, shifted = shifted, shifts
        bits = 0
        offset = 0
        for byte in shifts.to_bytes((shifts.bit_length() + 7) >> 3, "little"):
            if byte:
                for i in _BYTE_BITS[byte]:
                    bits |= shifted << (offset + i)
            offset += 8
        base = self.min_element + other.min_element
        return ValueIdeal._of(carrier, base, bits, base + width)

    def colon(self, other: "ValueIdeal") -> "ValueIdeal":
        """Exact colon quotient {z : z + other is contained in self}.

        z is rejected when z + f is a gap of self for a member f of other's
        window, or when z + frontier of other < frontier of self.
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
        offset = 0
        for byte in shifts.to_bytes((shifts.bit_length() + 7) >> 3, "little"):
            if byte:
                for i in _BYTE_BITS[byte]:
                    rejected |= gaps >> (offset + i)
            offset += 8
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
        """Translate by z; canonical form is preserved."""
        return ValueIdeal._of(self.carrier, self.min_element + z, self.bits, self.frontier + z)

    def contains(self, other: "ValueIdeal") -> bool:
        _, _, own, theirs = self._common(other)
        return not theirs & ~own

    # -- derived data --------------------------------------------------------

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal generating set E minus (E + M)."""
        if self._mingens is None:
            base, _, own, reached = self._common(self + self.carrier.maximal_ideal())
            self._mingens = _positions(own & ~reached, base)
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
