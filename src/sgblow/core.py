"""Exact arithmetic on numerical semigroups and their relative ideals.

A numerical semigroup S is a subset of the natural numbers containing 0,
closed under addition, with finite complement.  A relative ideal over S
(ValueIdeal) is a set E of integers with E + S contained in E, bounded below
and cofinite above.  Both are stored canonically as the finite window below
a frontier plus "everything from the frontier on", so membership, sums,
colon quotients, intersections and lengths are all exact and cost
O(window**2) at worst.

Lengths of quotients of monomial modules equal gap counts between value
sets, which is why plain counting on windows computes true module lengths.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import (
    CarrierMismatch,
    EmptyGenerators,
    NotClosed,
    NotCofinite,
    NotNested,
    ZeroMissing,
)


def _minimal_generators(member_set: frozenset[int], conductor: int, multiplicity: int) -> tuple[int, ...]:
    """Positive elements that are not sums of two positive elements.

    Every minimal generator is < conductor + multiplicity, so the scan window
    is finite.  The semigroup N is handled by the caller.
    """

    def mem(x: int) -> bool:
        return x >= conductor or x in member_set

    gens = []
    for x in range(1, conductor + multiplicity):
        if not mem(x):
            continue
        decomposable = any(mem(y) and mem(x - y) for y in range(multiplicity, x - multiplicity + 1))
        if not decomposable:
            gens.append(x)
    return tuple(gens)


class NumericalSemigroup:
    """A numerical semigroup in canonical form.

    small_elements lists S up to and including the conductor c; everything
    from c on is a member.  Instances are immutable and hashable.
    """

    def __init__(self, small_elements: tuple[int, ...], conductor: int, genus: int,
                 min_generators: tuple[int, ...]):
        self.small_elements = small_elements
        self.conductor = conductor
        self.genus = genus
        self.min_generators = min_generators
        self._member_set = frozenset(small_elements)
        # canonical form sanity: conductor is the least element with a full tail
        if conductor > 0 and (conductor - 1) in self._member_set:
            raise AssertionError("non-canonical conductor")

    # -- construction ------------------------------------------------------

    @classmethod
    def natural_numbers(cls) -> "NumericalSemigroup":
        return cls((0,), 0, 0, (1,))

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
        if gens[0] == 1:
            return cls.natural_numbers()
        e = gens[0]
        bound = gens[0] * gens[-1] + 1
        while True:
            member = bytearray(bound + 1)
            member[0] = 1
            for x in range(bound + 1):
                if member[x]:
                    for g in gens:
                        if x + g <= bound:
                            member[x + g] = 1
            # a run of e consecutive members proves the tail is full from there
            run = 0
            tail_start = None
            for x in range(bound + 1):
                run = run + 1 if member[x] else 0
                if run == e:
                    tail_start = x - e + 1
                    break
            if tail_start is not None:
                break
            bound *= 2
        conductor = 0
        for x in range(tail_start - 1, -1, -1):
            if not member[x]:
                conductor = x + 1
                break
        small = tuple(x for x in range(conductor + 1) if member[x] or x == conductor)
        genus = conductor - (len(small) - 1)
        mingens = _minimal_generators(frozenset(small), conductor, e)
        return cls(small, conductor, genus, mingens)

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

        def in_s(x: int) -> bool:
            return x >= arrow or x in mem

        ordered = sorted(x for x in mem if x > 0)
        for i, a in enumerate(ordered):
            for b in ordered[i:]:
                # sums landing in the tail need no check
                if a + b < arrow and not in_s(a + b):
                    raise NotClosed(a, b)
        conductor = arrow
        while conductor > 0 and (conductor - 1) in mem:
            conductor -= 1
        small = tuple(x for x in sorted(mem) if x < conductor) + (conductor,)
        genus = conductor - (len(small) - 1)
        if conductor == 0:
            return cls.natural_numbers()
        e = small[1] if len(small) > 1 else conductor
        mingens = _minimal_generators(frozenset(small), conductor, e)
        return cls(small, conductor, genus, mingens)

    # -- queries -----------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        return x >= self.conductor or x in self._member_set

    @property
    def multiplicity(self) -> int:
        """Least positive element."""
        if len(self.small_elements) > 1:
            return self.small_elements[1]
        return 1 if self.conductor == 0 else self.conductor

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
        return tuple(x for x in range(self.conductor) if x not in self._member_set)

    def elements_up_to(self, bound: int) -> Iterator[int]:
        """All members x with x <= bound, ascending."""
        for x in self.small_elements:
            if x > bound:
                return
            if x < self.conductor:
                yield x
        yield from range(self.conductor, bound + 1)

    # -- ideals ------------------------------------------------------------

    def as_ideal(self) -> "ValueIdeal":
        return ValueIdeal(self, [x for x in self.small_elements if x < self.conductor],
                          self.conductor, validate=False)

    def maximal_ideal(self) -> "ValueIdeal":
        members = [x for x in self.small_elements if 0 < x < self.conductor]
        return ValueIdeal(self, members, max(self.conductor, 1), validate=False)

    def normalization(self) -> "ValueIdeal":
        """All of N, viewed as a relative ideal over S."""
        return ValueIdeal(self, [], 0, validate=False)

    def conductor_ideal(self) -> "ValueIdeal":
        """The largest translate of N inside S: conductor + N."""
        return ValueIdeal(self, [], self.conductor, validate=False)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.small_elements == other.small_elements

    def __hash__(self) -> int:
        return hash(self.small_elements)

    def __repr__(self) -> str:
        return f"NumericalSemigroup(<{','.join(map(str, self.min_generators))}>)"


class ValueIdeal:
    """A relative ideal over a fixed numerical semigroup, in canonical form.

    The canonical triple is (min_element, members below the frontier,
    frontier): the frontier is the least integer from which on every integer
    is a member.  Construction canonicalizes arbitrary window descriptions.
    """

    def __init__(self, carrier: NumericalSemigroup, members: Iterable[int],
                 cofinite_from: int, *, validate: bool = True):
        mem_set = {int(x) for x in members}
        frontier = int(cofinite_from)
        while (frontier - 1) in mem_set:
            frontier -= 1
        below = tuple(sorted(x for x in mem_set if x < frontier))
        self.carrier = carrier
        self.members = below
        self.frontier = frontier
        self.min_element = below[0] if below else frontier
        self._member_set = frozenset(below)
        self._mingens: tuple[int, ...] | None = None
        if validate and not self._closed_under_carrier():
            raise NotClosed(*self._closure_witness())

    # -- canonical-form bookkeeping ----------------------------------------

    def _closed_under_carrier(self) -> bool:
        if self.frontier > self.min_element + self.carrier.conductor:
            return False
        return all((x + s) in self for x in self.members
                   for s in self.carrier.small_elements)

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
        bound = vals[0] + carrier.conductor
        mem = set()
        for v in vals:
            for s in carrier.elements_up_to(bound - v - 1):
                mem.add(v + s)
        return cls(carrier, mem, bound, validate=False)

    # -- membership and iteration ------------------------------------------

    def __contains__(self, x: int) -> bool:
        return x >= self.frontier or x in self._member_set

    def elements_below(self, hi: int) -> Iterator[int]:
        """All members x with x < hi, ascending."""
        for x in self.members:
            if x >= hi:
                return
            yield x
        yield from range(self.frontier, hi)

    # -- arithmetic ---------------------------------------------------------

    def _same_carrier(self, other: "ValueIdeal") -> None:
        if self.carrier != other.carrier:
            raise CarrierMismatch("ideals live over different semigroups")

    def __add__(self, other: "ValueIdeal") -> "ValueIdeal":
        """Sumset {e + f}.  Frontier bound: sum of frontiers."""
        self._same_carrier(other)
        hi = self.frontier + other.frontier
        rhs = list(other.elements_below(hi - self.min_element))
        mem = set()
        for e in self.elements_below(hi - other.min_element):
            for f in rhs:
                s = e + f
                if s >= hi:
                    break
                mem.add(s)
        return ValueIdeal(self.carrier, mem, hi, validate=False)

    def colon(self, other: "ValueIdeal") -> "ValueIdeal":
        """Exact colon quotient {z : z + other is contained in self}."""
        self._same_carrier(other)
        lo = self.min_element - other.min_element
        hi = self.frontier - other.min_element
        need = list(other.elements_below(max(other.frontier, self.frontier - lo)))
        mem = []
        for z in range(lo, hi):
            ok = True
            for f in need:
                if z + f >= self.frontier:
                    break
                if (z + f) not in self:
                    ok = False
                    break
            if ok:
                mem.append(z)
        return ValueIdeal(self.carrier, mem, hi, validate=False)

    def intersect(self, other: "ValueIdeal") -> "ValueIdeal":
        self._same_carrier(other)
        hi = max(self.frontier, other.frontier)
        mem = [x for x in self.elements_below(hi) if x in other]
        return ValueIdeal(self.carrier, mem, hi, validate=False)

    def shift(self, z: int) -> "ValueIdeal":
        """Translate by z; canonical form is preserved."""
        return ValueIdeal(self.carrier, [x + z for x in self.members],
                          self.frontier + z, validate=False)

    def contains(self, other: "ValueIdeal") -> bool:
        self._same_carrier(other)
        hi = max(self.frontier, other.frontier)
        return all(x in self for x in other.elements_below(hi))

    # -- derived data --------------------------------------------------------

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal generating set E minus (E + M)."""
        if self._mingens is None:
            e = self.carrier.multiplicity
            hi = self.frontier + e
            window = list(self.elements_below(hi))
            gens = []
            for x in window:
                decomposable = False
                for y in window:
                    if y >= x:
                        break
                    if (x - y) in self.carrier and (x - y) > 0:
                        decomposable = True
                        break
                if not decomposable:
                    gens.append(x)
            self._mingens = tuple(gens)
        return self._mingens

    def is_principal(self) -> bool:
        return self.minimal_generators() == (self.min_element,)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueIdeal):
            return NotImplemented
        return (self.carrier == other.carrier and self.members == other.members
                and self.frontier == other.frontier)

    def __hash__(self) -> int:
        return hash((self.carrier, self.members, self.frontier))

    def __repr__(self) -> str:
        body = ",".join(map(str, self.members))
        sep = "," if body else ""
        return f"ValueIdeal({{{body}{sep}{self.frontier}->}})"


def length_between(larger: ValueIdeal, smaller: ValueIdeal) -> int:
    """Length l(E/F) = #(E minus F); raises NotNested with a witness if F is not in E."""
    larger._same_carrier(smaller)
    hi = max(larger.frontier, smaller.frontier)
    for x in smaller.elements_below(hi):
        if x not in larger:
            raise NotNested(x)
    return sum(1 for x in larger.elements_below(hi) if x not in smaller)
