"""Exhaustive enumeration of semigroups by genus and of monomial ideals.

Semigroups are walked as a tree rooted at the natural numbers: the children
of S are S minus one minimal generator g at or past the conductor c.
Every semigroup of genus g+1 arises from exactly one parent this way, so the
walk visits each semigroup once and the per-genus counts are exact.  A child
is one mask built from its parent's: S's members below c, all of [c, g), and
the tail from g + 1.  Removing a minimal generator leaves a semigroup, so
only the parser, which reads input from outside, checks closure.

A child's minimal generators come from its parent's too.  Take g > m, the
multiplicity, so S' = S minus g keeps m.  Every generator of S other than g
stays one, since S' lies inside S.  A new generator y of S' is a sum in S but
not in S', so each way of writing it uses g: y = g + b with b in M, and
y >= g + m.  And y - m is in S' when y > g + m (it is past g >= c), so
y = g + m.  g + m is a generator of S' exactly when g + m - h is a nonzero
member of S' for no other generator h of S: one bit test per generator.
Only g = m (N losing 1, {0, m->} losing m) moves the multiplicity, and those
children find their generators from scratch.

Ideals inside the maximal ideal correspond to antichains: the minimal
generating set of a monomial ideal is unique (the elements not reachable by
adding a nonzero semigroup element), and a finite set is a minimal
generating set precisely when no member minus another lands in S.  The walk
extends an antichain by y exactly when y lies outside the ideal the antichain
generates, since y - x in S for a chosen x says y is in x + S.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import NumericalSemigroup, ValueIdeal, _ones, _positions
from .errors import WindowTooLarge


def genus_tree_children(s: NumericalSemigroup) -> list[NumericalSemigroup]:
    """Children in the genus tree, ordered by the removed generator.

    Removing a minimal generator g >= c keeps S's mask below c, fills [c, g)
    and starts the tail at g + 1, so each child is that one mask.  For g > m
    its minimal generators are S's without g, plus g + m when no other
    generator h leaves g + m - h a nonzero member of the child (see the
    module docstring); its genus is one more and its multiplicity is m.
    """
    c, m, gens = s.conductor, s.multiplicity, s.min_generators
    kids = []
    for i, g in enumerate(gens):
        if g < c:
            continue
        bits = s.bits | ((1 << g) - (1 << c))
        if g == m:
            kids.append(NumericalSemigroup._of_mask(bits, g + 1))
            continue
        # each g + m - h lies in (0, g], below the child's conductor, so one bit tells
        rest = gens[:i] + gens[i + 1:]
        for h in rest:
            if bits >> (g + m - h) & 1:
                break
        else:
            rest += (g + m,)
        k = NumericalSemigroup.__new__(NumericalSemigroup)
        k.bits, k.conductor, k.genus, k.multiplicity, k.min_generators = (
            bits, g + 1, s.genus + 1, m, rest)
        kids.append(k)
    return kids


def enumerate_semigroups(max_genus: int) -> Iterator[NumericalSemigroup]:
    """All semigroups of genus <= max_genus, breadth-first, deterministic."""
    if max_genus < 0:
        return
    level = [NumericalSemigroup.natural_numbers()]
    yield level[0]
    for _ in range(max_genus):
        nxt = []
        for s in level:
            nxt.extend(genus_tree_children(s))
        yield from nxt
        level = nxt


def semigroups_of_genus(genus: int) -> list[NumericalSemigroup]:
    return [s for s in enumerate_semigroups(genus) if s.genus == genus]


def count_by_genus(max_genus: int) -> tuple[int, ...]:
    """Number of semigroups at each genus 0..max_genus."""
    counts = [0] * (max_genus + 1)
    for s in enumerate_semigroups(max_genus):
        counts[s.genus] += 1
    return tuple(counts)


def default_generator_bound(s: NumericalSemigroup) -> int:
    return s.conductor + 2 * s.multiplicity


def enumerate_ideals(s: NumericalSemigroup, *, bound: int | None = None,
                     non_principal_only: bool = True) -> Iterator[ValueIdeal]:
    """Ideals inside the maximal ideal whose minimal generators are <= bound.

    Walks antichains of the divisibility order (x below y when y - x is in S)
    over the maximal-ideal window, depth-first in lexicographic order.  Each
    node carries its ideal's mask from base, its least value, and a child
    ORs in S's mask shifted to its new value.  y sits above a chosen x
    exactly when y is in that ideal, and all from base + c on is, so the
    children are the later window values below base + c whose bit is clear.
    """
    if bound is None:
        bound = default_generator_bound(s)
    c, below = s.conductor, s.bits
    try:
        # bit v for each window value v: the members of M up to bound
        window = _ones(bound + 1) & ~(_ones(c) & ~below | 1)
    except (OverflowError, MemoryError):
        raise WindowTooLarge(bound + 1, f"the window of ideal generators up to {bound}") from None
    minimum_size = 2 if non_principal_only else 1

    def walk(chosen: list[int], mask: int, near: int) -> Iterator[ValueIdeal]:
        # near holds the window values in [base, base + c), from base
        base, last = chosen[0], chosen[-1]
        if len(chosen) >= minimum_size:
            ideal = ValueIdeal._of(s, base, mask, base + c)
            ideal._mingens = tuple(chosen)  # an antichain is its ideal's minimal generators
            yield ideal
        free = (near & ~mask) >> (last - base + 1)
        if free:
            for y in _positions(free, last + 1):
                chosen.append(y)
                yield from walk(chosen, mask | below << (y - base), near)
                chosen.pop()

    for y in _positions(window):
        yield from walk([y], below, window >> y & _ones(c))


def sample_ideals(s: NumericalSemigroup, count: int, rng, *,
                  bound: int | None = None) -> list[ValueIdeal]:
    """Deterministic sample (given the rng) of non-principal ideals."""
    pool = list(enumerate_ideals(s, bound=bound))
    if len(pool) <= count:
        return pool
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]
