"""Exhaustive enumeration of semigroups by genus and of monomial ideals.

Semigroups are walked as a tree rooted at the natural numbers: the children
of S are S minus one minimal generator g at or past the conductor c.
Every semigroup of genus g+1 arises from exactly one parent this way, so the
walk visits each semigroup once and the per-genus counts are exact.  A child
is one mask built from its parent's: S's members below c, all of [c, g), and
the tail from g + 1.  Removing a minimal generator leaves a semigroup, so
only the parser, which reads input from outside, checks closure.

Ideals inside the maximal ideal correspond to antichains: the minimal
generating set of a monomial ideal is unique (the elements not reachable by
adding a nonzero semigroup element), and a finite set is a minimal
generating set precisely when no member minus another lands in S.  The walk
extends an antichain by y exactly when y lies outside the ideal the antichain
generates, since y - x in S for a chosen x says y is in x + S.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import NumericalSemigroup, ValueIdeal


def genus_tree_children(s: NumericalSemigroup) -> list[NumericalSemigroup]:
    """Children in the genus tree, ordered by the removed generator.

    Removing a minimal generator g >= c keeps S's mask below c, fills [c, g)
    and starts the tail at g + 1, so each child is that one mask.
    """
    c = s.conductor
    return [NumericalSemigroup._of_mask(s.bits | ((1 << g) - (1 << c)), g + 1)
            for g in s.min_generators if g >= c]


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
    node builds its antichain's ideal once; y sits above a chosen x exactly
    when y is in that ideal, so the children are the later window values
    outside it.
    """
    if bound is None:
        bound = default_generator_bound(s)
    window = list(s.maximal_ideal().elements_below(bound + 1))
    minimum_size = 2 if non_principal_only else 1

    def walk(chosen: list[int], start: int) -> Iterator[ValueIdeal]:
        ideal = ValueIdeal.generated_by(s, chosen)
        ideal._mingens = tuple(chosen)  # an antichain is its ideal's minimal generators
        if len(chosen) >= minimum_size:
            yield ideal
        for i in range(start, len(window)):
            if window[i] not in ideal:
                chosen.append(window[i])
                yield from walk(chosen, i + 1)
                chosen.pop()

    for i, y in enumerate(window):
        yield from walk([y], i + 1)


def sample_ideals(s: NumericalSemigroup, count: int, rng, *,
                  bound: int | None = None) -> list[ValueIdeal]:
    """Deterministic sample (given the rng) of non-principal ideals."""
    pool = list(enumerate_ideals(s, bound=bound))
    if len(pool) <= count:
        return pool
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]
