"""Exhaustive enumeration of semigroups by genus and of monomial ideals.

Semigroups are walked as a tree rooted at the natural numbers: the children
of S are S minus one minimal generator larger than the Frobenius number.
Every semigroup of genus g+1 arises from exactly one parent this way, so the
walk visits each semigroup once and the per-genus counts are exact.

Ideals inside the maximal ideal correspond to antichains: the minimal
generating set of a monomial ideal is unique (the elements not reachable by
adding a nonzero semigroup element), and a finite set is a minimal
generating set precisely when no member minus another lands in S.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import NumericalSemigroup, ValueIdeal


def genus_tree_children(s: NumericalSemigroup) -> list[NumericalSemigroup]:
    """Children in the genus tree, ordered by the removed generator."""
    children = []
    for g in s.min_generators:
        if g <= s.frobenius:
            continue
        members = [x for x in s.elements_up_to(g) if x != g]
        children.append(NumericalSemigroup.from_explicit(members, g + 1))
    return children


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
    over the maximal-ideal window, depth-first in lexicographic order.
    """
    if bound is None:
        bound = default_generator_bound(s)
    window = list(s.maximal_ideal().elements_below(bound + 1))
    minimum_size = 2 if non_principal_only else 1

    def walk(chosen: list[int], start: int) -> Iterator[ValueIdeal]:
        if len(chosen) >= minimum_size:
            e = ValueIdeal.generated_by(s, chosen)
            e._mingens = tuple(chosen)  # an antichain is its ideal's minimal generators
            yield e
        for i in range(start, len(window)):
            y = window[i]
            # keep the antichain property: y must not sit above a chosen element
            if all((y - x) not in s for x in chosen):
                chosen.append(y)
                yield from walk(chosen, i + 1)
                chosen.pop()

    yield from walk([], 0)


def sample_ideals(s: NumericalSemigroup, count: int, rng, *,
                  bound: int | None = None) -> list[ValueIdeal]:
    """Deterministic sample (given the rng) of non-principal ideals."""
    pool = list(enumerate_ideals(s, bound=bound))
    if len(pool) <= count:
        return pool
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]
