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
generates, since y - x in S for a chosen x says y is in x + S.  It runs on
one explicit stack of (antichain, mask) nodes, and an ideal is built only
for a node that is kept: once, in canonical form, straight from the mask,
as a genus-tree child is built straight from its parent's.  Its least
member is the antichain's least value y0, so canonical form only moves the
run of members just below y0 + c into the tail.  A sample indexes the
stream of nodes and builds only the ideals it draws.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

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
    """All semigroups of genus <= max_genus, breadth-first, deterministic.

    Each parent is popped as its children are made, so the walk holds the
    level it yields and what is left of the level it grows from.
    """
    if max_genus < 0:
        return
    level = [NumericalSemigroup.natural_numbers()]
    yield level[0]
    for _ in range(max_genus):
        nxt = []
        level.reverse()
        while level:
            nxt.extend(genus_tree_children(level.pop()))
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


def _antichains(s: NumericalSemigroup, bound: int | None, minimum_size: int) -> Iterator[tuple]:
    """(antichain, mask) for each antichain of at least minimum_size values
    of the window up to bound (default_generator_bound(s) if None),
    depth-first in lexicographic order.  The mask is the antichain's whole
    ideal from its least value y0: a negative int, every bit from c on set.

    y sits above a chosen x (y - x in S) exactly when y is in x + S, so an
    antichain extends by y exactly when y's bit is clear in its mask, the OR
    of S's mask shifted to each chosen value; so the children are the later
    window values whose bit is clear, all below y0 + c.  One explicit stack
    holds the unwalked nodes of each y0; children are pushed from the
    largest down, so the least pops first.
    """
    c, below = s.conductor, s.bits
    if bound is None:
        bound = default_generator_bound(s)
    try:
        # bit v for each window value v: the members of M up to bound
        window = _ones(bound + 1) & ~(_ones(c) & ~below | 1)
    except (OverflowError, MemoryError):
        raise WindowTooLarge(bound + 1, f"the window of ideal generators up to {bound}") from None
    for y0 in _positions(window):
        near = window >> y0
        stack = [((y0,), below | -1 << c)]
        while stack:
            chain, mask = node = stack.pop()
            if len(chain) >= minimum_size:
                yield node
            # the later window values outside the ideal, from y0
            free = near & ~mask & -(1 << (chain[-1] - y0 + 1))
            while free:
                d = free.bit_length() - 1
                stack.append((chain + (y0 + d,), mask | below << d))
                free ^= 1 << d


def _ideals_of(s: NumericalSemigroup, antichains: Iterable[tuple]) -> Iterator[ValueIdeal]:
    """The ideal each (antichain, mask) generates, built once in canonical
    form and carrying the antichain as its minimal generators.

    Its least member is the antichain's least value y0, so only the run of
    members just below y0 + c joins the tail: the frontier is y0 plus the
    bit length of the gaps.
    """
    for chain, mask in antichains:
        width = (~mask).bit_length()
        e = ValueIdeal.__new__(ValueIdeal)
        e.carrier, e.min_element, e.bits, e.frontier, e._mingens = (
            s, chain[0], mask & ((1 << width) - 1), chain[0] + width, chain)
        yield e


def enumerate_ideals(s: NumericalSemigroup, *, bound: int | None = None,
                     non_principal_only: bool = True) -> Iterator[ValueIdeal]:
    """Ideals inside the maximal ideal whose minimal generators are <= bound.

    One ideal per antichain of the divisibility order (x below y when y - x
    is in S) over the maximal-ideal window, depth-first in lexicographic
    order, each built once in canonical form with its antichain as its
    minimal generators.  Principal ideals are left out unless
    non_principal_only is false.  The stream is lazy: a window too wide to
    represent raises WindowTooLarge on the first next().
    """
    return _ideals_of(s, _antichains(s, bound, 2 if non_principal_only else 1))


def sample_ideals(s: NumericalSemigroup, count: int, rng, *,
                  bound: int | None = None) -> list[ValueIdeal]:
    """Deterministic sample (given the rng) of non-principal ideals.

    The draw indexes the whole antichain stream, as a list of every ideal
    would be indexed, but only the drawn antichains are built.
    """
    pool = list(_antichains(s, bound, 2))
    if len(pool) > count:
        pool = [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]
    return list(_ideals_of(s, pool))
