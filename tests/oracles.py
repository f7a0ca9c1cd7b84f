"""Brute-force reference computations used to pin expected values.

One set model: a set of integers bounded below and cofinite above is the
exact pair (members below the frontier, frontier), with everything from the
frontier on a member, in canonical form: the run of members just below the
frontier joins it, so frontier - 1 is no member.  A library ideal e is the
same pair as (e.members, e.frontier), so a test compares whole sets.  Sums,
colons, lengths and containment take the pairs whole: no window is guessed,
and a colon or a length reaches as far below 0 as it needs.  Nothing here
imports sgblow, so a bug cannot hide on both sides.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def cofinite(members, frontier: int) -> tuple[tuple[int, ...], int]:
    """The canonical pair: the run of members just below the frontier joins it."""
    below = {x for x in members if x < frontier}
    while frontier - 1 in below:
        below.discard(frontier - 1)
        frontier -= 1
    return tuple(sorted(below)), frontier


def least(a) -> int:
    return a[0][0] if a[0] else a[1]


def member(x: int, a) -> bool:
    return x >= a[1] or x in a[0]


def _up_to(a, hi: int) -> set[int]:
    """The members of A below hi, for hi at or past A's frontier."""
    return set(a[0]).union(range(a[1], hi))


def sumset(a, b):
    """{x + y}: every sum from min A + frontier B and from frontier A + min B on."""
    frontier = min(least(a) + b[1], a[1] + least(b))
    return cofinite({x + y for x in a[0] for y in b[0]}, frontier)


def colon(a, b):
    """{z : z + B inside A}.  z + (frontier B ->) lies in A iff z >= fA - fB,
    and every z >= fA - min B passes."""
    members, frontier = set(a[0]), a[1]
    top = frontier - least(b)
    held = {z for z in range(frontier - b[1], top)
            if all(z + y >= frontier or z + y in members for y in b[0])}
    return cofinite(held, top)


def intersect(a, b):
    """A and B meet in a set full from the later frontier on."""
    frontier = max(a[1], b[1])
    return cofinite(_up_to(a, frontier) & _up_to(b, frontier), frontier)


def contains(a, b) -> bool:
    """B inside A."""
    members = set(a[0])
    return b[1] >= a[1] and all(y >= a[1] or y in members for y in b[0])


def length(larger, smaller) -> int:
    """l(E/F) = #(E minus F); asserts F inside E.  Both are full from F's
    frontier on, so it is the count of E's members below it less F's."""
    assert contains(larger, smaller)
    return len(larger[0]) + smaller[1] - larger[1] - len(smaller[0])


def closure_from_generators(gens) -> tuple[tuple[int, ...], int]:
    """The semigroup the generators span, as (members below its conductor,
    conductor).  gcd(gens) = 1, so by Schur's bound every integer from
    min(gens) * max(gens) on is a sum; the sums below it are sieved."""
    assert gcd(*gens) == 1
    bound = min(gens) * max(gens)
    reached = {0}
    for x in range(bound):
        if x in reached:
            reached.update(x + g for g in gens)
    return cofinite(reached, bound)


def maximal_ideal(s):
    """M = S minus 0."""
    return cofinite([x for x in s[0] if x], max(s[1], 1))


def ideal(small: tuple[int, ...], conductor: int, gens):
    """The ideal of S spanned by gens: the union of g + S, full from
    min(gens) + c on.  small lists S's members below c (more are ignored)."""
    return cofinite({g + x for g in gens for x in small if x < conductor},
                    min(gens) + conductor)


def canonical_ideal(small: tuple[int, ...], conductor: int):
    """K = {j : c - 1 - j not in S}: 0 is in K, and all from c on."""
    inside = set(small)
    return cofinite([j for j in range(conductor) if conductor - 1 - j not in inside], conductor)


def minimal_generators(e, s) -> tuple[int, ...]:
    """The minimal generators of an ideal E of S: E minus (E + M)."""
    reached = sumset(e, maximal_ideal(s))
    return tuple(sorted(_up_to(e, reached[1]) - set(reached[0])))


def powers(s, e) -> list:
    """[S, E, 2E, ..., (nu+1)E] for an ideal E inside S, where nu is the
    first n with H(n) = l(nE/(n+1)E) = min E.  nu is at most min E, which
    bounds the loop."""
    a = least(e)
    out = [s, e]
    while length(out[-2], out[-1]) != a:
        assert len(out) <= a + 2, "nu is at most min E"
        out.append(sumset(out[-1], e))
    return out


def iterated_blowup(small: tuple[int, ...], conductor: int,
                    gens: list[int]) -> tuple[tuple[tuple[int, ...], int], int]:
    """The blow-up Lambda of the ideal gens spans, plus the first stage n
    with nE:nE = Lambda.  The quotient chain nE:nE only grows and is
    constant from nu on, so Lambda is its stage nu + 1, asserted to be its
    stage nu as well."""
    chain = powers(cofinite(small, conductor), ideal(small, conductor, gens))
    quotients = [colon(p, p) for p in chain[1:]]
    lam = quotients[-1]
    assert quotients[-2] == lam, "nE:nE is constant from nu on"
    return lam, quotients.index(lam) + 1


def is_semigroup_gap_set(gaps: frozenset[int]) -> bool:
    """Whether N minus gaps is closed under addition (gaps finite, 0 absent).
    A sum that lands on a gap has both terms below the largest gap."""
    if 0 in gaps:
        return False
    top = max(gaps) if gaps else 0
    members = [x for x in range(1, top) if x not in gaps]
    for i, a in enumerate(members):
        for b in members[i:]:
            if a + b <= top and (a + b) in gaps:
                return False
    return True


def count_semigroups_of_genus(genus: int) -> int:
    """Filter all genus-sized gap candidate sets inside [1, 2*genus): the
    Frobenius number of a semigroup is below twice its genus."""
    if genus == 0:
        return 1
    candidates = range(1, 2 * genus)
    total = 0
    for gaps in combinations(candidates, genus):
        if is_semigroup_gap_set(frozenset(gaps)):
            total += 1
    return total


def all_nonprincipal_ideals(small: tuple[int, ...], conductor: int,
                            bound: int) -> set[frozenset[int]]:
    """The minimal generating sets, of two or more, of the ideals spanned by
    nonzero members of S up to bound, every subset of them tried.  bound is
    the generator bound of the ideal walk: part of what is enumerated."""
    s = cofinite(small, conductor)
    window = [x for x in range(1, bound + 1) if member(x, s)]
    spans = {ideal(small, conductor, gens)
             for size in range(1, len(window) + 1) for gens in combinations(window, size)}
    found = (minimal_generators(e, s) for e in spans)
    return {frozenset(gens) for gens in found if len(gens) >= 2}


def antichains_in_order(small: tuple[int, ...], conductor: int, bound: int,
                        minimum_size: int) -> list[tuple[int, ...]]:
    """Every antichain of at least minimum_size nonzero members up to bound,
    x below y when y - x is a member, as ascending tuples in lexicographic
    order: each tuple before its extensions, extensions by smaller values
    first.  bound is the generator bound of the ideal walk."""
    s = cofinite(small, conductor)
    window = [x for x in range(1, bound + 1) if member(x, s)]
    out = []

    def grow(chain: tuple[int, ...]) -> None:
        if len(chain) >= minimum_size:
            out.append(chain)
        for y in window:
            if y > chain[-1] and all(not member(y - x, s) for x in chain):
                grow(chain + (y,))

    for y in window:
        grow((y,))
    return sorted(out)


# -- the blow-up record and the translation class ---------------------------


def _ring(small: tuple[int, ...], conductor: int):
    """S's members below c, ascending, and S, K and M."""
    elems = sorted(x for x in small if x < conductor)
    s = cofinite(elems, conductor)
    return elems, s, canonical_ideal(elems, conductor), maximal_ideal(s)


def blowup_record(small: tuple[int, ...], conductor: int,
                  lam_members: tuple[int, ...], lam_frontier: int) -> dict:
    """Every quantity of a blow-up Lambda over S, computed from its definition.

    small lists S's members below the conductor c (members from c on are
    ignored); Lambda is given by its members below its frontier.  Each set
    in the result is (members below its frontier, frontier).  The keys are
    the record's quantity names and the condition members A1-A3, B1, B2 and
    the bridge.
    """
    c = conductor
    elems, s, k, m = _ring(small, c)  # s_0 = 0 < ... < s_(n-1); s_n = c
    norm = ((), 0)
    lam = cofinite(lam_members, lam_frontier)
    r_colon = colon(s, lam)
    bidual = colon(s, r_colon)
    omega = sumset(k, lam)
    k_colon = colon(k, lam)
    # R_i = {x in S : x >= s_i}; r_i = l((S:R_i)/(S:R_(i-1))) for i = 1..n
    smalls = elems + [c]
    duals = [colon(s, cofinite([x for x in elems if x >= si], c)) for si in smalls]
    r = [length(duals[i], duals[i - 1]) for i in range(1, len(smalls))]
    gamma = tuple(i for i in range(1, len(smalls)) if member(elems[i - 1], r_colon))
    outside = tuple(i for i in range(1, len(smalls)) if i not in gamma)
    i0 = smalls.index(least(r_colon))
    r_filter = cofinite([x for x in elems if x >= smalls[i0]], c)
    r_star = colon(s, r_filter)
    # the integral closure of an ideal inside S is S from its least member on
    lo = least(r_colon)
    r_colon_closure = cofinite([x for x in elems if x >= lo], max(lo, c))
    delta = length(norm, lam)
    c_lam = lam[1]
    sum_gamma = sum(r[i - 1] for i in gamma)
    return {
        "r_colon_lambda": r_colon, "lam_bidual": bidual, "omega_lambda": omega,
        "k_colon_lambda": k_colon, "delta_lambda": delta, "gamma_set": gamma,
        "outside_gamma": outside, "len_r_over_rcolon": length(s, r_colon), "i0": i0,
        "n_lambda": c_lam - delta,
        # symmetric: x in Lambda exactly when c_Lambda - 1 - x is not
        "lambda_gorenstein": all(member(x, lam) != member(c_lam - 1 - x, lam)
                                 for x in range(c_lam)),
        "lam_is_normalization": lam == norm,
        "len_bidual_over_lambda": length(bidual, lam),
        "len_omega_over_lambda": length(omega, lam),
        "len_omega_over_bidual": length(omega, bidual),
        "len_rbar_over_omega": length(norm, omega),
        "len_rbar_over_bidual": length(norm, bidual),
        "len_bidual_over_rstar": length(bidual, r_star),
        "sum_gamma": sum_gamma,
        "sum_not_gamma": sum(r[i - 1] for i in outside),
        "sum_not_gamma_excess": sum(r[i - 1] - 1 for i in outside),
        "d": length(norm, bidual) - sum_gamma,
        "lam_contains_dual_m": contains(lam, colon(s, m)),
        "k_in_lam_bidual": contains(bidual, k),
        "r_colon_integrally_closed": r_colon == r_colon_closure,
        "k_in_lambda": contains(lam, k), "lambda_reflexive": lam == bidual,
        "a1": contains(lam, k), "a2": omega == lam, "a3": k_colon == r_colon,
        "b1": lam == bidual, "b2": k_colon == sumset(k, r_colon),
        "colon_inside_omega_dual": contains(colon(s, k), r_colon),
    }


def translation_class(small: tuple[int, ...], conductor: int,
                      e_members: tuple[int, ...], e_frontier: int) -> dict:
    """The facts about an ideal E of S that a translation of E leaves as they
    are, or only moves, computed from their definitions.

    small lists S's members below the conductor c; E is given by its members
    below its frontier.  The keys: E** = S:(S:E) as (members, frontier);
    whether E is reflexive, K + E = E**, E:E contains S:M and nuE is
    reflexive; and nu, the first n with l(nE/(n+1)E) = min E.
    """
    _, s, k, m = _ring(small, conductor)
    e = cofinite(e_members, e_frontier)
    bidual = colon(s, colon(s, e))
    chain = powers(s, e)
    nu = len(chain) - 2
    p_nu = chain[nu]
    return {
        "bidual": bidual,
        "reflexive": bidual == e,
        "omega_is_bidual": sumset(k, e) == bidual,
        "colon_contains_dual_m": contains(colon(e, e), colon(s, m)),
        "nu": nu,
        "power_nu_reflexive": colon(s, colon(s, p_nu)) == p_nu,
    }
