"""Brute-force reference computations used to pin expected values.

Everything here works on plain integer sets over explicit windows, with no
shared code paths into the library, so a bug cannot hide on both sides.
"""

from __future__ import annotations

from itertools import combinations


def closure_from_generators(gens: list[int], hi: int) -> set[int]:
    """All sums of the generators that land below hi, by dynamic programming."""
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x + g
                if y < hi and y not in reached:
                    reached.add(y)
                    nxt.append(y)
        frontier = nxt
    return reached


def semigroup_members(small: tuple[int, ...], conductor: int, hi: int) -> set[int]:
    return {x for x in small if x < hi} | set(range(conductor, hi))


def ideal_members(small: tuple[int, ...], conductor: int,
                  gens: list[int], hi: int) -> set[int]:
    """Union of generator translates of the semigroup, windowed."""
    s = semigroup_members(small, conductor, hi)
    out: set[int] = set()
    for g in gens:
        out |= {g + x for x in s if g + x < hi}
    return out


def sumset(a: set[int], b: set[int], hi: int) -> set[int]:
    return {x + y for x in a for y in b if x + y < hi}


def colon(a: set[int], b: set[int], lo: int, hi: int, guard: int) -> set[int]:
    """{z in [lo, hi) : z + b inside a}, testing b only below guard."""
    bb = [y for y in b if y < guard]
    return {z for z in range(lo, hi) if all((z + y) in a for y in bb)}


def gap_length(larger: set[int], smaller: set[int], hi: int) -> int:
    """#(larger minus smaller) below hi; asserts containment on the window."""
    assert smaller <= larger
    return len(larger - smaller)


def minimal_generators_of_ideal(members: set[int], nonzero_s: set[int]) -> set[int]:
    reachable = {x + s for x in members for s in nonzero_s}
    return {x for x in members if x not in reachable}


def canonical_members(small: tuple[int, ...], conductor: int, hi: int) -> set[int]:
    """{j : c - 1 - j not in S}, windowed from 0."""
    s = semigroup_members(small, conductor, conductor + hi + 1)
    out = set()
    for j in range(hi):
        t = conductor - 1 - j
        if t < 0 or t not in s:
            out.add(j)
    return out


def is_semigroup_gap_set(gaps: frozenset[int]) -> bool:
    """Whether N minus gaps is closed under addition (gaps finite, 0 absent)."""
    if 0 in gaps:
        return False
    top = max(gaps) if gaps else 0
    members = [x for x in range(1, 2 * top + 2) if x not in gaps]
    for i, a in enumerate(members):
        for b in members[i:]:
            if a + b <= top and (a + b) in gaps:
                return False
    return True


def count_semigroups_of_genus(genus: int) -> int:
    """Filter all genus-sized gap candidate sets inside [1, 2*genus]."""
    if genus == 0:
        return 1
    candidates = range(1, 2 * genus)  # the Frobenius number is < 2*genus
    total = 0
    for gaps in combinations(candidates, genus):
        if is_semigroup_gap_set(frozenset(gaps)):
            total += 1
    return total


def all_nonprincipal_ideals(small: tuple[int, ...], conductor: int,
                            bound: int) -> set[frozenset[int]]:
    """Distinct non-principal ideals from all generator subsets, by window."""
    mult = min((x for x in small if x > 0), default=conductor)
    window = [x for x in range(mult, bound + 1)
              if x in semigroup_members(small, conductor, bound + 1) and x > 0]
    hi = bound + 2 * conductor + 2
    nonzero_s = {x for x in semigroup_members(small, conductor, hi) if x > 0}
    seen: dict[frozenset[int], set[int]] = {}
    for size in range(1, len(window) + 1):
        for gens in combinations(window, size):
            mem = frozenset(ideal_members(small, conductor, list(gens), hi))
            seen.setdefault(mem, set()).update(gens)
    out = set()
    for mem in seen:
        mins = minimal_generators_of_ideal(set(mem), nonzero_s)
        if len(mins) >= 2:
            out.add(frozenset(sorted(mins)))
    return out


def antichains_in_order(small: tuple[int, ...], conductor: int, bound: int,
                        minimum_size: int) -> list[tuple[int, ...]]:
    """Every antichain of at least minimum_size nonzero members up to bound,
    x below y when y - x is a member, as ascending tuples in lexicographic
    order: each tuple before its extensions, extensions by smaller values
    first."""
    members = semigroup_members(small, conductor, bound + 1)
    window = sorted(x for x in members if x > 0)
    out = []

    def grow(chain: tuple[int, ...]) -> None:
        if len(chain) >= minimum_size:
            out.append(chain)
        for y in window:
            # y - x <= bound, so the windowed member set decides it
            if y > chain[-1] and all(y - x not in members for x in chain):
                grow(chain + (y,))

    for y in window:
        grow((y,))
    return sorted(out)


def iterated_blowup(small: tuple[int, ...], conductor: int,
                    gens: list[int]) -> tuple[set[int], int]:
    """The stable quotient of high powers, plus the first stage reaching it.

    The quotient chain nE:nE only grows and is constant from the reduction
    exponent on, which is below min(gens); evaluating at cap = min(gens) + 2
    is therefore past stabilization with room to spare.
    """
    cap = min(gens) + 2
    hi = cap * (max(gens) + 1) + 4 * conductor + 8
    guard = hi // 2
    e = ideal_members(small, conductor, gens, hi)
    quotients = []
    power = e
    for _ in range(cap):
        quotients.append(colon(power, power, 0, guard, guard))
        power = sumset(power, e, hi)
    lam = quotients[-1]
    for n, quot in enumerate(quotients, start=1):
        if quot == lam:
            return lam, n
    raise AssertionError("unreachable: the last stage equals itself")


# -- the blow-up record, on exact cofinite sets ----------------------------
#
# A set bounded below and cofinite above is a pair (members below frontier,
# frontier) with everything from the frontier on a member: no window to
# guess, so a colon or a length may reach as far below 0 as it needs.


def _cofinite(members, frontier: int) -> tuple[tuple[int, ...], int]:
    """The canonical pair: the run of members just below the frontier joins it."""
    below = {x for x in members if x < frontier}
    while frontier - 1 in below:
        below.discard(frontier - 1)
        frontier -= 1
    return tuple(sorted(below)), frontier


def _least(a) -> int:
    return a[0][0] if a[0] else a[1]


def _member(x: int, a) -> bool:
    return x >= a[1] or x in a[0]


def _sum(a, b):
    """{x + y}: every sum from min A + frontier B and from frontier A + min B on."""
    frontier = min(_least(a) + b[1], a[1] + _least(b))
    return _cofinite({x + y for x in a[0] for y in b[0]}, frontier)


def _colon(a, b):
    """{z : z + B inside A}.  z + (frontier B ->) lies in A iff z >= fA - fB,
    and every z >= fA - min B passes."""
    members, frontier = set(a[0]), a[1]
    top = frontier - _least(b)
    held = {z for z in range(frontier - b[1], top)
            if all(z + y >= frontier or z + y in members for y in b[0])}
    return _cofinite(held, top)


def _contains(a, b) -> bool:
    """B inside A."""
    return b[1] >= a[1] and all(_member(y, a) for y in b[0])


def _length(larger, smaller) -> int:
    """l(E/F) = #(E minus F); asserts F inside E."""
    assert _contains(larger, smaller)
    return sum(1 for x in range(_least(larger), smaller[1])
               if _member(x, larger) and not _member(x, smaller))


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
    elems = sorted(x for x in small if x < c)  # s_0 = 0 < ... < s_(n-1); s_n = c
    s = _cofinite(elems, c)
    norm = ((), 0)
    k = _cofinite([j for j in range(c) if not _member(c - 1 - j, s)], c)
    m = _cofinite(elems[1:], c)
    lam = _cofinite(lam_members, lam_frontier)
    r_colon = _colon(s, lam)
    bidual = _colon(s, r_colon)
    omega = _sum(k, lam)
    k_colon = _colon(k, lam)
    # R_i = {x in S : x >= s_i}; r_i = l((S:R_i)/(S:R_(i-1))) for i = 1..n
    smalls = elems + [c]
    duals = [_colon(s, _cofinite([x for x in elems if x >= si], c)) for si in smalls]
    r = [_length(duals[i], duals[i - 1]) for i in range(1, len(smalls))]
    gamma = tuple(i for i in range(1, len(smalls)) if _member(elems[i - 1], r_colon))
    outside = tuple(i for i in range(1, len(smalls)) if i not in gamma)
    i0 = smalls.index(_least(r_colon))
    r_filter = _cofinite([x for x in elems if x >= smalls[i0]], c)
    r_star = _colon(s, r_filter)
    # the integral closure of an ideal inside S is S from its least member on
    lo = _least(r_colon)
    r_colon_closure = _cofinite([x for x in elems if x >= lo], max(lo, c))
    delta = _length(norm, lam)
    c_lam = lam[1]
    sum_gamma = sum(r[i - 1] for i in gamma)
    return {
        "r_colon_lambda": r_colon, "lam_bidual": bidual, "omega_lambda": omega,
        "k_colon_lambda": k_colon, "delta_lambda": delta, "gamma_set": gamma,
        "outside_gamma": outside, "len_r_over_rcolon": _length(s, r_colon), "i0": i0,
        "n_lambda": c_lam - delta,
        # symmetric: x in Lambda exactly when c_Lambda - 1 - x is not
        "lambda_gorenstein": all(_member(x, lam) != _member(c_lam - 1 - x, lam)
                                 for x in range(c_lam)),
        "lam_is_normalization": lam == norm,
        "len_bidual_over_lambda": _length(bidual, lam),
        "len_omega_over_lambda": _length(omega, lam),
        "len_omega_over_bidual": _length(omega, bidual),
        "len_rbar_over_omega": _length(norm, omega),
        "len_rbar_over_bidual": _length(norm, bidual),
        "len_bidual_over_rstar": _length(bidual, r_star),
        "sum_gamma": sum_gamma,
        "sum_not_gamma": sum(r[i - 1] for i in outside),
        "sum_not_gamma_excess": sum(r[i - 1] - 1 for i in outside),
        "d": _length(norm, bidual) - sum_gamma,
        "lam_contains_dual_m": _contains(lam, _colon(s, m)),
        "k_in_lam_bidual": _contains(bidual, k),
        "r_colon_integrally_closed": r_colon == r_colon_closure,
        "k_in_lambda": _contains(lam, k), "lambda_reflexive": lam == bidual,
        "a1": _contains(lam, k), "a2": omega == lam, "a3": k_colon == r_colon,
        "b1": lam == bidual, "b2": k_colon == _sum(k, r_colon),
        "colon_inside_omega_dual": _contains(_colon(s, k), r_colon),
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
    c = conductor
    elems = sorted(x for x in small if x < c)
    s = _cofinite(elems, c)
    k = _cofinite([j for j in range(c) if not _member(c - 1 - j, s)], c)
    m = _cofinite(elems[1:], c)
    e = _cofinite(e_members, e_frontier)
    bidual = _colon(s, _colon(s, e))
    # H(n) = l(nE/(n+1)E) with 0E = S; it reaches min E at nu and stays there
    a = _least(e)
    powers = [s, e]
    while _length(powers[-2], powers[-1]) != a:
        assert len(powers) <= a + 2, "nu is at most min E"
        powers.append(_sum(powers[-1], e))
    nu = len(powers) - 2
    p_nu = powers[nu]
    return {
        "bidual": bidual,
        "reflexive": bidual == e,
        "omega_is_bidual": _sum(k, e) == bidual,
        "colon_contains_dual_m": _contains(_colon(e, e), _colon(s, m)),
        "nu": nu,
        "power_nu_reflexive": _colon(s, _colon(s, p_nu)) == p_nu,
    }
