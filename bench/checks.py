"""Independent checks of the program's outputs.

Nothing here imports sgblow.  Every check recomputes a quantity from its
definition with plain integers and sets, or tests a property the paper's
theory guarantees, so it holds by computation and not by comparison with
a stored copy of earlier output.  Each check returns a list of problems;
an empty list means the outputs passed.
"""

from __future__ import annotations

import math

# OEIS A007323: numerical semigroups of genus 0, 1, 2, ...
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592)


def closure_of_generators(gens) -> tuple[frozenset[int], int]:
    """Members below the conductor, and the conductor, of <gens>."""
    gens = sorted(set(gens))
    if math.gcd(*gens) != 1:
        raise ValueError("generators with a common factor")
    if gens[0] == 1:
        return frozenset(), 0
    bound = gens[0] * gens[-1]  # the Frobenius number lies below this
    member = bytearray(bound + 1)
    member[0] = 1
    for x in range(1, bound + 1):
        member[x] = any(g <= x and member[x - g] for g in gens)
    conductor = max(x for x in range(bound + 1) if not member[x]) + 1
    return frozenset(x for x in range(conductor) if member[x]), conductor


def _window(members, frontier: int, hi: int) -> set[int]:
    """A cofinite set given as (members below frontier, frontier), cut at hi."""
    return {x for x in members if x < hi} | set(range(frontier, hi))


def genus(members: frozenset[int], conductor: int) -> int:
    return conductor - len(members)


def semigroup_problems(small, conductor: int, reported_genus: int) -> list[str]:
    """S is canonical, closed under addition, and its genus is its gap count."""
    members = frozenset(x for x in small if x < conductor)
    problems = []
    if conductor > 0 and (0 not in members or (conductor - 1) in members):
        problems.append(f"semigroup {small}: not in canonical form")
    for x in members:
        for y in members:
            if x <= y and x + y < conductor and (x + y) not in members:
                problems.append(f"semigroup {small}: {x}+{y} missing")
                return problems
    if reported_genus != genus(members, conductor):
        problems.append(f"semigroup {small}: genus {reported_genus}, "
                        f"gap count {genus(members, conductor)}")
    return problems


def pseudo_frobenius(members: frozenset[int], conductor: int) -> list[int]:
    """Gaps x with x + s in S for every nonzero s in S, by brute force."""
    nonzero = [s for s in members if s > 0]
    return [x for x in range(conductor) if x not in members
            and all((x + s) >= conductor or (x + s) in members for s in nonzero)]


def type_sequence_problems(members, conductor: int, entries) -> list[str]:
    """Sum of r_i is the genus; r_1 is the number of pseudo-Frobenius numbers."""
    problems = []
    g = genus(members, conductor)
    if sum(entries) != g:
        problems.append(f"type sequence {list(entries)} sums to {sum(entries)}, genus is {g}")
    pf = len(pseudo_frobenius(members, conductor))
    if not entries or entries[0] != pf:
        problems.append(f"type sequence {list(entries)}: r_1 should be #PF = {pf}")
    return problems


def gorenstein_problems(members, conductor: int, gorenstein: bool) -> list[str]:
    """Gorenstein (symmetric) exactly when c = 2g."""
    if gorenstein != (conductor == 2 * genus(members, conductor)):
        return [f"gorenstein={gorenstein} but c={conductor}, g={genus(members, conductor)}"]
    return []


def blowup_closure(members, conductor: int, e_members, e_frontier: int) -> frozenset[int]:
    """Members below the conductor of the closure of S and E - min E."""
    if conductor == 0:
        return frozenset()
    a = e_members[0] if e_members else e_frontier
    full = (1 << conductor) - 1
    closed = 0
    for x in members:
        closed |= 1 << x
    shifts = sorted(x - a for x in _window(e_members, e_frontier, conductor + a) if x > a)
    for d in shifts:
        if d < conductor:
            closed |= 1 << d
    while True:
        grown = closed
        for d in shifts:
            grown |= (closed << d) & full
        if grown == closed:
            return frozenset(x for x in range(conductor) if (closed >> x) & 1)
        closed = grown


def ideal_generators(members, conductor: int, e_members, e_frontier: int) -> tuple[int, ...]:
    """Minimal generators of E: members not reachable as y + s with s in S, s > 0."""
    multiplicity = min((x for x in members if x > 0), default=max(conductor, 1))
    window = sorted(_window(e_members, e_frontier, e_frontier + multiplicity))
    in_s = lambda z: z >= conductor or z in members  # noqa: E731
    return tuple(x for x in window
                 if not any(y < x and in_s(x - y) for y in window))


def reduction_exponent(members, conductor: int, e_members, e_frontier: int) -> int | None:
    """First n with #(nE minus (n+1)E) = min E, from powers built as plain sets.

    The powers are cut at hi, which lies above the frontier of every power
    compared, so the counts are exact.
    """
    a = e_members[0] if e_members else e_frontier
    hi = e_frontier + (a + 3) * a
    gens = ideal_generators(members, conductor, e_members, e_frontier)
    power = _window(members, conductor, hi)          # 0E = S
    nxt = _window(e_members, e_frontier, hi)         # 1E = E
    for n in range(a + 2):
        if len(power - nxt) == a:
            return n
        power, nxt = nxt, {x + g for x in nxt for g in gens if x + g < hi}
    return None


def pair_problems(rec: dict) -> list[str]:
    """Blow-up, reduction exponent, rho and verdicts of one pair."""
    c = rec["c"]
    members = frozenset(x for x in rec["s_small"] if x < c)
    where = f"S={rec['s_small'][:6]}.. c={c} E={rec['e_members'][:6]}..{rec['e_frontier']}->"
    problems = []
    lam_own = blowup_closure(members, c, rec["e_members"], rec["e_frontier"])
    lam_prog = _window(rec["lam_members"], rec["lam_frontier"], c)
    if lam_own != lam_prog:
        problems.append(f"{where}: Lambda differs from the closure of S and E - min E "
                        f"(only program: {sorted(lam_prog - lam_own)[:5]}, "
                        f"only closure: {sorted(lam_own - lam_prog)[:5]})")
    nu = reduction_exponent(members, c, rec["e_members"], rec["e_frontier"])
    if rec["nu"] != nu:
        problems.append(f"{where}: nu={rec['nu']}, plain-set powers give {nu}")
    rho = genus(members, c) - genus(lam_own, c)
    if rec["rho"] != rho:
        problems.append(f"{where}: rho={rec['rho']}, g(S) - g(Lambda) = {rho}")
    failed = [i for i, status in enumerate(rec["statuses"]) if status == "failed"]
    if failed:
        problems.append(f"{where}: verdicts {failed} failed")
    return problems


def semigroup_record_problems(rec: dict) -> list[str]:
    """Per-semigroup checks: canonical form, type sequence, Gorenstein."""
    c = rec["c"]
    members = frozenset(x for x in rec["s_small"] if x < c)
    problems = semigroup_problems(rec["s_small"], c, rec["genus"])
    problems += type_sequence_problems(members, c, rec["type_sequence"])
    problems += gorenstein_problems(members, c, rec["gorenstein"])
    return problems


def antichains(members, conductor: int, bound: int) -> set[tuple[int, ...]]:
    """Generator sets (size >= 2, all <= bound) of ideals inside the maximal ideal."""
    in_s = lambda z: z >= conductor or z in members  # noqa: E731
    window = [x for x in range(1, bound + 1) if in_s(x)]
    found = set()

    def walk(chosen, start):
        if len(chosen) >= 2:
            found.add(tuple(chosen))
        for i in range(start, len(window)):
            y = window[i]
            if not any(in_s(y - x) for x in chosen):
                walk(chosen + [y], i + 1)

    walk([], 0)
    return found


def universe_problems(workload: str, records: list[dict], max_genus: int = 0,
                      specs=None) -> list[str]:
    """Checks on the set of pairs as a whole, by workload."""
    problems = []
    by_s: dict[int, list[dict]] = {}
    for rec in records:
        by_s.setdefault(rec["s_index"], []).append(rec)
    firsts = {i: recs[0] for i, recs in by_s.items()}
    if workload == "deep-maximal":
        counts: dict[int, int] = {0: 1}  # the natural numbers carry no pair
        for rec in firsts.values():
            members = frozenset(x for x in rec["s_small"] if x < rec["c"])
            g = genus(members, rec["c"])
            counts[g] = counts.get(g, 0) + 1
        want = A007323[:max_genus + 1]
        got = tuple(counts.get(g, 0) for g in range(max(max_genus, *counts) + 1))
        if got != want:
            problems.append(f"semigroups per genus {got}, A007323 gives {want}")
        if len({tuple(r["s_small"]) for r in firsts.values()}) != len(firsts):
            problems.append("a semigroup was enumerated twice")
        for rec in records:
            m = [x for x in rec["s_small"] if 0 < x < rec["c"]]
            if rec["e_members"] != m or rec["e_frontier"] != rec["c"]:
                problems.append(f"S={rec['s_small']}: ideal is not the maximal ideal")
    elif workload == "wide-all":
        if len(by_s) != sum(A007323[:max_genus + 1]) - 1:
            problems.append(f"ideals over {len(by_s)} semigroups, "
                            f"A007323 gives {sum(A007323[:max_genus + 1]) - 1} besides N")
        for recs in by_s.values():
            rec = recs[0]
            c = rec["c"]
            members = frozenset(x for x in rec["s_small"] if x < c)
            multiplicity = min((x for x in members if x > 0), default=max(c, 1))
            got = [ideal_generators(members, c, r["e_members"], r["e_frontier"]) for r in recs]
            want = antichains(members, c, c + 2 * multiplicity)
            if len(set(got)) != len(got) or set(got) != want:
                problems.append(f"S={rec['s_small']}: {len(got)} ideals, "
                                f"{len(want)} antichains of generators")
    elif workload == "large-conductor":
        for i, (gens, ideal_gens) in enumerate(specs):
            rec = firsts[i]
            members, c = closure_of_generators(gens)
            if rec["c"] != c or frozenset(x for x in rec["s_small"] if x < c) != members:
                problems.append(f"<{gens}>: semigroup differs from the closure of its generators")
                continue
            if rec["e_members"] != [x for x in sorted(members) if x > 0] or rec["e_frontier"] != c:
                problems.append(f"<{gens}>: first ideal is not the maximal ideal")
            for r, vals in zip(by_s[i][1:], ideal_gens):
                hi = c + max(vals) + 1
                own = {v + s for v in vals for s in _window(members, c, hi) if v + s < hi}
                if _window(r["e_members"], r["e_frontier"], hi) != own:
                    problems.append(f"<{gens}>: ideal({vals}) differs from the union of v + S")
    return problems


def check_records(workload: str, records: list[dict], max_genus: int = 0,
                  specs=None) -> list[str]:
    problems = universe_problems(workload, records, max_genus, specs)
    seen = set()
    for rec in records:
        if rec["s_index"] not in seen:
            seen.add(rec["s_index"])
            problems += semigroup_record_problems(rec)
        problems += pair_problems(rec)
    return problems
