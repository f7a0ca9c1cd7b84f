"""The fixed ideals over S are built in closed canonical form, without
ValueIdeal._of, and every ideal a verify pass holds is canonical.

S, M, N, c + N, K and R_i0 = S from min R:Lambda on are read straight off
S's mask; closed_form_mismatches compares each with _of of the same
window, field by field.  A canonical window has bit 0 set (or is empty,
with min = frontier), bit frontier - min - 1 clear and no bit past the
window; canonical() tests that on every ideal one verify pass keeps on its
pairs, its class and Lambda records and its rings, which also covers the
ideals that shift and the ideal walk build without _of.
"""

from sgblow.blowup import Analysis
from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.invariants import Ring, ring
from sgblow.statements import verify_many

# the large windows of the CI smoke runs and of the large-conductor workload
LARGE = ([3, 6002], [17, 26], [300, 301])


def _fields(e: ValueIdeal) -> tuple[int, int, int]:
    return e.min_element, e.bits, e.frontier


def closed_form_mismatches(s: NumericalSemigroup, filters: int | None = None) -> list[str]:
    """The closed forms over s that differ from _of of their window.

    R_i0 is checked for filters values of S up to c, spread evenly (every
    value when None), each built as _blowup_record builds it.
    """
    c = s.conductor
    gaps = [x for x in range(c) if x not in s]
    k_window = sum(1 << (c - 1 - x) for x in gaps)
    m = s.maximal_ideal()
    builds = {
        "S": (s.as_ideal(), (0, s.bits, c)),
        # S minus 0 from 0, the window M had before its closed form
        "M": (m, (0, s.bits & ~1, max(c, 1))),
        "N": (s.normalization(), (0, 0, 0)),
        "c + N": (s.conductor_ideal(), (c, 0, c)),
        "K": (Ring(s).k, (0, k_window, c)),
    }
    los = s.small_elements
    if filters is not None and len(los) > filters:
        los = los[::len(los) // filters] + (c,)
    for lo in los:
        builds[f"R from {lo}"] = (ValueIdeal._closed(s, lo, s.bits >> lo, c), (lo, s.bits >> lo, c))
    bad = [name for name, (built, window) in builds.items()
           if _fields(built) != _fields(ValueIdeal._of(s, *window))]
    if m._mingens != s.min_generators:
        bad.append("M's generators")
    return bad


def canonical(e: ValueIdeal) -> bool:
    width = e.frontier - e.min_element
    if width == 0:
        return e.bits == 0
    return width > 0 and e.bits & 1 == 1 and not e.bits >> (width - 1)


def test_the_canonical_test_rejects_each_defect():
    s = NumericalSemigroup.from_generators([3, 5])
    c = s.conductor
    assert canonical(s.as_ideal()) and canonical(s.normalization())
    for window in [(-1, s.bits << 1, c),       # bit 0 clear
                   (0, s.bits | 1 << c, c + 1),  # a member just below the frontier
                   (0, s.bits | 1 << c, c),      # a bit past the window
                   (1, 0, 3),                    # an empty window below the frontier
                   (2, 1, 1)]:                   # a frontier below the least member
        assert not canonical(ValueIdeal._closed(s, *window)), window


def test_closed_forms_equal_their_of_builds():
    shapes = list(enumerate_semigroups(10))
    assert len(shapes) == 478
    # {0, m->}, N among them (m = 1)
    shapes += [NumericalSemigroup.from_explicit([0], m) for m in (1, 2, 12, 40)]
    for s in shapes:
        assert closed_form_mismatches(s) == [], s
    for gens in LARGE:
        s = NumericalSemigroup.from_generators(gens)
        assert closed_form_mismatches(s, filters=50) == [], s


def test_every_closed_build_of_a_verify_pass_is_its_of_build(monkeypatch):
    # every _closed call of the pass (S, N, K, R_i0) against _of of its window
    honest, checked = ValueIdeal._closed.__func__, []

    def closed(cls, carrier, *window):
        built = honest(cls, carrier, *window)
        assert _fields(built) == _fields(ValueIdeal._of(carrier, *window)), (carrier, window)
        checked.append(window)
        return built
    monkeypatch.setattr(ValueIdeal, "_closed", classmethod(closed))
    ring.cache_clear()
    for s in enumerate_semigroups(7):
        for e in [s.maximal_ideal(), *enumerate_ideals(s)] if s.genus else ():
            Analysis(e)
    ring.cache_clear()
    # R_i0 with s_i0 > 0 among them
    assert len(checked) > 1000 and any(lo > 0 for lo, _, _ in checked)


def _ideals_in(obj, seen: set[int]):
    """Every ValueIdeal reachable from obj through containers and instance
    dicts, each object walked once."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, ValueIdeal):
        yield obj
    elif isinstance(obj, (list, tuple, set, frozenset, dict)):
        for item in [*obj, *obj.values()] if isinstance(obj, dict) else obj:
            yield from _ideals_in(item, seen)
    elif hasattr(obj, "__dict__") and not callable(obj):
        yield from _ideals_in(vars(obj), seen)


def test_every_ideal_a_verify_pass_holds_is_canonical():
    ring.cache_clear()
    pairs = [e for s in enumerate_semigroups(5) for e in enumerate_ideals(s)]
    pairs += [s.maximal_ideal() for s in enumerate_semigroups(10) if not s.is_natural_numbers]
    analyses = []
    for e in pairs:
        a = Analysis(e)
        verify_many(a)
        analyses.append(a)
    seen: set[int] = set()
    ideals = [x for a in analyses for x in _ideals_in(a, seen)]
    ring.cache_clear()
    # the pairs, their rings (K, M, N, c + N, M + K, M**, ...) and records
    assert len(ideals) > 5 * len(pairs)
    assert {"k", "m_ideal", "normalization", "conductor_ideal"} <= set(vars(analyses[-1].ring))
    bad = [x for x in ideals if not canonical(x)]
    assert not bad, bad[:5]
