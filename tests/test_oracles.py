"""The plain-set oracles stand apart from the library: tests/oracles.py and
tests/families.py import, and each of their public helpers runs on <3,5,7>
(on <3,5> for the two-generator family), in a fresh interpreter where any
import of sgblow fails."""

import subprocess
import sys
from pathlib import Path

SCRIPT = """
import sys
sys.modules["sgblow"] = None  # from here on, importing sgblow raises ImportError
import families, oracles as o

s = o.closure_from_generators((3, 5, 7))
(small, c), m = s, o.maximal_ideal(s)
k, e = o.canonical_ideal(small, c), o.ideal(small, c, (3, 5))
calls = {
    "cofinite": (o.cofinite((0, 3, 5, 6), 7), ((0, 3), 5)),
    "least": (o.least(e), 3),
    "member": (o.member(4, s), False),
    "sumset": (o.sumset(m, m), ((6,), 8)),
    "colon": (o.colon(s, m), ((0,), 2)),
    "intersect": (o.intersect(k, m), ((3,), 5)),
    "contains": (o.contains(s, m), True),
    "length": (o.length(s, m), 1),
    "closure_from_generators": (s, ((0, 3), 5)),
    "maximal_ideal": (m, ((3,), 5)),
    "ideal": (e, ((3, 5, 6), 8)),
    "canonical_ideal": (k, ((0, 2, 3), 5)),
    "minimal_generators": (o.minimal_generators(m, s), (3, 5, 7)),
    "powers": (o.powers(s, m), [s, m, ((6,), 8)]),
    "iterated_blowup": (o.iterated_blowup(small, c, (3, 5, 7)), (((0,), 2), 1)),
    "is_semigroup_gap_set": (o.is_semigroup_gap_set(frozenset({1, 2, 4})), True),
    "count_semigroups_of_genus": (o.count_semigroups_of_genus(3), 4),
    "all_nonprincipal_ideals": (frozenset({3, 5}) in o.all_nonprincipal_ideals(small, c, 8), True),
    "antichains_in_order": (o.antichains_in_order(small, c, 7, 2)[:2], [(3, 5), (3, 5, 7)]),
    "blowup_record": (o.blowup_record(small, c, (0,), 2)["delta_lambda"], 1),
    "translation_class": (o.translation_class(small, c, *m)["nu"], 1),
    "two_generator_members": (families.two_generator_members(3, 5, 10), (0, 3, 5, 6, 8, 9)),
    "maximal_over_two": (families.maximal_over_two(3, 5)["nu"], 2),
    "two_generator_grid": (families.two_generator_grid(3, 5), [(2, 3), (2, 5), (3, 4), (3, 5)]),
}
public = {name for module in (o, families) for name, f in vars(module).items()
          if callable(f) and not name.startswith("_")
          and getattr(f, "__module__", None) == module.__name__}
assert set(calls) == public, set(calls) ^ public
wrong = {name: got for name, (got, want) in calls.items() if got != want}
assert not wrong, wrong
assert "sgblow" not in {name.partition(".")[0] for name, mod in sys.modules.items() if mod}
"""


def test_the_oracles_import_and_run_without_sgblow():
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=Path(__file__).parent,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
