"""Every blow-up record member, and every translation-class fact, against
its plain-set definition.

The library builds each (S, Lambda) record with bitmask windows and checks
its members against each other; tests/oracles.py rebuilds them from their
definitions on exact cofinite sets, with no code shared with the library.
The two must agree on every record met over every ideal of genus <= 5 and
over seeded ideals of two semigroups with large conductors.  So must the
facts the class-level statements read off the record of E's translation
class (E reflexive, K + E = E**, E:E containing S:M, nu and nuE
reflexive), on every class of genus <= 5 and on every pair, and so must
E** as the library's bidual takes it.
"""

import pytest

from sgblow.blowup import Analysis
from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.enumeration import enumerate_ideals, enumerate_semigroups
from sgblow.invariants import bidual, ring

from oracles import blowup_record, translation_class
from test_blowup_records import _key, _seeded_ideals


def _plain(value):
    """A record value as the oracle gives it: a set as (members, frontier)."""
    if isinstance(value, ValueIdeal):
        return value.members, value.frontier
    return value


def _check_records(ideals):
    """Compare each distinct record the ideals meet; return how many."""
    ring.cache_clear()
    checked = set()
    for e in ideals:
        a = Analysis(e)
        key = a.s, a.lam
        if key in checked:
            continue
        checked.add(key)
        fields, conditions = a.ring.blowups[_key(a)]
        built = {name: _plain(v) for name, v in fields.items() if name != "lambda_verdicts"}
        built.update(conditions)
        expected = blowup_record(a.s.small_elements, a.s.conductor, a.lam.members,
                                 a.lam.frontier)
        assert built.keys() == expected.keys()
        differs = next((name for name in expected if built[name] != expected[name]), None)
        assert differs is None, (
            f"{differs} of {a.lam!r} over {a.s!r}: {built[differs]!r} != {expected[differs]!r}")
    return len(checked)


def test_every_record_over_genus_5_is_its_definition():
    ideals = [e for s in enumerate_semigroups(5) for e in enumerate_ideals(s)]
    assert len(ideals) == 1833
    assert _check_records(ideals) == 148


@pytest.mark.parametrize("gens,seed", [((13, 20, 22), 1), ((17, 26), 2)])
def test_records_at_large_windows_are_their_definition(gens, seed):
    s = NumericalSemigroup.from_generators(gens)
    # m and the two seeded ideals each blow up to a Lambda of their own
    assert _check_records(_seeded_ideals(s, seed)) == 3


def _check_classes(ideals):
    """Compare the record of each translation class the ideals meet, and what
    each pair reads of it, with tests/oracles.py; return how many classes."""
    ring.cache_clear()
    classes = set()
    for e in ideals:
        a = Analysis(e)
        rg = a.ring
        key = e.bits, e.frontier - e.min_element
        tr = rg.translates[key]
        # the class's facts read on the pair, and E** as the library takes it
        on_pair = {"bidual": _plain(bidual(e)), "reflexive": a.ideal_reflexive,
                   "omega_is_bidual": a.ideal_omega_is_bidual,
                   "colon_contains_dual_m": a.ideal_colon.contains(rg.dual_m),
                   "nu": a.nu, "power_nu_reflexive": a.power_nu_reflexive}
        expected = translation_class(a.s.small_elements, a.s.conductor, e.members, e.frontier)
        assert on_pair == expected, e
        if (a.s, key) in classes:
            continue
        classes.add((a.s, key))
        # the record itself, on the class's first pair; nuE's reflexivity
        # is no part of it, and is checked on every pair above
        base = tr.powers[1]
        record = {"bidual": _plain(bidual(base)), "reflexive": tr.fixed["ideal_reflexive"],
                  "omega_is_bidual": tr.fixed["ideal_omega_is_bidual"],
                  "colon_contains_dual_m": tr.fixed["ideal_colon"].contains(rg.dual_m),
                  "nu": tr.fixed["nu"]}
        expected = translation_class(a.s.small_elements, a.s.conductor, base.members,
                                     base.frontier)
        del expected["power_nu_reflexive"]
        assert record == expected, base
    return len(classes)


def test_every_translation_class_over_genus_5_is_its_definition():
    ideals = [e for s in enumerate_semigroups(5) for e in enumerate_ideals(s)]
    assert _check_classes(ideals) == 274
