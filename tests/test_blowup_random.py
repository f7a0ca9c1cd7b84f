"""The blow-up of seeded random ideals against the closure oracle.

Lambda is the semigroup generated by S and E - e, e = min E.  Each case
draws S from random_semigroup and an ideal E inside M given by e, one to
three more members of S below e + c, and a g with g - e >= c, which lies
in e + S and so adds nothing: E has 2 to 4 minimal generators, or is
principal and skipped.  Lambda must equal the oracle's closure of S's
generators and the shifted generators, and the closure of S's mask under
every shifted generator on [0, c) must hold its members below c.
"""

import random

import pytest

from sgblow.blowup import analyze
from sgblow.core import NumericalSemigroup, ValueIdeal, _closure

from oracles import closure_from_generators, member
from test_core_random import random_semigroup

CASES = 60


def make_cases():
    rng = random.Random(2024)
    cases = []
    while len(cases) < CASES:
        sgens, small, c = random_semigroup(rng)
        e = rng.choice(small[1:])
        between = [x for x in range(e + 1, e + c) if x >= c or x in small]
        gens = [e, *rng.sample(between, rng.randint(1, min(3, len(between)))),
                e + c + rng.randrange(e + 1)]
        cases.append((sgens, c, gens))
    return cases


CASE_LIST = make_cases()


@pytest.mark.parametrize("case", range(0, CASES, 10), ids=lambda i: f"block{i}")
def test_blowup_is_the_closure_of_s_and_the_shifted_generators(case):
    proper = 0
    for sgens, c, gens in CASE_LIST[case:case + 10]:
        s = NumericalSemigroup.from_generators(sgens)
        e = gens[0]
        shifted = [g - e for g in gens[1:]]
        assert max(shifted) >= c
        expected = closure_from_generators(sgens + shifted)
        generated = _closure(s.bits, c, shifted)
        assert [x for x in range(c) if generated >> x & 1] == [
            x for x in range(c) if member(x, expected)]
        ideal = ValueIdeal.generated_by(s, gens)
        if ideal.is_principal():
            continue
        lam = analyze(ideal).lam
        assert (lam.members, lam.frontier) == expected
        proper += 1
    assert proper
