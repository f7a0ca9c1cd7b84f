"""The engine against closed forms, from small windows to tens of thousands of bits.

tests/families.py gives m over <a, b> in closed form.  On small parameters
the closed forms are themselves checked against the plain-set oracles; on
large ones, at conductors of 3,540 to 9,900, the engine is checked against
the closed forms, and no statement of the catalog fails.
"""

import pytest

from sgblow.blowup import analyze
from sgblow.core import NumericalSemigroup
from sgblow.statements import verify_many

from families import maximal_over_two, two_generator_grid
from oracles import (closure_from_generators, colon, length, maximal_ideal, minimal_generators,
                     powers)

SMALL = two_generator_grid(5, 16)
LARGE = [(60, 61), (100, 101), (3, 4001), (37, 101)]


def plain_set_forms(a: int, b: int) -> dict:
    """What maximal_over_two claims, from exact plain sets: powers and a colon."""
    s = closure_from_generators([a, b])
    chain = powers(s, maximal_ideal(s))
    hilbert = tuple(map(length, chain, chain[1:]))
    nu = len(hilbert) - 1
    lam = colon(chain[nu], chain[nu])
    (members, c), (lam_members, c_lambda) = s, lam
    return {
        "conductor": c,
        "genus": c - len(members),
        "small_elements": members + (c,),
        "hilbert": hilbert,
        "nu": nu,
        "rho": sum(a - h for h in hilbert),
        "lambda_generators": minimal_generators(maximal_ideal(lam), lam),
        "lambda_members": lam_members,
        "lambda_conductor": c_lambda,
        "lambda_genus": c_lambda - len(lam_members),
    }


def engine_forms(a: int, b: int) -> dict:
    s = NumericalSemigroup.from_generators([a, b])
    an = analyze(s.maximal_ideal())
    lam = NumericalSemigroup.from_explicit(an.lam.members, an.lam.frontier)
    return {
        "conductor": s.conductor,
        "genus": s.genus,
        "small_elements": s.small_elements,
        "hilbert": an.hilbert,
        "nu": an.nu,
        "rho": an.rho,
        "lambda_generators": lam.min_generators,
        "lambda_members": an.lam.members,
        "lambda_conductor": an.c_lambda,
        "lambda_genus": an.delta_lambda,
    }


def test_the_grid_is_the_family():
    assert len(SMALL) == 31
    assert (2, 3) in SMALL and (5, 16) in SMALL and (4, 6) not in SMALL
    with pytest.raises(ValueError):
        maximal_over_two(4, 6)


@pytest.mark.parametrize("a,b", SMALL)
def test_closed_forms_are_the_plain_set_values(a, b):
    assert maximal_over_two(a, b) == plain_set_forms(a, b)


@pytest.mark.parametrize("a,b", SMALL + LARGE)
def test_engine_matches_the_closed_forms(a, b):
    assert engine_forms(a, b) == maximal_over_two(a, b)


@pytest.mark.parametrize("a,b", LARGE)
def test_no_statement_fails_on_a_large_pair(a, b):
    m = NumericalSemigroup.from_generators([a, b]).maximal_ideal()
    assert [v.statement_id for v in verify_many(m) if v.status == "failed"] == []
