"""The engine against closed forms, from small windows to tens of thousands of bits.

tests/families.py gives m over <a, b> in closed form.  On small parameters
the closed forms are themselves checked against the plain-set oracles; on
large ones the engine is checked against the closed forms, at conductors
the plain-set oracles cannot reach, and no statement of the catalog fails.
"""

import pytest

from sgblow.blowup import analyze
from sgblow.core import NumericalSemigroup
from sgblow.statements import verify_many

from families import maximal_over_two, two_generator_grid
from oracles import closure_from_generators, colon, minimal_generators_of_ideal, sumset

SMALL = two_generator_grid(5, 16)
LARGE = [(60, 61), (100, 101), (3, 4001), (37, 101)]


def plain_set_forms(a: int, b: int) -> dict:
    """What maximal_over_two claims, from plain sets: powers and a colon."""
    bound = a * b
    s_set = closure_from_generators([a, b], bound)
    c = max(set(range(bound)) - s_set) + 1
    # nu <= a - 1, so the powers up to a*m are exact below hi, the Hilbert
    # differences lie below (n+1)a + c, and the colon's window fits under hi
    hi = a * a + 2 * c + 2
    s_window = closure_from_generators([a, b], hi)
    m_set = s_window - {0}
    powers = [s_window, m_set]
    hilbert = []
    while not hilbert or hilbert[-1] < a:
        hilbert.append(len(powers[-2] - powers[-1]))
        powers.append(sumset(powers[-1], m_set, hi))
    nu = len(hilbert) - 1
    lam = colon(powers[nu], powers[nu], 0, c + 1, nu * a + c)
    c_lambda = max(set(range(c + 1)) - lam, default=-1) + 1
    # a minimal generator of Lambda is below c_lambda + a; the window is exact
    lam_nonzero = (lam | set(range(c + 1, 2 * c + a + 2))) - {0}
    return {
        "conductor": c,
        "genus": c - len([x for x in s_set if x < c]),
        "small_elements": tuple(sorted(x for x in s_set if x < c)) + (c,),
        "hilbert": tuple(hilbert),
        "nu": nu,
        "rho": sum(a - h for h in hilbert),
        "lambda_generators": tuple(sorted(minimal_generators_of_ideal(lam_nonzero, lam_nonzero))),
        "lambda_members": tuple(sorted(x for x in lam if x < c_lambda)),
        "lambda_conductor": c_lambda,
        "lambda_genus": c_lambda - len([x for x in lam if x < c_lambda]),
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
