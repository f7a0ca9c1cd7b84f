"""Closed forms for families of (semigroup, ideal) pairs.

The plain-set oracles in oracles.py are exact at any conductor, but a sum
or a colon there costs O(c^2), and their forms for m over <a, b> take a - 1
sums: about 4 s for <37, 101>, c = 3600, on one core of a 2-core Xeon VM.
A closed form costs O(1), or O(c) to list a set, at any size, so the
engine can be checked against these at windows of thousands of bits.
Nothing here imports sgblow.

Family: the maximal ideal m over S = <a, b>, for 1 < a < b, gcd(a, b) = 1.

- c = (a-1)(b-1) (Sylvester), and S is symmetric, so its genus is c/2.
- The Hilbert function of m is H = (1, 2, ..., a): nm has the minimal
  generators ia + (n-i)b for i = 0..n, so l(nm/(n+1)m) = n + 1 until it
  reaches the multiplicity a.  Hence nu = a - 1 and
  rho = sum (a - H(n)) = a(a-1)/2.
- The blow-up Lambda is generated by S and m - a, that is by a, b and b - a:
  Lambda = <a, b - a>, with conductor (a-1)(b-a-1) and half that genus.

Rosales & Garcia-Sanchez, *Numerical Semigroups*, Springer 2009, ch. 2.
"""

from __future__ import annotations

from math import gcd


def two_generator_members(a: int, d: int, hi: int) -> tuple[int, ...]:
    """The members of <a, d> below hi, ascending (a > 1, gcd(a, d) = 1).

    The least member of <a, d> in each class mod a is jd for j = 0..a-1, so x
    is a member exactly when jd <= x for the j with jd = x mod a.
    """
    inverse = pow(d, -1, a)
    return tuple(x for x in range(hi) if (x * inverse % a) * d <= x)


def maximal_over_two(a: int, b: int) -> dict:
    """The closed forms for m over <a, b>."""
    if not (1 < a < b and gcd(a, b) == 1):
        raise ValueError(f"<{a},{b}> is not in the family")
    c, d = (a - 1) * (b - 1), b - a
    c_lambda = (a - 1) * (d - 1)
    return {
        "conductor": c,
        "genus": c // 2,
        "small_elements": two_generator_members(a, b, c) + (c,),
        "hilbert": tuple(range(1, a + 1)),
        "nu": a - 1,
        "rho": a * (a - 1) // 2,
        "lambda_generators": (1,) if d == 1 else tuple(sorted((a, d))),
        "lambda_members": two_generator_members(a, d, c_lambda),
        "lambda_conductor": c_lambda,
        "lambda_genus": c_lambda // 2,
    }


def two_generator_grid(max_a: int, max_b: int) -> list[tuple[int, int]]:
    """Every (a, b) of the family with a <= max_a and b <= max_b."""
    return [(a, b) for a in range(2, max_a + 1) for b in range(a + 1, max_b + 1)
            if gcd(a, b) == 1]
