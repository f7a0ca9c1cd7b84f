"""Grammar round-trips and error positions."""

import random
import sys

import pytest

from sgblow.core import NumericalSemigroup
from sgblow.enumeration import enumerate_semigroups
from sgblow.errors import GrammarError, NotClosed, NotCofinite
from sgblow.parsing import (
    format_cofinite_set,
    format_generators,
    format_ideal,
    format_semigroup,
    parse_cofinite_set,
    parse_ideal,
    parse_semigroup,
)


def test_generator_form():
    s = parse_semigroup("<10,23,55,58,82>")
    assert s.min_generators == (10, 23, 55, 58, 82)
    assert s == NumericalSemigroup.from_generators([10, 23, 55, 58, 82])


def test_braces_form_with_ranges():
    s = parse_semigroup("{0,5,10,11,12,15,16,17,19->}")
    assert s.small_elements == (0, 5, 10, 11, 12, 15, 16, 17, 19)
    t = parse_semigroup("{0,5,10-12,15-17,19->}")
    assert s == t


def test_whitespace_tolerated():
    assert parse_semigroup(" < 3 , 4 > ") == parse_semigroup("<3,4>")
    assert parse_semigroup("{ 0, 3, 4, 6 -> }") == parse_semigroup("<3,4>")


def test_run_collapse_spellings_denote_same_set():
    a = parse_cofinite_set("{0,5,6,7,10->}")
    b = parse_cofinite_set("{0,5-7,10->}")
    assert a == b == ((0, 5, 6, 7), 10)


def test_semigroup_round_trip():
    for text in ["<3,4>", "<10,23,55,58,82>",
                 "{0,10,12,20->}",
                 "{0,8,10,13,15,16,18,20,21,23-26,28->}"]:
        s = parse_semigroup(text)
        assert parse_semigroup(format_semigroup(s)) == s
        assert parse_semigroup(format_generators(s)) == s


def test_natural_numbers_round_trip():
    n = NumericalSemigroup.natural_numbers()
    assert format_semigroup(n) == "{0->}"
    assert parse_semigroup("{0->}") == n
    assert format_generators(n) == "<1>"
    assert parse_semigroup("<1>") == n


def test_parse_ideal_forms():
    s = parse_semigroup("<5,21,32,48>")
    m = parse_ideal("m", s)
    assert m == s.maximal_ideal()
    m2 = parse_ideal("m^2", s)
    assert m2 == m + m
    m3 = parse_ideal("m^3", s)
    assert m3 == m2 + m
    e = parse_ideal("ideal(31,32,40)", s)
    assert e.minimal_generators() == (31, 32, 40)


def test_format_ideal_round_trip():
    s = parse_semigroup("<5,21,32,48>")
    for text in ["m", "ideal(31,32,40)", "m^2"]:
        e = parse_ideal(text, s)
        assert parse_ideal(format_ideal(e), s) == e
    assert format_ideal(parse_ideal("m", s)) == "m"


def test_grammar_error_positions():
    with pytest.raises(GrammarError) as err:
        parse_semigroup("<3,4")
    assert err.value.position == 4
    with pytest.raises(GrammarError):
        parse_semigroup("[3,4]")
    with pytest.raises(GrammarError):
        parse_semigroup("{0,3,4,6->")
    with pytest.raises(GrammarError):
        parse_semigroup("{0,3,,6->}")
    with pytest.raises(GrammarError):
        parse_semigroup("<3,4> trailing")
    s = parse_semigroup("<3,4>")
    with pytest.raises(GrammarError):
        parse_ideal("n", s)
    for text, position in (("m^0", 2), ("m ^ 0", 4), (" m^0", 3)):
        with pytest.raises(GrammarError) as err:
            parse_ideal(text, s)
        assert err.value.position == position
    with pytest.raises(GrammarError):
        parse_ideal("ideal()", s)
    with pytest.raises(GrammarError):
        parse_ideal("ideal(3", s)
    for parse, text, message in (
            (parse_semigroup, "{0,3 4->}", "expected ',' or '->' (at position 5)"),
            (lambda t: parse_ideal(t, s), "i(3)", "expected 'ideal(...)' (at position 0)")):
        with pytest.raises(GrammarError) as err:
            parse(text)
        assert str(err.value) == message


def test_oversized_digit_runs_are_grammar_errors():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    s = parse_semigroup("<3,4>")
    for parse, text, position in (
            (parse_semigroup, f"<{digits},2>", 1),
            (parse_semigroup, f"{{0,{digits}->}}", 3),
            (lambda t: parse_ideal(t, s), f"ideal(-{digits})", 6)):
        with pytest.raises(GrammarError, match="too many digits") as err:
            parse(text)
        assert err.value.position == position
    with pytest.raises(GrammarError, match="expected an integer"):
        parse_semigroup("<\u00b2,3>")  # a digit that is not decimal


def test_reversed_range_rejected():
    with pytest.raises(GrammarError):
        parse_semigroup("{0,7-5,9->}")


def test_domain_errors_pass_through():
    with pytest.raises(NotCofinite):
        parse_semigroup("<4,6>")
    with pytest.raises(NotClosed):
        parse_semigroup("{0,3,7->}")


def test_format_cofinite_set_runs():
    assert format_cofinite_set((0, 5, 6, 7), 10) == "{0,5-7,10->}"
    assert format_cofinite_set((0, 5, 6), 10) == "{0,5,6,10->}"
    assert format_cofinite_set((), 28) == "{28->}"
    assert format_cofinite_set((0, 2, 4, 6), 8) == "{0,2,4,6,8->}"


def _items_by_walk(values):
    """The item list of a sorted member list, by a walk over the values."""
    items = []
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[j] + 1:
            j += 1
        if j - i >= 2:
            items.append(f"{values[i]}-{values[j]}")
        else:
            items.extend(str(v) for v in values[i:j + 1])
        i = j + 1
    return items


def test_cofinite_text_matches_a_walk_over_the_members():
    rng = random.Random(20061)
    lengths = set()
    for _ in range(400):
        base = rng.randrange(-30, 30)
        # runs of 1, 2 and 3 or more members, with gaps of 1 to 3 between
        members, x = [], base
        for _ in range(rng.randrange(0, 12)):
            run = rng.choice((1, 1, 2, 3, rng.randrange(4, 20)))
            members.extend(range(x, x + run))
            lengths.add(min(run, 3))
            x += run + rng.randrange(1, 4)
        tail = x + rng.randrange(0, 3)
        expected = "{" + ",".join(_items_by_walk(members) + [f"{tail}->"]) + "}"
        assert format_cofinite_set(tuple(members), tail) == expected
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert format_cofinite_set(shuffled, tail) == expected
    assert lengths == {1, 2, 3}
    assert format_cofinite_set((), 0) == "{0->}"
    assert format_cofinite_set((), -4) == "{-4->}"


def test_format_semigroup_matches_a_walk_over_the_small_elements():
    gens = [(13, 20, 22), (17, 26), (3, 6002), (7, 8, 9, 10, 11, 12, 13)]
    semigroups = list(enumerate_semigroups(7)) + [
        NumericalSemigroup.from_generators(g) for g in gens]
    for s in semigroups:
        items = _items_by_walk(s.small_elements[:-1]) + [f"{s.conductor}->"]
        assert format_semigroup(s) == "{" + ",".join(items) + "}"
