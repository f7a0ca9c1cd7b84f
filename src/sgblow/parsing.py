"""Text grammar for semigroups, ideals and cofinite sets.

Semigroups:  <7,8,12,13,18>            generators, closed up
             {0,5,10-12,19->}          explicit members, ranges, tail arrow
Ideals:      m        maximal ideal
             m^3      a power of it
             ideal(10,12)              generated by the listed values

parse/format round-trip exactly on canonical text.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .blowup import power
from .core import NumericalSemigroup, ValueIdeal, _mask
from .errors import GrammarError

# a run of members in a mask's binary digits, read from bit 0 up
_RUN = re.compile("1+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise GrammarError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def integer(self, allow_negative: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if allow_negative and self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise GrammarError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past sys.get_int_max_str_digits()
            raise GrammarError("integer has too many digits", start) from None

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def require_end(self) -> None:
        if not self.at_end():
            raise GrammarError("unexpected trailing input", self.pos)


def parse_cofinite_set(text: str) -> tuple[tuple[int, ...], int]:
    """Parse a braces form into (members, tail start); no closure validation.

    The last item must be the arrow item 'n->'.  Ranges 'a-b' are inclusive.
    """
    sc = _Scanner(text)
    sc.expect("{")
    members: list[int] = []
    arrow: int | None = None
    while True:
        value = sc.integer()
        sc.skip_ws()
        if sc.pos < len(sc.text) and sc.text[sc.pos] == "-":
            if sc.text[sc.pos:sc.pos + 2] == "->":
                sc.pos += 2
                arrow = value
                break
            sc.pos += 1
            upper = sc.integer()
            if upper < value:
                raise GrammarError(f"empty range {value}-{upper}", sc.pos)
            members.extend(range(value, upper + 1))
        else:
            members.append(value)
        if sc.peek() == ",":
            sc.expect(",")
            continue
        raise GrammarError("expected ',' or '->'", sc.pos)
    sc.expect("}")
    sc.require_end()
    return tuple(sorted(set(members))), arrow


def parse_semigroup(text: str) -> NumericalSemigroup:
    sc = _Scanner(text)
    head = sc.peek()
    if head == "<":
        sc.expect("<")
        gens = [sc.integer()]
        while sc.peek() == ",":
            sc.expect(",")
            gens.append(sc.integer())
        sc.expect(">")
        sc.require_end()
        return NumericalSemigroup.from_generators(gens)
    if head == "{":
        members, arrow = parse_cofinite_set(text)
        return NumericalSemigroup.from_explicit(members, arrow)
    raise GrammarError("expected '<' or '{'", sc.pos)


def parse_ideal(text: str, carrier: NumericalSemigroup) -> ValueIdeal:
    sc = _Scanner(text)
    head = sc.peek()
    if head == "m":
        sc.pos += 1
        if sc.peek() == "^":
            sc.expect("^")
            sc.skip_ws()
            start = sc.pos
            k = sc.integer()
            sc.require_end()
            if k < 1:
                raise GrammarError("power must be at least 1", start)
            return power(carrier.maximal_ideal(), k)
        sc.require_end()
        return carrier.maximal_ideal()
    if head == "i":
        sc.skip_ws()
        if not sc.text.startswith("ideal", sc.pos):
            raise GrammarError("expected 'ideal(...)'", sc.pos)
        sc.pos += len("ideal")
        sc.expect("(")
        vals = [sc.integer(allow_negative=True)]
        while sc.peek() == ",":
            sc.expect(",")
            vals.append(sc.integer(allow_negative=True))
        sc.expect(")")
        sc.require_end()
        return ValueIdeal.generated_by(carrier, vals)
    raise GrammarError("expected 'm', 'm^k' or 'ideal(...)'", sc.pos)


def _cofinite_text(bits: int, base: int, tail_from: int) -> str:
    """Braces form of the members base + i (i a set bit of a non-negative
    mask) followed by 'tail_from->'; each run of 3 or more consecutive
    members is one 'a-b' item."""
    items: list[str] = []
    # bin() reversed and cut before its "0b" prefix lists bit 0 first
    for run in _RUN.finditer(bin(bits)[:1:-1]):
        lo, hi = run.span()
        lo += base
        hi += base - 1
        if hi - lo >= 2:
            items.append(f"{lo}-{hi}")
        elif hi > lo:
            items += (str(lo), str(hi))
        else:
            items.append(str(lo))
    items.append(f"{tail_from}->")
    return "{" + ",".join(items) + "}"


def format_semigroup(s: NumericalSemigroup) -> str:
    """Canonical braces form: members below the conductor, then 'c->'."""
    return _cofinite_text(s.bits, 0, s.conductor)


def format_generators(s: NumericalSemigroup) -> str:
    return "<" + ",".join(map(str, s.min_generators)) + ">"


def format_cofinite_set(members: Sequence[int], tail_from: int) -> str:
    """Braces form of a set of distinct integers below tail_from, then 'tail_from->'."""
    base = min(members, default=0)
    return _cofinite_text(_mask(members, base), base, tail_from)


def format_ideal(e: ValueIdeal) -> str:
    """Canonical generator form; the maximal ideal prints as such."""
    s = e.carrier
    m = s.multiplicity
    # the canonical fields of M = S minus 0, read off S without building M
    if e.min_element == m and e.frontier == max(s.conductor, 1) and e.bits == s.bits >> m:
        return "m"
    return "ideal(" + ",".join(map(str, e.minimal_generators())) + ")"
