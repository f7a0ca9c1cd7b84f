"""Machine-readable documents for analyses and verdicts.

Documents are plain dicts holding only JSON-native values: integers,
booleans, strings, lists, dicts, None.  Infinite sets appear as a sorted
list of the members below a threshold plus an explicit `cofinite_from`
field.  Serialization is canonical (sorted keys, fixed indentation, no
timestamps) so equal documents produce byte-identical text.

`dumps_document` writes that text with a writer shaped for the document
values: exact-type dispatch, strings through the C routine `json` itself
uses, and each all-integer or all-boolean list in a single join.  A dict is
written from a layout cached per key tuple and indent: its sorted key order
(or none, when the keys were inserted sorted) and a %-template holding the
encoded keys, separators and indents, filled once with the texts of its
values, of which only containers recurse.  Layouts are keyed by shape
alone, never by values, so one analyze document already reuses the layout
of its 50 verdict records.
A value outside the document domain, and any dict with a key that is not a
str, is handed to `json.dumps` itself and its text re-indented in place, so
the output (or the exception) is that of
`json.dumps(doc, sort_keys=True, indent=2) + "\n"`, the byte reference the
tests hold it to.  Only a cycle through plain lists or dicts differs: it
raises RecursionError where json raises ValueError.

`verdict_document` builds each verdict record with its keys already in
sorted order, so the writer takes its values as inserted, and keeps its
None, bool, int and str values unconverted: only tuples, dicts and any
other value go through `jsonable`.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _string

from .blowup import Analysis
from .core import ValueIdeal
from .statements import TheoremVerdict


def set_document(e: ValueIdeal) -> dict:
    return {
        "elements": list(e.members),
        "cofinite_from": e.frontier,
    }


def jsonable(value):
    """Rewrite a value tree into JSON-native types only."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, ValueIdeal):
        return set_document(value)
    raise TypeError(f"cannot place {type(value).__name__} in a document")


# values a document holds as they are; jsonable converts only the rest
_NATIVE = frozenset({type(None), bool, int, str})


def verdict_document(v: TheoremVerdict) -> dict:
    sid, met, holds, status, lhs, rhs, witness, notes = v
    return {
        "holds": holds,
        "hypotheses_met": met,
        "lhs": lhs if type(lhs) in _NATIVE else jsonable(lhs),
        "notes": notes,
        "rhs": rhs if type(rhs) in _NATIVE else jsonable(rhs),
        "statement_id": sid,
        "status": status,
        "witness": witness if type(witness) in _NATIVE else jsonable(witness),
    }


def analysis_document(a: Analysis,
                      verdicts: list[TheoremVerdict] | None = None,
                      *,
                      semigroup_text: str = "",
                      ideal_text: str = "") -> dict:
    s = a.s
    rc = a.ring.ring_class
    doc = {
        "input": {"semigroup": semigroup_text, "ideal": ideal_text},
        "semigroup": {
            "small_elements": list(s.small_elements),
            "c": s.conductor,
            "delta": s.genus,
            "generators": list(s.min_generators),
            "type_sequence": list(a.ring.ts.entries),
            "class": {
                "label": rc.label,
                "gorenstein": rc.gorenstein,
                "almost_gorenstein": rc.almost_gorenstein,
                "kunz": rc.kunz,
                "cm_type": rc.cm_type,
            },
        },
        "ideal": {
            "generators": list(a.ideal.minimal_generators()),
            **set_document(a.ideal),
        },
        "hilbert": {
            "H": list(a.hilbert),
            "h": list(a.h.coefficients),
            "e": a.e,
            "nu": a.nu,
            "rho": a.rho,
        },
        "blowup": {
            "lambda_small_elements": list(a.lam.members),
            "c_lambda": a.c_lambda,
            "delta_lambda": a.delta_lambda,
            "r_colon_lambda": set_document(a.r_colon_lambda),
            "gamma_set": list(a.gamma_set),
            "d": a.d,
        },
        "verdicts": [verdict_document(v) for v in (verdicts or [])],
    }
    return doc


def dumps_document(doc: dict) -> str:
    """Canonical text of `doc`: sorted keys, two-space indent, final newline."""
    return _encode(doc, "\n") + "\n"


@lru_cache(maxsize=256)
def _layout(keys: tuple, nl: str) -> tuple[tuple | None, str]:
    """How a dict with these keys, in this insertion order, is written at nl.

    Returns the sorted keys (None when the insertion order is sorted
    already) and a %-template of the dict's text with one %s per value in
    that order: each key's JSON string ("%" escaped as "%%"), the
    separators and the indents.  A key that is not a str raises TypeError.
    """
    order = tuple(sorted(keys))
    inner = nl + "  "
    template = "{" + inner + ("," + inner).join(
        [_string(k).replace("%", "%%") + ": %s" for k in order]) + nl + "}"
    return (None if order == keys else order), template


_BOOL_TEXT = {False: "false", True: "true"}


def _encode(o, nl: str) -> str:
    """JSON text of `o`, whose own lines start with `nl` (newline + indent).

    A dict is its shape's cached layout filled with its values' texts, the
    None, bool, str and int ones written in place; a list whose items are
    all int or all bool is one join.
    """
    t = type(o)
    if t is str:
        return _string(o)
    if t is int:
        return int.__repr__(o)
    if t is dict or t is list or t is tuple:
        if not o:
            return "{}" if t is dict else "[]"
        inner = nl + "  "
        if t is not dict:
            types = set(map(type, o))
            if types == {int}:
                body = map(int.__repr__, o)
            elif types == {bool}:
                body = map(_BOOL_TEXT.__getitem__, o)
            else:
                body = [_encode(x, inner) for x in o]
            return "[" + inner + ("," + inner).join(body) + nl + "]"
        try:
            order, template = _layout(tuple(o), nl)
            return template % tuple([
                "null" if v is None else "true" if v is True
                else "false" if v is False
                else _string(v) if (tv := type(v)) is str
                else int.__repr__(v) if tv is int
                else _encode(v, inner)
                for v in (o.values() if order is None else map(o.__getitem__, order))])
        except TypeError:  # a key that is not a str, or a bad value below
            pass
    elif o is None:
        return "null"
    elif t is bool:
        return "true" if o else "false"
    # Outside the document domain: json's own text (or error), re-indented.
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", nl)


def loads_document(text: str) -> dict:
    return json.loads(text)
