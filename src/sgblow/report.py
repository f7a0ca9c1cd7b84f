"""Machine-readable documents for analyses and verdicts.

Documents are plain dicts holding only JSON-native values: integers,
booleans, strings, lists, dicts, None.  Infinite sets appear as a sorted
list of the members below a threshold plus an explicit `cofinite_from`
field.  Serialization is canonical (sorted keys, fixed indentation, no
timestamps) so equal documents produce byte-identical text.

`dumps_document` writes that text with the package's own writer, shaped
for the document values: exact-type dispatch, strings through the C
routine `json` itself uses, and each all-integer list in a single join.
The byte reference the tests hold it to is
`json.dumps(doc, sort_keys=True, indent=2) + "\n"`.  Values outside the
document domain (floats, int keys, sets, ...) get the same text or the
same exception class as there; only a cyclic value differs, raising
RecursionError where json raises ValueError.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

from .blowup import Analysis
from .core import NumericalSemigroup, ValueIdeal
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
    if isinstance(value, NumericalSemigroup):
        return {"small_elements": list(value.small_elements),
                "cofinite_from": value.conductor}
    raise TypeError(f"cannot place {type(value).__name__} in a document")


def verdict_document(v: TheoremVerdict) -> dict:
    return {
        "statement_id": v.statement_id,
        "hypotheses_met": v.hypotheses_met,
        "holds": v.holds,
        "status": v.status,
        "lhs": jsonable(v.lhs),
        "rhs": jsonable(v.rhs),
        "witness": jsonable(v.witness),
        "notes": v.notes,
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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(o, nl: str) -> str:
    """JSON text of `o`, whose own lines start with `nl` (newline + indent)."""
    t = type(o)
    if t is str:
        return _string(o)
    if t is int:
        return int.__repr__(o)
    if t is dict or t is list or t is tuple:
        if not o:
            return "{}" if t is dict else "[]"
        inner = nl + "  "
        if t is dict:
            body = [(_string(k) if type(k) is str else _key(k))
                    + ": " + _encode(v, inner)
                    for k, v in sorted(o.items())]
            return "{" + inner + ("," + inner).join(body) + nl + "}"
        if all(type(x) is int for x in o):
            body = map(int.__repr__, o)
        else:
            body = [_encode(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if o is None:
        return "null"
    if t is bool:
        return "true" if o else "false"
    # Outside the document domain: the text or the error json.dumps gives.
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NON_FINITE.get(text, text)
    if isinstance(o, (list, tuple)):
        return _encode(list(o), nl)
    if isinstance(o, dict):
        return _encode(dict(o.items()), nl)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key that is not exactly a str, as json.dumps writes it."""
    if isinstance(k, str):
        return _string(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _encode(k, "") + '"'
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


def loads_document(text: str) -> dict:
    return json.loads(text)
