"""Machine-readable documents for analyses and verdicts.

Documents are plain dicts holding only JSON-native values: integers,
booleans, strings, lists, dicts, None.  Infinite sets appear as a sorted
list of the members below a threshold plus an explicit `cofinite_from`
field.  Serialization is canonical (sorted keys, fixed indentation, no
timestamps) so equal documents produce byte-identical text.
"""

from __future__ import annotations

import json

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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_document(text: str) -> dict:
    return json.loads(text)
