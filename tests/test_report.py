"""Structured document rendering and its round-trip guarantees."""

import dataclasses
import enum
import json
import random
from collections import OrderedDict

import pytest

from sgblow.cli import main
from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.report import (
    _layout,
    analysis_document,
    dumps_document,
    jsonable,
    loads_document,
    set_document,
    verdict_document,
)
from sgblow.statements import STATEMENTS, Analysis, TheoremVerdict, verify_many
from sgblow.suite import SuiteConfig, run_suite


def analysis_of(gens):
    s = NumericalSemigroup.from_generators(list(gens))
    return Analysis.of(s.maximal_ideal())


def test_set_documents_expose_the_frontier():
    s = NumericalSemigroup.from_generators([3, 5, 7])
    doc = set_document(s.maximal_ideal())
    assert doc == {"elements": [3], "cofinite_from": 5}
    doc = set_document(s.as_ideal())
    assert doc == {"elements": [0, 3], "cofinite_from": 5}
    assert all(x < doc["cofinite_from"] for x in doc["elements"])


def test_jsonable_accepts_exactly_the_document_values():
    assert jsonable((1, 2)) == [1, 2]
    assert jsonable({"a": True}) == {"a": True}
    assert jsonable(None) is None
    with pytest.raises(TypeError):
        jsonable(object())
    with pytest.raises(TypeError):
        jsonable(3.5)


def test_document_schema_fields():
    a = analysis_of((5, 21, 32, 48))
    doc = analysis_document(a, verify_many(a.ideal),
                            semigroup_text="<5,21,32,48>", ideal_text="m")
    assert set(doc) == {"input", "semigroup", "ideal", "hilbert", "blowup",
                        "verdicts"}
    assert doc["input"] == {"semigroup": "<5,21,32,48>", "ideal": "m"}
    assert set(doc["semigroup"]) == {"small_elements", "c", "delta",
                                     "generators", "type_sequence", "class"}
    assert set(doc["hilbert"]) == {"H", "h", "e", "nu", "rho"}
    assert set(doc["blowup"]) == {"lambda_small_elements", "c_lambda",
                                  "delta_lambda", "r_colon_lambda",
                                  "gamma_set", "d"}
    assert len(doc["verdicts"]) == 50
    assert doc["semigroup"]["c"] == a.c
    assert doc["hilbert"]["H"][-1] == doc["hilbert"]["e"]

    def only_document_scalars(value):
        if isinstance(value, dict):
            for k, v in value.items():
                assert isinstance(k, str)
                only_document_scalars(v)
        elif isinstance(value, list):
            for v in value:
                only_document_scalars(v)
        else:
            assert value is None or isinstance(value, (bool, int, str))

    only_document_scalars(doc)


def test_serialization_is_canonical_and_invertible():
    a = analysis_of((7, 8, 12, 13, 18))
    doc = analysis_document(a, verify_many(a.ideal))
    text = dumps_document(doc)
    assert text.endswith("\n")
    assert text == dumps_document(loads_document(text))
    assert loads_document(text) == doc
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    # key order in the source dict must not leak into the bytes
    shuffled = dict(reversed(list(doc.items())))
    assert dumps_document(shuffled) == text


def test_verdict_records_equal_the_generic_conversion():
    s = NumericalSemigroup.from_generators([13, 20, 22])
    m = s.maximal_ideal()
    e = ValueIdeal.generated_by(s, (13, 20))
    verdicts = verify_many(m) + verify_many(e)
    statuses = {v.status for v in verdicts}
    assert {"vacuous", "held"} <= statuses
    kinds = {type(x) for v in verdicts if v.status == "held"
             for x in (v.lhs, v.rhs)}
    assert {int, bool, tuple, type(None)} <= kinds
    planted = [
        TheoremVerdict("X", True, True, "held", (1, (2, 3)), None),
        TheoremVerdict("X", True, True, "held", True, 7, None, "n"),
        TheoremVerdict("X", True, False, "failed", m, (e, (m, None)),
                       {"lhs": m, 3: (1, [e])}, "planted"),
        TheoremVerdict("X", True, False, "failed", ((1, 2), (3,)), [4, (5,)],
                       {"gap": -1, "sets": {"e": e}}),
        TheoremVerdict("X", True, False, "failed", Small.TWO, "rhs", {}),
    ]

    def no_tuple(value):
        assert type(value) is not tuple
        for x in value.values() if isinstance(value, dict) else \
                value if isinstance(value, list) else ():
            no_tuple(x)

    for v in verdicts + planted:
        doc = verdict_document(v)
        assert doc == {k: jsonable(x) for k, x in v._asdict().items()}
        no_tuple(doc)
        assert dumps_document(doc) == reference(doc)


def reference(value):
    """The byte reference dumps_document is held to."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII, astral code points,
# and the characters of %-formatting
CHARS = 'ab Z09"\\/\x00\x07\b\t\n\x0c\r\x1f\x7f\xe9\u20ac\u2028\U0001d516\U0001f600%(s)'
INTS = (0, 1, -1, 7, -42, 2**31, 2**63 - 1, 2**64, -(2**64) - 3, 10**30)


def random_string(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_int(rng):
    return rng.choice(INTS) if rng.random() < 0.5 else rng.randrange(-1000, 1000)


def random_value(rng, depth):
    roll = rng.randrange(10 if depth else 4)
    if roll == 0:
        return rng.choice((None, True, False))
    if roll == 1:
        return random_string(rng)
    if roll in (2, 3):
        return random_int(rng)
    if roll == 4:  # all-int lists, sometimes with a bool among them
        ints = [random_int(rng) for _ in range(rng.randrange(6))]
        if rng.random() < 0.5:
            ints.insert(rng.randrange(len(ints) + 1), rng.choice((True, False)))
        return ints
    items = [random_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    if roll in (5, 6):
        return items
    if roll == 7:
        return tuple(items)
    pairs = [(random_string(rng), v) for v in items]
    rng.shuffle(pairs)  # insertion order must not reach the bytes
    return dict(pairs)


def test_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(20061)
    fixed = [{}, [], (), [[]], [{}], {"": []}, [1, True, 2], [False],
             [0, -1, 2**64], (3, 4), {"b": 1, "a": {"d": (), "c": [None]}}]
    for doc in fixed + [random_value(rng, 4) for _ in range(3000)]:
        assert dumps_document(doc) == reference(doc)


def test_keys_with_percent_signs_are_written_as_json_dumps_writes_them():
    keys = ["%", "%%", "%s", "%(x)s", "%(", "a%d", "%%s%"]
    docs = [dict.fromkeys(keys, 1), {k: {k: [k, None]} for k in reversed(keys)},
            [{k: True, "z": k} for k in keys]]
    for doc in docs:
        assert dumps_document(doc) == reference(doc)


def test_one_key_set_in_every_order_at_every_depth():
    keys = ["statement_id", "holds", "b", "a", "Z", "\xe9", ""]
    rng = random.Random(7)
    orders = [keys, sorted(keys), sorted(keys, reverse=True)]
    orders += [rng.sample(keys, len(keys)) for _ in range(5)]
    for order in orders:
        record = {k: i for i, k in enumerate(order)}
        nested = record
        for depth in range(4):
            nested = {"n": [nested, dict(reversed(list(record.items())))]}
            assert dumps_document(nested) == reference(nested)
    # more distinct shapes than the layout cache holds, then the first again
    first = {"k0": 0, "b": [1]}
    more = _layout.cache_info().maxsize + 1
    shapes = [{f"k{i}": i, "b": [i]} for i in range(more)] + [first]
    assert dumps_document(shapes) == reference(shapes)
    assert dumps_document(first) == reference(first)


def test_bool_lists_and_mixed_int_lists():
    docs = [[True], [False, True, False], {"b": [True, True], "c": [False]},
            [True, 1, False], [1, False, 2], [0, 1, True], [[False], [0, True]]]
    for doc in docs:
        assert dumps_document(doc) == reference(doc)


class Small(enum.IntEnum):
    TWO = 2


OUTSIDE_THE_DOMAIN = [
    ("set", {"a": {1, 2}}, TypeError),
    ("ideal", {"a": NumericalSemigroup.from_generators([3, 5]).maximal_ideal()},
     TypeError),
    ("float", {"a": [1.5, -0.0, 1e300, float("nan"), float("inf"),
                     -float("inf")]}, str),
    ("int keys", {10: "x", 2: "y", -1: "z"}, str),
    ("float and bool keys", {1.5: 0, True: 1}, str),
    ("None key", {None: 0}, str),
    ("mixed keys", {1: 0, "a": 1}, TypeError),
    ("tuple key", {(1, 2): 0}, TypeError),
    ("int subclass", {"a": Small.TWO, "b": [Small.TWO, 3]}, str),
    # json's own text re-indented below depth 2
    ("int keys at depth", {"a": [{"b": {2: [1.5, {"c": None}]}}]}, str),
    ("float among ints at depth", {"a": {"b": [1, 2, 3.5, 4]}}, str),
    ("OrderedDict at depth",
     {"a": [{"b": OrderedDict([("y", [1, {"z": 2}]), ("x", 3)])}]}, str),
]


@pytest.mark.parametrize("value,outcome", [v[1:] for v in OUTSIDE_THE_DOMAIN],
                         ids=[v[0] for v in OUTSIDE_THE_DOMAIN])
def test_values_outside_the_domain_behave_as_in_json_dumps(value, outcome):
    if outcome is str:
        assert dumps_document(value) == reference(value)
    else:
        with pytest.raises(outcome):
            reference(value)
        with pytest.raises(outcome):
            dumps_document(value)


def test_a_cyclic_value_is_not_a_document():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError):
        reference(loop)
    with pytest.raises(RecursionError):
        dumps_document(loop)


def test_failure_records_serialize_as_json_dumps(capsys, monkeypatch):
    # verify_many reads each conclusion and its notes from the registry's record
    monkeypatch.setitem(STATEMENTS, "Prop3.2.1", dataclasses.replace(
        STATEMENTS["Prop3.2.1"], conclusion=lambda a: (False, a.lam, [a.c, None]),
        notes="planted \"quote\""))
    doc = run_suite(SuiteConfig(max_genus=3, jobs=1)).to_document()
    assert doc["failures"]
    assert all(isinstance(f["witness"]["lhs"], dict) for f in doc["failures"])
    assert dumps_document(doc) == reference(doc)
    assert main(["verify", "--max-genus", "3", "--jobs", "1",
                 "--format", "json"]) == 3
    assert capsys.readouterr().out == reference(doc)
