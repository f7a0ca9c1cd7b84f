"""Read sets: each statement's declared level is the one its code derives,
and every field a pair or a record keeps has a reader.

tests/read_sets.py derives a statement's level from the attribute names
its conclusion, notes and conjuncts read.  A level declared more
shareable than the derived one would hand one pair's verdict to another;
one declared less shareable would lose the sharing without a word.  A
field that nothing reads costs its computation on every pair or record
that keeps it, so each must be read: a pair attribute by a conjunct, a
conclusion, a notes function or the code that checks, walks, documents or
replays a pair; an attribute of a translation record, a key of its
prepared mapping or of its report template, or a field of a blow-up
record, by blowup.py itself or by a pair's reader.  A name nothing reads
stays only as public API, on PUBLIC_API with its reason.
"""

import ast
import dataclasses
import inspect
import re
from collections import Counter

import pytest

import sgblow.blowup
from sgblow.blowup import Analysis
from sgblow.fixtures import CHECKS
from sgblow.invariants import ring
from sgblow.report import analysis_document
from sgblow.statements import CONJUNCTS, STATEMENTS, verify_many

from read_sets import code_names, derived_level, pair_attributes, read_set
from test_translation_records import _key, _translates_of_m

# the pair attributes that would stay with no reader in the library, as
# public API, each with its reason
PUBLIC_API = {
    "ideal": "the ideal E the pair was built from",
    "s": "the semigroup S, E's carrier",
    "ring": "S's one Ring, with every ring-level quantity",
}


def _level_mismatches():
    derived = {sid: derived_level(read_set(st)) for sid, st in STATEMENTS.items()}
    return {sid: (st.level, derived[sid]) for sid, st in STATEMENTS.items()
            if st.level != derived[sid]}


def _check_levels():
    mismatches = _level_mismatches()
    assert not mismatches, f"declared and derived levels differ: {mismatches}"


def test_every_declared_level_is_the_derived_one():
    _check_levels()
    assert Counter(st.level for st in STATEMENTS.values()) == {
        "lambda": 9, "class": 4, "pair": 37}


def test_read_sets_see_through_nested_code():
    # Prop4.3.3 reads i0 inside a generator expression, and Thm5.9.1 reads
    # nuE reflexive through a lazy field
    assert {"d", "i0", "outside_gamma", "ring", "len_bidual_over_rstar"} \
        == read_set(STATEMENTS["Prop4.3.3"])
    assert "power_nu_reflexive" in read_set(STATEMENTS["Thm5.9.1"])
    # a conjunct's reads are the statement's: Prop6.5.1 reads r through one
    assert {"is_max_ideal", "r"} <= read_set(STATEMENTS["Prop6.5.1"])


@pytest.mark.parametrize("sid,declared", [("Cor4.6.1", "lambda"), ("Prop2.9", "class")])
def test_a_misdeclared_level_is_flagged(monkeypatch, sid, declared):
    monkeypatch.setitem(STATEMENTS, sid, dataclasses.replace(STATEMENTS[sid], level=declared))
    assert _level_mismatches() == {sid: (declared, "pair")}
    with pytest.raises(AssertionError, match=re.escape(sid)):
        _check_levels()


def test_a_lambda_level_conclusion_that_reads_nu_is_flagged(monkeypatch):
    monkeypatch.setitem(STATEMENTS, "Prop4.3.2", dataclasses.replace(
        STATEMENTS["Prop4.3.2"], conclusion=lambda a: (a.d <= a.nu, a.d, a.nu)))
    assert _level_mismatches() == {"Prop4.3.2": ("lambda", "class")}
    with pytest.raises(AssertionError, match=re.escape("Prop4.3.2")):
        _check_levels()


def _pair_readers():
    """The names read by what reads a pair."""
    functions = [*CONJUNCTS.values(), *CHECKS.values(), Analysis.cross_check,
                 Analysis.power, Analysis._holds_a4, verify_many, analysis_document]
    for st in STATEMENTS.values():
        functions.append(st.conclusion)
        if callable(st.notes):
            functions.append(st.notes)
    return set().union(*(code_names(f.__code__) for f in functions))


def _blowup_module_reads():
    """The attribute names blowup.py loads; a store is no read."""
    tree = ast.parse(inspect.getsource(sgblow.blowup))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unread():
    """The unread names of m over <3,5,7> and of m + 2, built on a cold
    ring, and of the records they share: {kind: names}."""
    ring.cache_clear()
    _, m, (moved,) = _translates_of_m((3, 5, 7), (2,))
    first, translate = Analysis(m), Analysis(moved)
    # nuE reflexive is a lazy field of the pair (see blowup's module
    # docstring): read, it stands in the translate's instance dict
    translate.power_nu_reflexive
    tr = first.ring.translates[_key(m)]
    fields, conditions = first.ring.blowups[first.lam.bits, first.lam.frontier]
    ring.cache_clear()
    pair_reads, own_reads = _pair_readers(), _blowup_module_reads()
    return {
        "pair": (pair_attributes(first) | pair_attributes(translate))
        - pair_reads - PUBLIC_API.keys(),
        # the mapping's keys become pair attributes, the template's report fields
        "translation record": set(vars(tr)) - own_reads
        | (tr.fixed.keys() | tr.conditions.keys()) - own_reads - pair_reads,
        "blowup record": (fields.keys() | conditions.keys()) - own_reads - pair_reads,
    }


def _check_every_field_is_read():
    unread = {kind: names for kind, names in _unread().items() if names}
    assert not unread, f"kept with no reader: {unread}"


def test_every_field_of_a_pair_and_of_its_records_is_read():
    _check_every_field_is_read()
    # the allowlist names attributes a pair has
    assert PUBLIC_API.keys() <= pair_attributes()


def _plant_on_the_pair(monkeypatch):
    honest = Analysis.__init__

    def init(self, e):
        honest(self, e)
        self.unread = 0
    monkeypatch.setattr(Analysis, "__init__", init)


def _plant_on_the_translation_record(monkeypatch):
    honest = sgblow.blowup._Translates.__init__

    def init(self, rg, e):
        honest(self, rg, e)
        self.unread = 0
    monkeypatch.setattr(sgblow.blowup._Translates, "__init__", init)


def _plant_in_the_class_mapping(monkeypatch):
    honest = sgblow.blowup._Translates.__init__

    def init(self, rg, e):
        honest(self, rg, e)
        self.fixed["unread"] = 0
    monkeypatch.setattr(sgblow.blowup._Translates, "__init__", init)


def _plant_in_the_report_template(monkeypatch):
    honest = sgblow.blowup._Translates.__init__

    def init(self, rg, e):
        honest(self, rg, e)
        self.conditions["unread"] = 0
    monkeypatch.setattr(sgblow.blowup._Translates, "__init__", init)


def _plant_in_the_blowup_record(monkeypatch):
    honest = sgblow.blowup._blowup_record

    def build(rg, lam):
        fields, conditions = honest(rg, lam)
        return {**fields, "unread": 0}, conditions
    monkeypatch.setattr(sgblow.blowup, "_blowup_record", build)


@pytest.mark.parametrize("plant,kinds", [
    (_plant_on_the_pair, {"pair"}),
    (_plant_on_the_translation_record, {"translation record"}),
    # a blow-up record's field becomes a key of the class's mapping and a
    # pair attribute too
    (_plant_in_the_blowup_record, {"blowup record", "translation record", "pair"}),
    # a key of the class's mapping becomes a pair attribute too
    (_plant_in_the_class_mapping, {"translation record", "pair"}),
    (_plant_in_the_report_template, {"translation record"})])
def test_a_field_nothing_reads_is_flagged(monkeypatch, plant, kinds):
    plant(monkeypatch)
    assert {kind: names for kind, names in _unread().items() if names} == dict.fromkeys(
        kinds, {"unread"})
    with pytest.raises(AssertionError, match="unread"):
        _check_every_field_is_read()
