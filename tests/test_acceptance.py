"""Acceptance gate: seven exact criteria, one pass/fail line printed each.

Every comparison is exact integer or exact byte equality; the two timed
criteria use wall-clock budgets (10 s for the stored examples, 5 min for
the headline identity sweep).
"""

import dataclasses
import random
import time

from sgblow.blowup import analyze, blowup_lambda
from sgblow.core import ValueIdeal, length_between
from sgblow.enumeration import (
    count_by_genus,
    enumerate_ideals,
    enumerate_semigroups,
    sample_ideals,
)
from sgblow.fixtures import evaluate_all, non_implication_rows
from sgblow.invariants import canonical_ideal, dual, type_sequence
from sgblow.parsing import format_ideal, format_semigroup
from sgblow.report import analysis_document, dumps_document, loads_document
from sgblow.statements import Analysis, catalog_ids, verify_statement
from sgblow.suite import SuiteConfig, run_suite

from oracles import closure_from_generators, count_semigroups_of_genus

DEEP = dict(max_genus=10, ideal_strategy="maximal")   # every S, genus <= 10, I = m
WIDE = dict(max_genus=6, ideal_strategy="all")        # every ideal, genus <= 6


def _line(num, ok, detail):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")


def _pairs():
    for s in enumerate_semigroups(10):
        if not s.is_natural_numbers:
            yield s, s.maximal_ideal()
    for s in enumerate_semigroups(6):
        if s.is_natural_numbers:
            continue
        yield from ((s, e) for e in enumerate_ideals(s))


def test_criterion_1_fixture_fidelity():
    start = time.monotonic()
    rows = evaluate_all()
    elapsed = time.monotonic() - start
    bad = [r for r in rows if not r.ok]
    ok = not bad and len(rows) == 88 and elapsed < 10.0
    _line(1, ok, f"{len(rows) - len(bad)}/{len(rows)} stored example values "
                 f"reproduced in {elapsed:.2f}s")
    assert bad == []
    assert len(rows) == 88
    assert elapsed < 10.0


def test_criterion_2_headline_identity():
    start = time.monotonic()
    deep = run_suite(SuiteConfig(statements=("Thm4.7",), **DEEP))
    wide = run_suite(SuiteConfig(statements=("Thm4.7",), **WIDE))
    checked = 0
    for s, e in _pairs():
        rep = analyze(e)
        entries = type_sequence(s).entries
        gamma = set(rep.gamma_set)
        excess = sum(entries[i - 1] - 1 for i in range(1, len(entries) + 1)
                     if i not in gamma)
        rhs = (rep.e * rep.nu + excess - rep.d
               - length_between(rep.lam_bidual, rep.lam)
               - length_between(rep.r_colon_lambda, rep.power(rep.nu)))
        assert 2 * rep.rho == rhs, (s.small_elements, e.minimal_generators())
        checked += 1
    elapsed = time.monotonic() - start
    ok = (deep.ok and wide.ok and deep.failed == 0 and wide.failed == 0
          and elapsed < 300.0)
    _line(2, ok, f"identity holds on all {checked} pairs "
                 f"({deep.pairs} deep + {wide.pairs} wide) in {elapsed:.1f}s")
    assert deep.failed == 0 and wide.failed == 0
    assert deep.pairs == sum(count_by_genus(10)) - 1
    assert checked == deep.pairs + wide.pairs
    assert elapsed < 300.0


def test_criterion_3_full_statement_suite():
    deep = run_suite(SuiteConfig(**DEEP))
    wide = run_suite(SuiteConfig(**WIDE))
    ok = deep.ok and wide.ok
    _line(3, ok, f"50-statement catalog clean on {deep.pairs + wide.pairs} "
                 f"pairs ({deep.checked + wide.checked} verdicts, "
                 f"{deep.failed + wide.failed} failed)")
    for report in (deep, wide):
        assert len(report.statement_ids) == 50
        assert report.failed == 0 and not report.failures
        assert not report.degenerate
        assert report.held + report.vacuous == report.checked


def test_criterion_4_enumerator_counts():
    counts = count_by_genus(8)
    oracle = tuple(count_semigroups_of_genus(g) for g in range(9))
    ok = counts == oracle == (1, 1, 2, 4, 7, 12, 23, 39, 67)
    _line(4, ok, f"per-genus counts {counts} match the gap-set oracle")
    assert counts == (1, 1, 2, 4, 7, 12, 23, 39, 67)
    assert counts == oracle


def test_criterion_5_dual_algorithm_agreement():
    sequences = 0
    for s in enumerate_semigroups(10):
        if s.is_natural_numbers:
            continue
        small, c = s.small_elements, s.conductor
        k = canonical_ideal(s)
        prev = s.as_ideal()
        via_dual, via_omega = [], []
        for i in range(1, len(small)):
            cur = ValueIdeal(s, [x for x in small if small[i] <= x < c], c)
            via_dual.append(length_between(dual(cur), dual(prev)))
            via_omega.append(length_between(k + prev, k + cur))
            prev = cur
        entries = type_sequence(s).entries
        assert tuple(via_dual) == entries == tuple(via_omega), small
        sequences += 1

    blowups = 0
    for s, e in _pairs():
        a = e.min_element
        gens = sorted(set(s.min_generators)
                      | {g - a for g in e.minimal_generators() if g != a})
        lam = blowup_lambda(e)
        got = lam.members, lam.frontier
        assert got == closure_from_generators(gens), (s.small_elements, e.minimal_generators())
        blowups += 1
    _line(5, True, f"dual routes agree on {sequences} type sequences "
                   f"and {blowups} blow-ups")


def test_criterion_6_non_implication_witnesses():
    rows = non_implication_rows()
    ok = len(rows) == 7 and all(r.confirmed for r in rows)
    _line(6, ok, "7/7 witness rows confirm the six converse-fails remarks")
    assert len(rows) == 7
    assert {r.fid for r in rows} == {"f02", "f03", "f04", "f05", "f06", "f07"}
    for row in rows:
        assert row.premise_holds and row.conclusion_fails, row.name


def test_criterion_7_determinism_round_trip():
    repeats = 0
    for cfg in (SuiteConfig(max_genus=5, ideal_strategy="all"),
                SuiteConfig(max_genus=6, ideal_strategy="random",
                            sample_size=4, seed=11)):
        first = dumps_document(run_suite(cfg).to_document())
        second = dumps_document(run_suite(cfg).to_document())
        parallel = dumps_document(
            run_suite(dataclasses.replace(cfg, jobs=2)).to_document())
        assert first == second == parallel
        repeats += 1

    rng = random.Random(20260817)
    pool = [s for s in enumerate_semigroups(9) if not s.is_natural_numbers]
    documents = 0
    while documents < 100:
        s = rng.choice(pool)
        for e in sample_ideals(s, 2, rng):
            a = Analysis.of(e)
            picked = rng.sample(catalog_ids(), 3)
            verdicts = [verify_statement(sid, e) for sid in picked]
            doc = analysis_document(a, verdicts,
                                    semigroup_text=format_semigroup(s),
                                    ideal_text=format_ideal(e))
            text = dumps_document(doc)
            assert loads_document(text) == doc
            assert dumps_document(loads_document(text)) == text
            documents += 1
            if documents == 100:
                break
    _line(7, True, f"{repeats} configs byte-stable across reruns and jobs; "
                   f"round-trip identity on {documents} random reports")
    assert documents == 100
