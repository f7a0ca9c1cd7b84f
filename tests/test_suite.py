"""Batch verification runs: determinism, parallel agreement, aggregation."""

import json
import os
import tracemalloc

import pytest

import sgblow.suite
from sgblow.errors import SgblowError
from sgblow.invariants import ring
from sgblow.suite import STRATEGIES, SuiteConfig, SuiteReport, run_suite


def canon(report):
    return json.dumps(report.to_document(), sort_keys=True)


def test_small_exhaustive_run_is_clean():
    report = run_suite(SuiteConfig(max_genus=4, ideal_strategy="all"))
    assert report.ok
    assert report.failed == 0 and not report.failures
    assert report.pairs > 0
    assert report.checked == report.pairs * len(report.statement_ids)
    assert report.held + report.vacuous == report.checked
    assert len(report.statement_ids) == 50


def test_parallel_run_is_byte_identical_to_serial():
    # the pool carries semigroup objects to the workers, under every strategy
    for genus, strategy in ((5, "maximal"), (4, "all"), (4, "random")):
        serial = run_suite(SuiteConfig(max_genus=genus, ideal_strategy=strategy))
        parallel = run_suite(SuiteConfig(max_genus=genus,
                                         ideal_strategy=strategy, jobs=3))
        assert canon(serial) == canon(parallel)


def test_the_pool_is_bounded_by_the_machine_cores(monkeypatch):
    # a fake pool that records its size and starts no process
    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

        map = imap

    monkeypatch.setattr(sgblow.suite, "Pool", FakePool)
    cores = os.cpu_count() or 1
    many = run_suite(SuiteConfig(max_genus=4, ideal_strategy="random", jobs=10**6))
    assert asked == ([cores] if cores > 1 else [])
    one = run_suite(SuiteConfig(max_genus=4, ideal_strategy="random", jobs=1))
    assert asked == ([cores] if cores > 1 else [])
    assert canon(many) == canon(one)


def test_the_suite_streams_one_semigroup_at_a_time(monkeypatch):
    log = []
    walk, task = sgblow.suite.enumerate_semigroups, sgblow.suite._suite_task

    def logged_walk(max_genus):
        for s in walk(max_genus):
            log.append("made")
            yield s

    def logged_task(args):
        log.append("task")
        return task(args)

    monkeypatch.setattr(sgblow.suite, "enumerate_semigroups", logged_walk)
    monkeypatch.setattr(sgblow.suite, "_suite_task", logged_task)
    report = run_suite(SuiteConfig(max_genus=5, jobs=1))
    assert report.semigroups == 27
    assert log == ["made", "task"] * 27


def test_a_run_holds_the_records_of_one_semigroup_at_a_time():
    # each semigroup's ring, with its blow-up and translation records, is
    # freed when the run moves on: the peak is about 0.6 MB, and the bound
    # fails for a cache that keeps the last 32 rings alive (about 2.7 MB)
    ring.cache_clear()
    tracemalloc.start()
    try:
        run_suite(SuiteConfig(max_genus=6, ideal_strategy="all"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_random_strategy_is_seed_deterministic():
    cfg = dict(max_genus=5, ideal_strategy="random", sample_size=3)
    a = run_suite(SuiteConfig(seed=1, **cfg))
    b = run_suite(SuiteConfig(seed=1, **cfg))
    c = run_suite(SuiteConfig(seed=2, **cfg))
    assert canon(a) == canon(b)
    assert canon(a) != canon(c)
    assert a.ok and c.ok


def test_trivial_universe():
    report = run_suite(SuiteConfig(max_genus=0))
    assert report.semigroups == 1
    assert report.pairs == 0 and report.checked == 0
    assert report.ok


def test_an_empty_walk_is_an_error_only_where_ideals_were_asked_for():
    low = dict(max_genus=2, bound_offset=-100)
    for strategy in ("all", "random"):
        with pytest.raises(SgblowError, match="bound offset -100"):
            run_suite(SuiteConfig(ideal_strategy=strategy, **low))
    # no walked ideal is asked for: a zero sample, or N alone
    for cfg in (dict(ideal_strategy="random", sample_size=0, **low),
                dict(max_genus=0, ideal_strategy="all", bound_offset=-100)):
        assert run_suite(SuiteConfig(**cfg)).pairs == 0
    # the maximal strategy reads no bound
    assert run_suite(SuiteConfig(ideal_strategy="maximal", **low)).pairs == 3


def test_document_round_trip():
    report = run_suite(SuiteConfig(max_genus=4, ideal_strategy="random",
                                   sample_size=2, seed=7))
    doc = report.to_document()
    again = SuiteReport.from_document(doc)
    assert again == report
    assert again.to_document() == doc
    assert "jobs" not in doc["config"]


def test_statement_filter_restricts_the_run():
    report = run_suite(SuiteConfig(max_genus=4,
                                   statements=("Thm4.7", "Cor6.10")))
    assert report.statement_ids == ("Thm4.7.1", "Thm4.7.2", "Cor6.10")
    assert report.checked == report.pairs * 3
    assert report.ok


def test_unknown_strategy_is_rejected():
    assert STRATEGIES == ("maximal", "all", "random")
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(max_genus=3, ideal_strategy="everything"))
