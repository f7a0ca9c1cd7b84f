"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import sgblow  # noqa: E402

import checks  # noqa: E402
import refslice  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

IDS = sgblow.catalog_ids()


def verify_records(semigroups, ideals_of):
    records = []
    for i, s in enumerate(semigroups):
        for e in ideals_of(s):
            pair = workloads.Pair(s, e, i)
            records.append(workloads.record_verify(pair, workloads.process_verify(pair, IDS)))
    return records


@pytest.fixture(scope="module")
def pair_record():
    s = sgblow.NumericalSemigroup.from_generators([5, 7, 9])
    pair = workloads.Pair(s, sgblow.ValueIdeal.generated_by(s, [5, 7]), 0)
    return workloads.record_verify(pair, workloads.process_verify(pair, IDS))


def test_genuine_pair_passes(pair_record):
    assert checks.semigroup_record_problems(pair_record) == []
    assert checks.pair_problems(pair_record) == []


def test_analyze_path_reads_the_same_results(pair_record):
    s = sgblow.NumericalSemigroup.from_generators([5, 7, 9])
    pair = workloads.Pair(s, sgblow.ValueIdeal.generated_by(s, [5, 7]), 0)
    assert workloads.record_analyze(pair, workloads.process_analyze(pair, IDS)) == pair_record


@pytest.mark.parametrize("plant", [
    lambda r: r["lam_members"].remove(r["lam_members"][-1]),
    lambda r: r.update(nu=r["nu"] + 1),
    lambda r: r.update(rho=r["rho"] - 1),
    lambda r: r["statuses"].__setitem__(3, "failed"),
])
def test_pair_checks_reject_a_planted_value(pair_record, plant):
    rec = copy.deepcopy(pair_record)
    plant(rec)
    assert checks.pair_problems(rec)


@pytest.mark.parametrize("plant", [
    lambda r: r["type_sequence"].__setitem__(-1, r["type_sequence"][-1] + 1),
    lambda r: r["type_sequence"].__setitem__(0, r["type_sequence"][0] + 1)
    or r["type_sequence"].__setitem__(-1, r["type_sequence"][-1] - 1),
    lambda r: r.update(gorenstein=not r["gorenstein"]),
    lambda r: r.update(genus=r["genus"] + 1),
])
def test_semigroup_checks_reject_a_planted_value(pair_record, plant):
    rec = copy.deepcopy(pair_record)
    plant(rec)
    assert checks.semigroup_record_problems(rec)


def test_deep_universe_counts():
    sgs = list(sgblow.enumerate_semigroups(4))
    recs = verify_records(sgs, lambda s: [] if s.is_natural_numbers else [s.maximal_ideal()])
    assert checks.check_records("deep-maximal", recs, 4) == []
    assert checks.universe_problems("deep-maximal", recs[:-1], 4)
    assert checks.universe_problems("deep-maximal", recs, 5)


def test_wide_universe_ideals():
    sgs = list(sgblow.enumerate_semigroups(2))
    recs = verify_records(sgs, lambda s: list(sgblow.enumerate_ideals(s)))
    assert checks.check_records("wide-all", recs, 2) == []
    assert checks.universe_problems("wide-all", recs[:-1], 2)


def test_large_conductor_ideals_against_their_generators():
    specs = [((5, 7, 9), [(5, 7), (5, 9)])]
    inputs = workloads.build("large-conductor", specs)
    recs = [workloads.record_analyze(p, workloads.process_analyze(p, IDS)) for p in inputs.pairs]
    assert checks.check_records("large-conductor", recs, specs=specs) == []
    assert checks.universe_problems("large-conductor", recs, specs=[((5, 7, 9), [(5, 7), (5, 7)])])
    not_maximal = copy.deepcopy(recs)
    not_maximal[0]["e_members"].remove(5)
    assert checks.universe_problems("large-conductor", not_maximal, specs=specs)


def test_large_conductor_specs():
    specs = workloads.large_conductor_specs(3)
    assert specs == workloads.large_conductor_specs(3)
    assert specs != workloads.large_conductor_specs(4)
    assert sum(1 + len(ideals) for _, ideals in specs) >= 100
    for gens, ideals in specs:
        members, c = checks.closure_of_generators(gens)
        assert 90 <= c <= 400
        for vals in ideals:
            assert len(checks.ideal_generators(members, c, *_ideal_window(members, c, vals))) >= 2


def _ideal_window(members, c, vals):
    hi = c + max(vals) + 1
    own = sorted({v + s for v in vals for s in range(hi) if (s >= c or s in members) and v + s < hi})
    return [x for x in own if x < hi], hi


def test_reference_slice_is_deterministic():
    assert refslice.reference_slice() == refslice.reference_slice()
    assert "sgblow" not in sys.modules["refslice"].__dict__


def test_meter_rescales_by_the_median_of_nearby_slices(monkeypatch):
    times = iter([0.01, 0.02, 0.02, 0.02])
    monkeypatch.setattr(refslice, "time_slice", lambda: next(times))
    meter = refslice.Meter()
    meter.add("pair", 1.0)
    meter.close()
    meter.add("pair", 2.0)
    meter.close()
    meter.close()
    raw, scaled = meter.rescaled()
    assert raw["pair"] == [1.0, 2.0]
    assert scaled["pair"] == pytest.approx([1.0 * refslice.NOMINAL_S / 0.02,
                                            2.0 * refslice.NOMINAL_S / 0.02])


def _fake_pass(i):
    keys = ["setup", "setup.semigroups", "setup.ideals", "pair", "invariants.type_sequence"]
    times = {k: [0.001 * (i + j + 1) for j in range(12)] for k in keys}
    return {"pairs": 12, "failures": [], "rss_mb": 30.0, "raw": times, "scaled": times,
            "digest": "x", "walked": {"semigroups": 1, "ideals": 0}, "checked": 600,
            "counts": {"blowup.check_conditions_a_b": 24, "core.carrier_eq": 10},
            "op_us": {}, "hit_ratios": {"type_sequence": 0.5, "blowup": 0.75}}


def test_printed_metric_names_match_benchmark_json():
    metrics, _ = run.end_to_end([_fake_pass(i) for i in range(3)])
    assert set(metrics) == set(run.END_TO_END)
    count = _fake_pass(1)
    count["counts"].update({"core.add": 1, "core.colon": 1, "core.construct": 1})
    count["scaled"] = dict(count["scaled"], **{"trace.overhead": [0.1]})
    layers = run.per_layer(count, _fake_pass(2))
    assert set(layers) == set(run.PER_LAYER)
