"""Stored worked examples and their converse-fails witnesses."""

import pytest

from sgblow.fixtures import (
    FIXTURES,
    NON_IMPLICATIONS,
    analysis_for,
    evaluate_all,
    evaluate_fixture,
    fixture_by_id,
    non_implication_rows,
)


def test_fixture_inventory():
    assert [f.fid for f in FIXTURES] == [f"f{i:02d}" for i in range(1, 11)]
    assert sum(len(f.cases) for f in FIXTURES) == 12
    with pytest.raises(KeyError):
        fixture_by_id("f99")


def test_every_stored_value_is_reproduced():
    rows = evaluate_all()
    bad = [r for r in rows if not r.ok]
    assert bad == [], bad
    assert len(rows) > 80


def test_single_fixture_rows_carry_both_sides():
    rows = evaluate_fixture(fixture_by_id("f03"))
    assert rows
    for r in rows:
        assert r.fid == "f03"
        assert r.ok and r.expected == r.actual


def test_blowup_can_reach_the_normalization():
    a = analysis_for("f03")
    assert a.lam_is_normalization
    assert a.nu == 4


def test_non_implications_cover_their_witnesses():
    assert [(n.name, n.fid) for n in NON_IMPLICATIONS] == [
        ("normalization_bound_without_extremal_gap", "f02"),
        ("conductor_transitivity_without_extremal_gap", "f03"),
        ("extremal_gap_without_colon_power", "f04"),
        ("colon_power_without_zero_defect", "f05"),
        ("colon_gap_extremal_without_symmetric_h_gorenstein", "f06"),
        ("colon_gap_extremal_without_symmetric_h_almost", "f07"),
        ("halved_type_excess_without_nu_two", "f03"),
    ]
    rows = non_implication_rows()
    assert len(rows) == 7
    for row in rows:
        assert row.premise_holds, row.name
        assert row.conclusion_fails, row.name
        assert row.confirmed


def test_colon_gap_premises_carry_their_ring_class():
    premise = {n.name: n.premise for n in NON_IMPLICATIONS}
    gorenstein = premise["colon_gap_extremal_without_symmetric_h_gorenstein"]
    almost = premise["colon_gap_extremal_without_symmetric_h_almost"]
    # f07 is almost Gorenstein but not Gorenstein; f02 is neither
    assert not gorenstein(analysis_for("f07"))
    assert not almost(analysis_for("f02"))
    assert all(row.confirmed for row in non_implication_rows())
