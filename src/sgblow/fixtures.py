"""Stored worked examples with their published invariant values.

Each fixture is one semigroup with one or more ideals and a list of named
checks whose expected values are frozen here.  evaluate_fixture recomputes
every check from scratch and reports expected versus actual.

The non-implication table records premise/conclusion pairs where the
premise holds on the stored example while the conclusion genuinely fails,
guarding against accidentally "proving" a false converse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .blowup import Analysis
from .core import ValueIdeal
from .invariants import dual
from .parsing import format_cofinite_set, parse_ideal, parse_semigroup


def _gamma_lambda_ideal(a: Analysis) -> ValueIdeal:
    return a.ring.normalization.shift(a.c_lambda)


def _fmt(e: ValueIdeal) -> str:
    return format_cofinite_set(e.members, e.frontier)


CHECKS: dict[str, Callable[[Analysis], object]] = {
    "conductor": lambda a: a.c,
    "genus": lambda a: a.delta,
    "multiplicity": lambda a: a.e,
    "embedding_dimension": lambda a: a.mu,
    "cm_type": lambda a: a.r,
    "reduction_exponent": lambda a: a.nu,
    "ideal_genus": lambda a: a.rho,
    "e_nu": lambda a: a.e * a.nu,
    "blowup_set": lambda a: _fmt(a.lam),
    "blowup_conductor": lambda a: a.c_lambda,
    "blowup_genus": lambda a: a.delta_lambda,
    "conductor_gap": lambda a: a.c - a.c_lambda,
    "small_gap_drop": lambda a: a.ring.n - a.n_lambda,
    "h_coefficients": lambda a: a.h.coefficients,
    "h_symmetric": lambda a: a.h.symmetric,
    "type_sequence": lambda a: a.ring.ts.entries,
    "almost_gorenstein": lambda a: a.ring.ring_class.almost_gorenstein,
    "gorenstein": lambda a: a.ring.ring_class.gorenstein,
    "lambda_gorenstein": lambda a: a.lambda_gorenstein,
    "lambda_reflexive": lambda a: a.conditions.b1,
    "ideal_reflexive": lambda a: a.ideal_reflexive,
    "blowup_is_normalization": lambda a: a.lam_is_normalization,
    "power_nu_set": lambda a: _fmt(a.power_nu),
    "power_colon_set": lambda a: _fmt(dual(a.power_nu)),
    "colon_lambda_set": lambda a: _fmt(a.r_colon_lambda),
    "colon_is_conductor": lambda a: a.r_colon_lambda == a.ring.conductor_ideal,
    "colon_equals_power": lambda a: a.r_colon_is_power,
    "colon_equals_square": lambda a: a.r_colon_lambda == a.power(2),
    "square_strictly_inside_colon":
        lambda a: (a.r_colon_lambda.contains(a.power(2))
                   and a.r_colon_lambda != a.power(2)),
    "blowup_from_square":
        lambda a: a.lam == a.power(2).colon(a.power(2)),
    "conductor_transitivity":
        lambda a: a.ring.conductor_ideal
        == a.r_colon_lambda + _gamma_lambda_ideal(a),
    "colon_power_gap": lambda a: a.len_rcolon_over_power_nu,
    "gamma_indices": lambda a: a.gamma_set,
    "gamma_sum": lambda a: a.sum_gamma,
    "defect": lambda a: a.d,
}


@dataclass(frozen=True)
class FixtureCase:
    ideal: str
    checks: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class Fixture:
    fid: str
    semigroup: str
    cases: tuple[FixtureCase, ...]


FIXTURES: tuple[Fixture, ...] = (
    Fixture("f01", "{0,10,12,20->}", (
        FixtureCase("ideal(10,12)", (
            ("blowup_set", "{0,2,4,6,8,10,12,14,16,18,20->}"),
            ("conductor", 20),
            ("blowup_conductor", 20),
            ("conductor_gap", 0),
            ("ideal_genus", 7),
            ("small_gap_drop", -7),
        )),
        FixtureCase("m", (
            ("blowup_set", "{0,2,4,6,8,10->}"),
            ("multiplicity", 10),
            ("conductor_gap", 10),
            ("ideal_genus", 12),
            ("small_gap_drop", -2),
        )),
    )),
    Fixture("f02", "{0,5,10,11,12,15,16,17,19->}", (
        FixtureCase("m", (
            ("reduction_exponent", 2),
            ("blowup_set", "{0,5-7,10->}"),
            ("power_colon_set", "{0,5-7,9->}"),
            ("conductor_gap", 9),
            ("e_nu", 10),
        )),
    )),
    Fixture("f03", "{0,7,8,12,13,14,15,16,18->}", (
        FixtureCase("m", (
            ("almost_gorenstein", True),
            ("h_coefficients", (1, 4, 1, 0, 1)),
            ("reduction_exponent", 4),
            ("power_nu_set", "{28->}"),
            ("blowup_is_normalization", True),
            ("colon_lambda_set", "{18->}"),
            ("colon_is_conductor", True),
            ("conductor_transitivity", True),
            ("conductor_gap", 18),
            ("e_nu", 28),
            ("multiplicity", 7),
            ("embedding_dimension", 5),
            ("cm_type", 3),
        )),
    )),
    Fixture("f04",
            "{0,5,10,15,20,21,25,26,30-32,35-37,40-42,45-48,50-53,55-58,60->}", (
        FixtureCase("m", (
            ("almost_gorenstein", True),
            ("cm_type", 3),
            ("multiplicity", 5),
            ("embedding_dimension", 4),
            ("blowup_set",
             "{0,5,10,15,16,20,21,25-27,30-32,35-37,40-43,45-48,50->}"),
            ("reduction_exponent", 2),
            ("conductor_gap", 10),
            ("e_nu", 10),
            ("lambda_reflexive", True),
            ("square_strictly_inside_colon", True),
        )),
        FixtureCase("ideal(31,32,40)", (
            ("ideal_reflexive", False),
            ("blowup_is_normalization", True),
            ("lambda_reflexive", True),
        )),
    )),
    Fixture("f05", "{0,10,20,21,25,26,30-36,40-47,50->}", (
        FixtureCase("m", (
            ("type_sequence",
             (3, 2, 1, 2, 1, 3, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 2)),
            ("blowup_set", "{0,10,11,15,16,20-27,30->}"),
            ("lambda_reflexive", True),
            ("blowup_from_square", True),
            ("colon_equals_square", True),
            ("colon_lambda_set", "{20,30,31,35,36,40-47,50->}"),
            ("gamma_indices",
             (3, 7, 8, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21)),
            ("gamma_sum", 15),
            ("blowup_genus", 17),
            ("defect", 2),
        )),
    )),
    Fixture("f06", "{0,11,12,15,22-27,29,30,33-42,44->}", (
        FixtureCase("m", (
            ("gorenstein", True),
            ("h_coefficients", (1, 4, 2, 2, 2)),
            ("h_symmetric", False),
            ("reduction_exponent", 4),
            ("ideal_genus", 22),
            ("e_nu", 44),
            ("colon_power_gap", 0),
        )),
    )),
    Fixture("f07", "<10,23,55,58,82>", (
        FixtureCase("m", (
            ("almost_gorenstein", True),
            ("cm_type", 3),
            ("h_coefficients", (1, 4, 1, 2, 2)),
            ("h_symmetric", False),
            ("ideal_genus", 20),
            ("reduction_exponent", 4),
            ("e_nu", 40),
            ("colon_power_gap", 2),
        )),
    )),
    # the printed generator list for this example has conductor 134 and is
    # not almost Gorenstein, contradicting every other stated value; the
    # closest generator set realizing all of them is used instead
    Fixture("f08", "<10,12,95,97>", (
        FixtureCase("m", (
            ("almost_gorenstein", True),
            ("cm_type", 3),
            ("h_coefficients", (1, 3, 2, 2, 2)),
            ("conductor", 124),
            ("ideal_genus", 21),
            ("reduction_exponent", 4),
            ("lambda_reflexive", True),
            ("lambda_gorenstein", True),
            ("blowup_conductor", 84),
        )),
    )),
    Fixture("f09", "<6,11,16,20,25>", (
        FixtureCase("m", (
            ("blowup_from_square", True),
            ("lambda_reflexive", False),
        )),
    )),
    Fixture("f10", "{0,8,10,13,15,16,18,20,21,23-26,28->}", (
        FixtureCase("m", (
            ("almost_gorenstein", True),
            ("cm_type", 3),
            ("multiplicity", 8),
            ("embedding_dimension", 4),
            ("h_coefficients", (1, 3, 2, 2)),
            ("ideal_genus", 13),
            ("reduction_exponent", 3),
            ("colon_equals_power", True),
            ("blowup_conductor", 4),
            ("conductor", 28),
        )),
    )),
)


@dataclass(frozen=True)
class FixtureRow:
    fid: str
    ideal: str
    check: str
    expected: object
    actual: object
    ok: bool


def fixture_by_id(fid: str) -> Fixture:
    for f in FIXTURES:
        if f.fid == fid:
            return f
    raise KeyError(f"no fixture named {fid!r}")


def analysis_for(fid: str, case_index: int = 0) -> Analysis:
    f = fixture_by_id(fid)
    case = f.cases[case_index]
    s = parse_semigroup(f.semigroup)
    return Analysis.of(parse_ideal(case.ideal, s))


def evaluate_fixture(f: Fixture) -> list[FixtureRow]:
    rows = []
    s = parse_semigroup(f.semigroup)
    for case in f.cases:
        a = Analysis.of(parse_ideal(case.ideal, s))
        for name, expected in case.checks:
            actual = CHECKS[name](a)
            rows.append(FixtureRow(f.fid, case.ideal, name, expected, actual,
                                   actual == expected))
    return rows


def evaluate_all() -> list[FixtureRow]:
    rows = []
    for f in FIXTURES:
        rows.extend(evaluate_fixture(f))
    return rows


@dataclass(frozen=True)
class NonImplication:
    """A converse that must fail: premise holds, conclusion does not."""

    name: str
    fid: str
    case_index: int
    premise: Callable[[Analysis], bool]
    conclusion_fails: Callable[[Analysis], bool]


NON_IMPLICATIONS: tuple[NonImplication, ...] = (
    NonImplication(
        "normalization_bound_without_extremal_gap", "f02", 0,
        lambda a: dual(a.power_nu).min_element >= 0,
        lambda a: a.c - a.c_lambda != a.e * a.nu),
    NonImplication(
        "conductor_transitivity_without_extremal_gap", "f03", 0,
        lambda a: a.ring.conductor_ideal
        == a.r_colon_lambda + _gamma_lambda_ideal(a),
        lambda a: a.c - a.c_lambda != a.e * a.nu),
    NonImplication(
        "extremal_gap_without_colon_power", "f04", 0,
        lambda a: a.c - a.c_lambda == a.e * a.nu,
        lambda a: not a.r_colon_is_power),
    NonImplication(
        "colon_power_without_zero_defect", "f05", 0,
        lambda a: a.r_colon_is_power,
        lambda a: a.d != 0),
    NonImplication(
        "colon_gap_extremal_without_symmetric_h_gorenstein", "f06", 0,
        lambda a: (a.ring.ring_class.gorenstein
                   and a.len_rcolon_over_power_nu == a.r - 1),
        lambda a: not a.h.symmetric),
    NonImplication(
        "colon_gap_extremal_without_symmetric_h_almost", "f07", 0,
        lambda a: (a.ring.ring_class.almost_gorenstein
                   and a.len_rcolon_over_power_nu == a.r - 1),
        lambda a: not a.h.symmetric),
    NonImplication(
        "halved_type_excess_without_nu_two", "f03", 0,
        lambda a: (a.ring.ring_class.almost_gorenstein
                   and 2 * (a.e - a.mu - 1) == a.r - 1),
        lambda a: a.nu != 2
        and a.r_colon_lambda != a.power(2)),
)


@dataclass(frozen=True)
class NonImplicationRow:
    name: str
    fid: str
    ideal: str
    premise_holds: bool
    conclusion_fails: bool

    @property
    def confirmed(self) -> bool:
        return self.premise_holds and self.conclusion_fails


def non_implication_rows() -> list[NonImplicationRow]:
    rows = []
    for item in NON_IMPLICATIONS:
        f = fixture_by_id(item.fid)
        a = analysis_for(item.fid, item.case_index)
        rows.append(NonImplicationRow(
            item.name, item.fid, f.cases[item.case_index].ideal,
            bool(item.premise(a)), bool(item.conclusion_fails(a))))
    return rows
