"""Type sequences and blow-ups of numerical semigroup rings.

Value-set model: a one-dimensional semigroup ring is represented by its
numerical semigroup of values, a monomial ideal by the set of values of
its elements.  All lengths, duals, colons and blow-ups become exact
integer set arithmetic.
"""

from .blowup import (
    Analysis,
    BlowupReport,
    ConditionsReport,
    HPolynomial,
    analyze,
    blowup_lambda,
    check_conditions_a_b,
    h_polynomial,
    hilbert_function,
    power,
)
from .core import NumericalSemigroup, ValueIdeal, length_between
from .enumeration import (
    count_by_genus,
    default_generator_bound,
    enumerate_ideals,
    enumerate_semigroups,
    sample_ideals,
    semigroups_of_genus,
)
from .errors import (
    CarrierMismatch,
    DegenerateBlowup,
    EmptyGenerators,
    EquivalenceViolation,
    GrammarError,
    InvariantViolation,
    NotClosed,
    NotCofinite,
    NotIntegral,
    NotNested,
    NotProper,
    PrincipalIdeal,
    RegularRing,
    SgblowError,
    UnknownStatement,
    ZeroMissing,
)
from .fixtures import FIXTURES, evaluate_all, evaluate_fixture, non_implication_rows
from .invariants import (
    RingClass,
    TypeSequence,
    bidual,
    canonical_closure,
    canonical_ideal,
    classify,
    dual,
    integral_closure,
    is_reflexive,
    omega_product,
    type_sequence,
)
from .parsing import (
    format_generators,
    format_ideal,
    format_semigroup,
    parse_ideal,
    parse_semigroup,
)
from .report import analysis_document, dumps_document, loads_document
from .statements import (
    TheoremVerdict,
    catalog_ids,
    expand_statement_ids,
    verify_many,
    verify_statement,
)
from .suite import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "BlowupReport",
    "CarrierMismatch",
    "ConditionsReport",
    "DegenerateBlowup",
    "EmptyGenerators",
    "EquivalenceViolation",
    "FIXTURES",
    "GrammarError",
    "HPolynomial",
    "InvariantViolation",
    "NotClosed",
    "NotCofinite",
    "NotIntegral",
    "NotNested",
    "NotProper",
    "NumericalSemigroup",
    "PrincipalIdeal",
    "RegularRing",
    "RingClass",
    "SgblowError",
    "SuiteConfig",
    "SuiteReport",
    "TheoremVerdict",
    "TypeSequence",
    "UnknownStatement",
    "ValueIdeal",
    "ZeroMissing",
    "analysis_document",
    "analyze",
    "bidual",
    "blowup_lambda",
    "canonical_closure",
    "canonical_ideal",
    "catalog_ids",
    "check_conditions_a_b",
    "classify",
    "count_by_genus",
    "default_generator_bound",
    "dual",
    "dumps_document",
    "enumerate_ideals",
    "enumerate_semigroups",
    "evaluate_all",
    "evaluate_fixture",
    "expand_statement_ids",
    "format_generators",
    "format_ideal",
    "format_semigroup",
    "h_polynomial",
    "hilbert_function",
    "integral_closure",
    "is_reflexive",
    "length_between",
    "loads_document",
    "non_implication_rows",
    "omega_product",
    "parse_ideal",
    "parse_semigroup",
    "power",
    "run_suite",
    "sample_ideals",
    "semigroups_of_genus",
    "type_sequence",
    "verify_many",
    "verify_statement",
]
