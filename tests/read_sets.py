"""What each catalog statement reads, and the level that follows from it.

A statement's read set is the attribute names its code can read off the
pair: the names (co_names) of its conclusion, of its notes function and
of each conjunct its hypothesis names, and of every code object nested in
them, kept where an Analysis carries an attribute of that name (its
instance dict, power and power_nu_reflexive).  Comprehensions count
whether they compile to code objects of their own (Python 3.10 and 3.11)
or are inlined into the enclosing one (3.12, PEP 709).

A level's view is what a statement of that level may read.  LAMBDA_LEVEL
is what is one per (S, Lambda): the blow-up record's fields but its
verdict store, Lambda itself, rho (checked against l(Lambda/R) when the
pair is built), r, the ring and S's notation.  CLASS_LEVEL adds what
E's translation class fixes: E:E, whether E is reflexive,
whether K + E = E**, whether nuE is reflexive, and nu.  The derived level
of a read set is the first view that holds it, "lambda" then "class", and
"pair" when neither does.  tests/test_read_sets.py pins it to every
declared level; tests/test_statement_levels.py runs each shared statement
on a view that carries only its level's attributes.
"""

from types import CodeType

from sgblow.blowup import Analysis
from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.statements import CONJUNCTS, Statement


# ideal(3,7) over <3,5,7>: its record's fields name the Lambda view
SOME_PAIR = Analysis.of(ValueIdeal.generated_by(NumericalSemigroup.from_generators([3, 5, 7]),
                                                [3, 7]))
_RECORD_FIELDS, _ = SOME_PAIR.ring.blowups[SOME_PAIR.lam.bits, SOME_PAIR.lam.frontier]
LAMBDA_LEVEL = tuple(name for name in _RECORD_FIELDS if name != "lambda_verdicts") + (
    "lam", "c_lambda", "rho", "r", "ring", "s", "c", "delta", "mu")
CLASS_LEVEL = LAMBDA_LEVEL + (
    "ideal_colon", "ideal_reflexive", "ideal_omega_is_bidual", "power_nu_reflexive", "nu")
VIEWS = {"lambda": LAMBDA_LEVEL, "class": CLASS_LEVEL}


def code_names(code: CodeType) -> set[str]:
    """co_names of code and of every code object nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= code_names(const)
    return names


def pair_attributes(a: Analysis = SOME_PAIR) -> set[str]:
    """Every attribute an Analysis carries: its instance dict, power and
    power_nu_reflexive."""
    return set(vars(a)) | {"power", "power_nu_reflexive"}


def read_set(st: Statement) -> set[str]:
    """The pair attributes st's conclusion, notes and conjuncts name."""
    functions = [st.conclusion, *(CONJUNCTS[name] for name in st.requires)]
    if callable(st.notes):
        functions.append(st.notes)
    return set().union(*(code_names(f.__code__) for f in functions)) & pair_attributes()


def derived_level(reads: set[str]) -> str:
    """The level of a read set: "lambda" when the Lambda view holds it,
    else "class" when the class view does, else "pair"."""
    for level, view in VIEWS.items():
        if reads <= set(view):
            return level
    return "pair"
