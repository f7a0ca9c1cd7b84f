"""Catalog of checkable identities tying type sequences to blow-up data.

Each statement is declared once, by one _statement registration that
names its id, its hypothesis, its notes and its level and wraps its
conclusion.  The hypothesis and the conclusion are functions of a shared
Analysis bundle (ring-level quantities on its a.ring); the conclusion
returns (ok, lhs, rhs).  STATEMENTS maps each id, in catalog order, to a
function of the bundle that returns a TheoremVerdict: held, failed, or
vacuous when the hypothesis is not met; HYPOTHESES and LEVELS map each id
to its hypothesis (None for none) and its level.  A verdict is an immutable
tuple record, and the vacuous verdict of a statement is one shared object,
built at registration.  Inequalities and identities are evaluated in exact
integer arithmetic; fractional forms are cross-multiplied so nothing ever
rounds.

A statement is "pair"-level unless it reads only what is one per
(S, Lambda): the blow-up record's quantities, rho (checked against
l(Lambda/R) when the pair is built), r, a.ring and the notation of S.
Those eight, Prop4.2, Prop4.3.1-4.3.4, Thm4.4.1, Thm4.4.2 and Cor5.2, are
"lambda"-level, and verify_many makes each of their verdicts once per
blow-up record and hands it to every later pair with that Lambda.
STATEMENTS[sid](a) itself always evaluates afresh.

Statement ids follow the external naming contract (Thm4.7.1, Prop6.9.2, ...).
A bare group id like "Thm4.7" expands to all of its parts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .blowup import Analysis
from .core import ValueIdeal, length_between
from .errors import InvariantViolation, UnknownStatement
from .invariants import integral_closure, is_reflexive


class TheoremVerdict(NamedTuple):
    """One statement's verdict on one pair.

    Equality is type-strict: a verdict equals only another verdict with the
    same fields, never a plain tuple of them.  The hash is the field tuple's.
    """

    statement_id: str
    hypotheses_met: bool
    holds: bool
    status: str
    lhs: object = None
    rhs: object = None
    witness: dict | None = None
    notes: str = ""

    def __eq__(self, other):
        if other.__class__ is TheoremVerdict:
            return tuple.__eq__(self, other)
        # a plain tuple would otherwise fall back to tuple equality
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's own test
    __hash__ = tuple.__hash__


STATEMENTS: dict[str, Callable[[Analysis], TheoremVerdict]] = {}
HYPOTHESES: dict[str, Callable[[Analysis], bool] | None] = {}
LEVELS: dict[str, str] = {}


def _statement(sid: str, hypothesis: Callable[[Analysis], bool] | None = None,
               notes: str | Callable[[Analysis], str] = "", level: str = "pair"):
    """Register a conclusion a -> (ok, lhs, rhs) as the statement sid.

    STATEMENTS[sid](a) is the statement's one vacuous verdict when
    hypothesis(a) is false, and otherwise a held or failed verdict that
    carries lhs, rhs and the notes, which may be a function of a.  No
    hypothesis means the statement applies to every pair.  The hypothesis
    goes to HYPOTHESES[sid] and the level to LEVELS[sid]: "lambda" declares
    that hypothesis, conclusion and notes read only the blow-up record's
    quantities, rho, r, a.ring and the notation of S, so that the verdict
    is one per (S, Lambda); "pair" is every other statement.
    """
    vacuous = TheoremVerdict(sid, False, True, "vacuous")

    def register(conclusion):
        def verdict(a: Analysis) -> TheoremVerdict:
            if hypothesis is not None and not hypothesis(a):
                return vacuous
            ok, lhs, rhs = conclusion(a)
            note = notes if notes.__class__ is str else notes(a)
            # tuple.__new__ skips the argument handling of TheoremVerdict(...)
            if ok:
                return tuple.__new__(TheoremVerdict,
                                     (sid, True, True, "held", lhs, rhs, None, note))
            return tuple.__new__(TheoremVerdict, (sid, True, False, "failed", lhs, rhs,
                                                  {"lhs": lhs, "rhs": rhs}, note))

        STATEMENTS[sid] = verdict
        HYPOTHESES[sid] = hypothesis
        LEVELS[sid] = level
        return conclusion

    return register


# ---- hypotheses shared by several statements ----


def _almost_gorenstein(a: Analysis) -> bool:
    return a.ring.ring_class.almost_gorenstein


def _maximal(a: Analysis) -> bool:
    return a.is_max_ideal


def _maximal_r_is_e_minus_2(a: Analysis) -> bool:
    return a.is_max_ideal and a.r == a.e - 2


def _maximal_e_is_mu_plus_1(a: Analysis) -> bool:
    return a.is_max_ideal and a.e == a.mu + 1


def _maximal_nu_is_2(a: Analysis) -> bool:
    return a.is_max_ideal and a.nu == 2


# ---- groups of equivalent closure conditions ----


@_statement("Prop2.9", notes="closure conditions: both groups agree internally "
                             "and across the bridge")
def _(a):
    c = a.conditions
    return c.coherent, (c.a1, c.a2, c.a3, c.a4, c.a5, c.a6, c.b1, c.b2,
                        c.colon_inside_omega_dual), None


# ---- conductor comparisons ----


@_statement("Prop3.2.1")
def _(a):
    return a.c - a.c_lambda <= a.e * a.nu, a.c - a.c_lambda, a.e * a.nu


@_statement("Prop3.2.2", notes="two-sided chain; also pins the conductor of the "
                               "nu-th power at nu*e + c_Lambda")
def _(a):
    gap = a.ring.n - a.n_lambda
    mid = a.c - a.c_lambda - a.rho
    diagram = a.power_nu.frontier == a.nu * a.e + a.c_lambda
    third = a.e * a.nu - a.rho - a.len_gammar_over_conductor_power
    ok = diagram and gap == mid and mid == third and gap <= a.len_r_over_power_nu
    return ok, gap, mid


@_statement("Prop3.2.3", notes="four equivalent forms of the extremal conductor gap")
def _(a):
    p1 = a.c - a.c_lambda == a.e * a.nu
    p2 = a.c == a.nu * a.e + a.c_lambda
    p3 = a.conductor_in_power
    p4 = a.ring.n - a.n_lambda == a.len_r_over_power_nu
    return p1 == p2 == p3 == p4, (p1, p2, p3, p4), None


@_statement("Rmk3.3.1")
def _(a):
    gap = a.ring.n - a.n_lambda
    ok = gap >= -a.rho and (not a.is_max_ideal or gap >= a.e - a.rho)
    return ok, gap, (a.e - a.rho if a.is_max_ideal else -a.rho)


@_statement("Lemma3.4", hypothesis=lambda a: a.r_colon_is_power,
            notes="colon equal to the power forces the extremal gap "
                  "and reflexivity of the blow-up")
def _(a):
    ok = (a.c - a.c_lambda == a.e * a.nu) and a.conditions.b1
    return ok, a.c - a.c_lambda, a.e * a.nu


@_statement("Prop3.5.1")
def _(a):
    lhs = 2 * a.rho
    rhs = (a.e * a.nu + (2 * a.delta - a.c)
           - a.len_rcolon_over_power_nu - a.len_omega_over_lambda)
    return lhs == rhs, lhs, rhs


@_statement("Prop3.5.2")
def _(a):
    p1 = 2 * a.rho == a.e * a.nu + (2 * a.delta - a.c)
    p2 = a.lambda_gorenstein and a.c - a.c_lambda == a.e * a.nu
    p3 = a.r_colon_is_power and a.omega_lambda == a.lam
    p4 = a.r_colon_is_power and a.ring.r_colon_omega.contains(a.r_colon_lambda)
    return p1 == p2 == p3 == p4, (p1, p2, p3, p4), None


# ---- the defect d and type-sequence sums ----


@_statement("Prop4.2", notes="sandwich for the Gamma sum; Gamma size matches "
                             "the covolume of omega Lambda", level="lambda")
def _(a):
    ok = (a.len_rbar_over_omega <= a.sum_gamma <= a.len_rbar_over_bidual
          and len(a.gamma_set) == a.len_rbar_over_omega)
    return ok, (a.len_rbar_over_omega, a.sum_gamma, a.len_rbar_over_bidual), None


@_statement("Prop4.3.1", level="lambda")
def _(a):
    rhs = a.len_omega_over_bidual - (a.sum_gamma - len(a.gamma_set))
    return a.d == rhs, a.d, rhs


def _bidual_contains_k(a: Analysis) -> bool:
    hyp = a.lam_bidual.contains(a.ring.k)
    if hyp != a.ring.r_colon_omega.contains(a.r_colon_lambda):
        raise InvariantViolation("the two hypothesis forms must agree")
    return hyp


@_statement("Prop4.3.2", hypothesis=_bidual_contains_k, level="lambda")
def _(a):
    return a.d == 0, a.d, 0


@_statement("Prop4.3.3", level="lambda")
def _(a):
    tail = sum(a.ring.ts.entries[i - 1] for i in a.outside_gamma if i > a.i0)
    rhs = tail - a.len_bidual_over_rstar
    return a.d == rhs, a.d, rhs


def _colon_integrally_closed(a: Analysis) -> bool:
    closed = integral_closure(a.r_colon_lambda) == a.r_colon_lambda
    if closed != (a.r_colon_lambda == a.r_filter_i0):
        raise InvariantViolation("integral closedness of the colon must mean "
                                 "it is a full value filter")
    return closed


@_statement("Prop4.3.4", hypothesis=_colon_integrally_closed, level="lambda")
def _(a):
    return a.d == 0, a.d, 0


@_statement("Thm4.4.1", level="lambda",
            notes=lambda a: f"upper bound r*l(R/R:Lambda) = {a.r * a.len_r_over_rcolon}")
def _(a):
    rhs = a.sum_not_gamma - a.len_bidual_over_lambda - a.d
    return a.rho == rhs and a.rho <= a.r * a.len_r_over_rcolon, a.rho, rhs


@_statement("Thm4.4.2", level="lambda")
def _(a):
    head = sum(a.ring.ts.entries[i - 1] for i in range(1, a.i0 + 1))
    rhs = head - a.len_bidual_over_lambda + a.len_bidual_over_rstar
    return a.rho == rhs, a.rho, rhs


@_statement("Rmk4.5")
def _(a):
    extremal = a.rho == a.r * a.len_r_over_rcolon
    flat = all(a.ring.ts.entries[i - 1] == a.r for i in a.outside_gamma)
    rhs = flat and a.conditions.b1 and a.d == 0
    return extremal == rhs, extremal, rhs


@_statement("Cor4.6.1")
def _(a):
    lhs = a.e * a.nu + a.r * a.len_rcolon_over_power_nu
    rhs = (a.r + 1) * a.len_r_over_power_nu
    return lhs <= rhs, lhs, rhs


@_statement("Cor4.6.2", hypothesis=lambda a: a.h.symmetric)
def _(a):
    lhs = 2 * a.r * a.len_rcolon_over_power_nu
    rhs = (a.r - 1) * a.e * a.nu
    return lhs <= rhs, lhs, rhs


@_statement("Thm4.7.1")
def _(a):
    lhs = 2 * a.rho
    rhs = (a.e * a.nu + a.sum_not_gamma_excess - a.d
           - a.len_bidual_over_lambda - a.len_rcolon_over_power_nu)
    return lhs == rhs, lhs, rhs


@_statement("Thm4.7.2")
def _(a):
    flat = 2 * a.rho == a.e * a.nu + a.sum_not_gamma_excess
    tight = a.r_colon_is_power and a.d == 0
    return flat == tight, flat, tight


# ---- almost Gorenstein refinements ----


@_statement("Prop5.1", notes="probed on the tested ideal and the maximal ideal; "
                             "the maximal ideal alone decides the converse")
def _(a):
    matches = a.ideal_omega == a.ideal_bidual and a.ring.maximal_probe
    almost = a.ring.ring_class.almost_gorenstein
    return almost == matches, almost, matches


@_statement("Cor5.2", hypothesis=_almost_gorenstein, level="lambda")
def _(a):
    first = a.lam_bidual == a.omega_lambda and a.d == 0
    rhs = a.r - 1 + a.len_r_over_rcolon - a.len_bidual_over_lambda
    return first and a.rho == rhs, a.rho, rhs


@_statement("Thm5.3.1", hypothesis=_almost_gorenstein)
def _(a):
    lhs = 2 * a.rho
    rhs = (a.e * a.nu + a.r - 1
           - a.len_rcolon_over_power_nu - a.len_bidual_over_lambda)
    return lhs == rhs, lhs, rhs


@_statement("Thm5.3.2", hypothesis=_almost_gorenstein,
            notes="when the conditions hold, the canonical ideal "
                  "sits inside the blow-up")
def _(a):
    p1 = 2 * a.rho == a.e * a.nu + a.r - 1
    p2 = a.lambda_gorenstein and a.c - a.c_lambda == a.e * a.nu
    p3 = a.r_colon_is_power
    p4 = a.k_colon_lambda == a.power_nu
    ok = (p1 == p2 == p3 == p4) and (not p1 or a.conditions.a1)
    return ok, (p1, p2, p3, p4), None


@_statement("Cor5.4",
            hypothesis=lambda a: a.ring.ring_class.almost_gorenstein and a.h.symmetric)
def _(a):
    gap = a.len_rcolon_over_power_nu
    ok = gap <= a.r - 1 and ((gap == a.r - 1) == a.conditions.b1)
    return ok, gap, a.r - 1


@_statement("Cor5.5", hypothesis=lambda a: a.ring.ring_class.gorenstein and a.h.symmetric)
def _(a):
    ok = 2 * a.rho == a.e * a.nu + a.r - 1 and a.r_colon_is_power
    return ok, 2 * a.rho, a.e * a.nu + a.r - 1


@_statement("Cor5.6", hypothesis=_almost_gorenstein,
            notes="the conductor ideal of the ring is the one compared "
                  "against the nu-th power")
def _(a):
    conductor_is_power = a.ring.conductor_ideal == a.power_nu
    rhs = a.lam_is_normalization and 2 * a.delta == a.e * a.nu + a.r - 1
    return conductor_is_power == rhs, conductor_is_power, rhs


@_statement("Rmk5.8", hypothesis=_almost_gorenstein)
def _(a):
    refl = a.ideal_reflexive
    rhs = a.ideal_colon.contains(a.ring.dual_m)
    return refl == rhs, refl, rhs


@_statement("Thm5.9.1", hypothesis=_almost_gorenstein,
            notes="reflexivity of the powers; equivalent to both "
                  "closure-condition groups")
def _(a):
    c1 = a.lam_contains_dual_m
    # every power past nu is nuE translated and (E+z)** = E** + z, so the
    # powers from nu on are all reflexive or none is: one test reads all
    # three, and when nu = 1 it is the pair's own E** = E
    c2 = a.ideal_reflexive if a.nu == 1 else is_reflexive(a.power_nu)
    ok = c1 == c2 == a.conditions.a1 == a.conditions.b1
    return ok, (c1, c2, c2, c2), None


@_statement("Thm5.9.2",
            hypothesis=lambda a: a.ring.ring_class.almost_gorenstein and a.ideal_reflexive)
def _(a):
    ok = a.conditions.a1 and a.conditions.b1 and a.lam_contains_dual_m
    return ok, ok, None


# ---- the maximal-ideal case ----


@_statement("Rmk6.1", hypothesis=_maximal)
def _(a):
    rhs = length_between(a.ring.dual_m.shift(a.e), a.r_colon_lambda) + (a.e - a.r)
    ok = a.len_r_over_rcolon == rhs
    if a.ring.ring_class.almost_gorenstein:
        ok = ok and a.conditions.b1
    return ok, a.len_r_over_rcolon, rhs


@_statement("Rmk6.2", hypothesis=_maximal)
def _(a):
    # E = M, so E:E is M:M
    stable = a.lam == a.ideal_colon
    forms = (stable, a.e == a.mu, a.rho == a.e - 1, a.r == a.e - 1)
    return len(set(forms)) == 1, forms, None


@_statement("Prop6.3", hypothesis=lambda a: a.is_max_ideal and a.e == a.mu)
def _(a):
    almost = a.ring.ring_class.almost_gorenstein
    return almost == a.lambda_gorenstein, almost, a.lambda_gorenstein


@_statement("Lemma6.4.3", hypothesis=_maximal_r_is_e_minus_2,
            notes="the cube of the maximal ideal falls into its "
                  "multiplicity translate")
def _(a):
    return a.ring.m_ideal.shift(a.e).contains(a.power(3)), None, None


@_statement("Prop6.5.1", hypothesis=_maximal_r_is_e_minus_2)
def _(a):
    return a.e == a.mu + 1, a.e, a.mu + 1


@_statement("Prop6.5.2", hypothesis=_maximal_e_is_mu_plus_1)
def _(a):
    gap = length_between(a.ring.dual_m.shift(a.e), a.r_colon_lambda)
    return gap == 1, gap, 1


@_statement("Thm6.6", hypothesis=_maximal_e_is_mu_plus_1)
def _(a):
    rhs = a.r - 1 + (a.e - 1) * (a.nu - 2)
    return a.len_rcolon_over_power_nu == rhs, a.len_rcolon_over_power_nu, rhs


@_statement("Cor6.7.1", hypothesis=_maximal_e_is_mu_plus_1)
def _(a):
    lhs = a.r_colon_is_power
    rhs = a.ring.ring_class.gorenstein and a.nu == 2
    return lhs == rhs, lhs, rhs


@_statement("Cor6.7.2", hypothesis=_maximal_e_is_mu_plus_1)
def _(a):
    lhs = sum(a.ring.ts.entries[i - 1] - 1 for i in a.outside_gamma if i >= 2)
    rhs = a.d + a.len_bidual_over_lambda + (a.nu - 2)
    return lhs == rhs, lhs, rhs


@_statement("Cor6.7.3", hypothesis=_maximal_e_is_mu_plus_1)
def _(a):
    almost = a.ring.ring_class.almost_gorenstein
    rhs = a.nu == 2 and a.omega_lambda == a.lam
    return almost == rhs, almost, rhs


@_statement("Cor6.7u", hypothesis=_maximal)
def _(a):
    lhs = a.r == a.e - 2 and a.r_colon_is_power
    rhs = a.ring.ring_class.gorenstein and a.e == 3
    return lhs == rhs, lhs, rhs


@_statement("Rmk6.8", hypothesis=_maximal_nu_is_2)
def _(a):
    rhs = 2 * a.e - a.mu - 1
    return a.rho == rhs, a.rho, rhs


@_statement("Prop6.9.1", hypothesis=_maximal_nu_is_2)
def _(a):
    lhs = 2 * a.e + a.r * a.len_rcolon_over_power_nu
    rhs = (a.r + 1) * (a.mu + 1)
    return lhs <= rhs, lhs, rhs


@_statement("Prop6.9.2", hypothesis=lambda a: (a.is_max_ideal and a.nu == 2
                                               and a.ring.ring_class.almost_gorenstein),
            notes="with the Gorenstein and Kunz specializations folded in")
def _(a):
    lhs = 2 * (a.e - a.mu - 1)
    rhs = (a.r - 1) - a.len_rcolon_over_power_nu
    ok = lhs == rhs
    if a.ring.ring_class.gorenstein:
        ok = ok and a.e == a.mu + 1 and a.r_colon_is_power
    if a.ring.ring_class.kunz:
        ok = ok and a.e == a.mu + 1 and a.len_rcolon_over_power_nu == 1
    return ok, lhs, rhs


@_statement("Cor6.10", hypothesis=lambda a: a.is_max_ideal and a.ring.ring_class.gorenstein,
            notes="the colon is compared against the literal square, "
                  "not the nu-th power")
def _(a):
    forms = (a.e == a.mu + 1, a.nu == 2, a.r_colon_lambda == a.power(2))
    return len(set(forms)) == 1, forms, None


@_statement("Prop6.11", hypothesis=_maximal)
def _(a):
    lhs = a.ring.conductor_ideal == a.power(2)
    rhs = (a.lam_is_normalization
           and 2 * (a.e - a.mu - 1) == 2 * a.delta - a.c
           and a.nu == 2)
    return lhs == rhs, lhs, rhs


@_statement("Prop6.13.1", hypothesis=lambda a: a.is_max_ideal and a.nu == 3 and a.r == 2,
            notes="colon length taken over the cube, matching the "
                  "derivation from the general power inequality")
def _(a):
    hilbert2 = length_between(a.power(2), a.power(3))
    lhs = 3 * (a.e - a.mu - 1) + 2 * a.len_rcolon_over_power_nu
    rhs = 3 * hilbert2
    return lhs <= rhs, lhs, rhs


@_statement("Prop6.13.2", hypothesis=lambda a: a.is_max_ideal and a.nu == 3 and a.h.symmetric)
def _(a):
    lhs = a.r * a.len_rcolon_over_power_nu
    rhs = 3 * a.mu * (a.r - 1)
    return lhs <= rhs, lhs, rhs


@_statement("Prop6.13.3", hypothesis=lambda a: (a.is_max_ideal and a.nu == 3
                                                and a.ring.ring_class.almost_gorenstein))
def _(a):
    rhs = (a.len_rcolon_over_power_nu == a.r - 1 and a.e == 2 * a.mu)
    return a.h.symmetric == rhs, a.h.symmetric, rhs


@_statement("Cor6.14", hypothesis=lambda a: (a.is_max_ideal and a.ring.ring_class.almost_gorenstein
                                             and a.e == 2 * a.mu))
def _(a):
    lhs = a.r_colon_is_power
    rhs = 2 * a.rho == 2 * a.nu * a.mu + a.r - 1
    return lhs == rhs, lhs, rhs


def catalog_ids() -> tuple[str, ...]:
    return tuple(STATEMENTS)


def expand_statement_ids(requested) -> tuple[str, ...]:
    """Resolve exact ids and group prefixes like "Thm4.7" to catalog ids."""
    names: list[str] = []
    for raw in requested:
        sid = raw.strip()
        hits = [sid] if sid in STATEMENTS else [
            name for name in STATEMENTS if name.startswith(sid + ".") or name == sid + "u"]
        if not hits:
            raise UnknownStatement(f"no statement matches {sid!r}")
        names.extend(hits)
    return tuple(dict.fromkeys(names))


@lru_cache(maxsize=64)
def _resolved_ids(requested: tuple[str, ...]) -> tuple[str, ...]:
    """expand_statement_ids, once per distinct request."""
    return expand_statement_ids(requested)


def verify_statement(statement_id: str, e: ValueIdeal) -> TheoremVerdict:
    if statement_id not in STATEMENTS:
        raise UnknownStatement(f"no statement named {statement_id!r}")
    return STATEMENTS[statement_id](Analysis.of(e))


# the Lambda-level ids, whose verdicts verify_many shares per blow-up record
_SHARED = frozenset(sid for sid, level in LEVELS.items() if level == "lambda")


def verify_many(e: ValueIdeal, statement_ids=None) -> list[TheoremVerdict]:
    """Run several statements against one shared analysis.

    A Lambda-level verdict is one per (S, Lambda): it is read from the
    verdict store the pair's analysis hands on from its blow-up record
    (lambda_verdicts) when an earlier pair with that Lambda has made it,
    and otherwise made by STATEMENTS[sid] and stored.  Only the requested ids are evaluated, a pair's analysis has
    passed cross_check before any verdict is stored, and an evaluation
    that raises stores nothing.  The store keeps what the functions in
    STATEMENTS returned; replacing one of them needs ring.cache_clear().
    """
    names = catalog_ids() if statement_ids is None else _resolved_ids(tuple(statement_ids))
    shared = Analysis.of(e)
    store = shared.lambda_verdicts
    out = []
    for name in names:
        if name in _SHARED:
            v = store.get(name)
            if v is None:
                v = store[name] = STATEMENTS[name](shared)
        else:
            v = STATEMENTS[name](shared)
        out.append(v)
    return out
