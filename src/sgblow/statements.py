"""Catalog of checkable identities tying type sequences to blow-up data.

Each statement is declared once, by one _statement registration that
names its id, its hypothesis, its notes and its level and registers its
conclusion.  A hypothesis is a tuple of conjunct names, read in order
with the short-circuit of "and"; CONJUNCTS maps each name (like "E = m" or
"nu = 2") to a predicate that reads attributes of a shared Analysis bundle
(ring-level quantities on its a.ring), so no conjunct computes an ideal.
The two Lambda-level ones, "K in Lambda**" and "R:Lambda integrally
closed", read fields of the blow-up record, which checks each against its
second form when it is built.  A conclusion is a function of the bundle
too and returns (ok, lhs, rhs).  The registry, STATEMENTS, maps each id, in
catalog order, to the statement's one Statement record: its conjunct
names (requires), its conclusion, its notes (text, or a function of the
bundle), its level and its vacuous verdict.  A record is the whole
statement, so dataclasses.replace of it, put back under its id, changes
the statement on every route.  Called on the bundle, a record returns
its TheoremVerdict: held, failed, or vacuous when a conjunct fails.  A
verdict is an immutable tuple record, and the vacuous verdict of a
statement is one shared object, built at registration.  Inequalities and
identities are evaluated in exact integer arithmetic; fractional forms
are cross-multiplied so nothing ever rounds.

One routine, _walk, makes every verdict, and wraps every error, for a
list of ids over one pair, reading each statement's record and nothing
else.  It reads each statement's conjuncts in order through one memo of
conjunct values, kept for the walk, and stops at the first false one; so
it evaluates each conjunct at most once, where "and" would first read it,
and the short-circuits and the first error raised are those of evaluating
each statement in turn.  A statement whose hypothesis fails gets its
vacuous verdict without any call; any other calls its conclusion
directly.  verify_many walks the requested ids once per pair, and
STATEMENTS[sid] walks sid alone, so both give the same verdicts and
raise the same first error.

A statement's level says what it reads.  It is "lambda"-level when it
reads only what is one per (S, Lambda): the blow-up record's quantities
(A1 and B1 among them), rho (checked against l(Lambda/R) when the pair is
built), r, a.ring and the notation of S.  Those nine, Prop4.2,
Prop4.3.1-4.3.4, Thm4.4.1, Thm4.4.2, Rmk4.5 and Cor5.2, are
"lambda"-level.  It is "class"-level when it reads, besides those, only
facts fixed by the record of E's translation class E - min E: E:E,
whether E is reflexive, whether K + E = E**, whether nuE is reflexive,
and nu.  Those four, Prop5.1, Rmk5.8, Thm5.9.1 and Thm5.9.2, are
"class"-level.  Every other statement is "pair"-level: it reads A4, e, the
powers of E or a length against nuE, which a translation changes, even
where its verdict happens to be the same across a class.  verify_many
makes each Lambda-level verdict once per blow-up record and hands it to
every later pair with that Lambda, and each class-level verdict once per
translation record and hands it to every later translate of E.  Each
record's verdict store is keyed by the Statement record itself, so a
replaced record misses it and is walked, on a warm ring too, and the
original, put back, finds its own verdicts again.  STATEMENTS[sid](a)
itself always evaluates afresh.  The levels are declared, not derived at
import; a test derives each from the attribute names its statement's code
reads and pins the declared level to it.

Statement ids follow the external naming contract (Thm4.7.1, Prop6.9.2, ...).
A bare group id like "Thm4.7" expands to all of its parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .blowup import Analysis
from .core import ValueIdeal, length_between
from .errors import InvariantViolation, SgblowError, UnknownStatement


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


# every conjunct a hypothesis may name, each a read of the bundle
CONJUNCTS: dict[str, Callable[[Analysis], bool]] = {
    "E = m": lambda a: a.is_max_ideal,
    "almost Gorenstein": lambda a: a.ring.ring_class.almost_gorenstein,
    "Gorenstein": lambda a: a.ring.ring_class.gorenstein,
    "H symmetric": lambda a: a.h.symmetric,
    "E reflexive": lambda a: a.ideal_reflexive,
    "R:Lambda = nuE": lambda a: a.r_colon_is_power,
    "e = mu": lambda a: a.e == a.mu,
    "e = mu + 1": lambda a: a.e == a.mu + 1,
    "e = 2mu": lambda a: a.e == 2 * a.mu,
    "r = e - 2": lambda a: a.r == a.e - 2,
    "r = 2": lambda a: a.r == 2,
    "nu = 2": lambda a: a.nu == 2,
    "nu = 3": lambda a: a.nu == 3,
    "K in Lambda**": lambda a: a.k_in_lam_bidual,
    "R:Lambda integrally closed": lambda a: a.r_colon_integrally_closed,
}

_new_tuple = tuple.__new__


@dataclass(frozen=True, slots=True, eq=False)
class Statement:
    """One catalog statement: its id, the conjunct names of its hypothesis,
    its conclusion a -> (ok, lhs, rhs), its notes (text, or a function of
    the bundle), its level and its one vacuous verdict.

    Calling it on an Analysis walks the statement alone, afresh: no verdict
    store is read or kept.  The walk reads the record registered under sid,
    so a replacement made with dataclasses.replace takes effect, on this
    route and every other, once it is put back into STATEMENTS.  Equality
    and hash are those of identity (eq=False), so a record is a cheap key
    of the verdict store.
    """

    sid: str
    requires: tuple[str, ...]
    conclusion: Callable[[Analysis], tuple]
    notes: str | Callable[[Analysis], str]
    level: str
    vacuous: TheoremVerdict

    def __call__(self, a: Analysis) -> TheoremVerdict:
        return _walk((self.sid,), a, {}, {})[0]


STATEMENTS: dict[str, Statement] = {}


def _statement(sid: str, hypothesis: tuple[str, ...] = (),
               notes: str | Callable[[Analysis], str] = "", level: str = "pair"):
    """Register a conclusion a -> (ok, lhs, rhs) in STATEMENTS[sid], the
    statement's one Statement record.

    hypothesis names the conjuncts, in the order "and" reads them; none
    means the statement applies to every pair.  STATEMENTS[sid](a) is the
    statement's one vacuous verdict when a conjunct is false, and otherwise
    a held or failed verdict that carries lhs, rhs and the notes, which may
    be a function of a.  "lambda" as the level declares that conjuncts,
    conclusion and notes read only the blow-up record's quantities, rho, r,
    a.ring and the notation of S, so that the verdict is one per
    (S, Lambda); "class" that they read only those and E:E, E reflexive,
    K + E = E**, nuE reflexive and nu, so that the verdict is one per
    translation class of E; "pair" is every other statement.
    """
    def register(conclusion):
        STATEMENTS[sid] = Statement(sid, hypothesis, conclusion, notes, level,
                                    TheoremVerdict(sid, False, True, "vacuous"))
        return conclusion

    return register


def _walk(ids, a: Analysis, lambda_store: dict, class_store: dict) -> list[TheoremVerdict]:
    """The verdicts of ids on a, in order: the one routine that makes a
    verdict, reading nothing of a statement but its record in STATEMENTS.
    verify_many walks the requested ids with the pair's two verdict stores,
    its blow-up record's and its translation class's; a record called alone
    walks its id with empty ones.

    A hypothesis is met when its conjuncts, read in order with the
    short-circuit of "and", all hold; a statement whose hypothesis fails
    gets its vacuous verdict with no call, any other calls its conclusion.
    The walk keeps the value of each conjunct it reads, so it evaluates
    each conjunct at most once, where "and" would first read it.  A
    Lambda-level verdict is read from lambda_store and a class-level one
    from class_store, keyed by the statement's record, when present, and
    put there when made; a pair-level statement costs one test of its
    level.  A SgblowError from a conjunct, a conclusion or the notes is a
    bug on the pair, since it passed its input check, and leaves as an
    InvariantViolation that names the statement being walked; an
    InvariantViolation, or any error outside SgblowError, passes unchanged.
    """
    values: dict[str, bool] = {}
    out = []
    try:
        for sid in ids:
            st = STATEMENTS[sid]
            shared = st.level != "pair"
            if shared:
                store = lambda_store if st.level == "lambda" else class_store
                hit = store.get(st)
                if hit is not None:
                    out.append(hit)
                    continue
            v = st.vacuous
            for name in st.requires:
                met = values.get(name)
                if met is None:
                    met = values[name] = CONJUNCTS[name](a)
                if not met:
                    break
            else:
                # v stays the vacuous verdict unless every conjunct holds.
                # The conclusion goes through a local: CPython 3.11 does not
                # specialize a method-style call on a slot attribute
                conclusion = st.conclusion
                ok, lhs, rhs = conclusion(a)
                note = st.notes
                if note.__class__ is not str:
                    note = note(a)
                # _new_tuple (tuple.__new__) skips the argument handling of
                # TheoremVerdict(...)
                if ok:
                    v = _new_tuple(TheoremVerdict,
                                   (sid, True, True, "held", lhs, rhs, None, note))
                else:
                    v = _new_tuple(TheoremVerdict, (sid, True, False, "failed", lhs, rhs,
                                                    {"lhs": lhs, "rhs": rhs}, note))
            if shared:
                store[st] = v
            out.append(v)
    except InvariantViolation:
        raise
    except SgblowError as exc:
        raise InvariantViolation(f"{sid} raised {type(exc).__name__}: {exc}") from exc
    return out


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


@_statement("Lemma3.4", hypothesis=("R:Lambda = nuE",),
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
    p3 = a.r_colon_is_power and a.conditions.a2
    p4 = a.r_colon_is_power and a.conditions.colon_inside_omega_dual
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


@_statement("Prop4.3.2", hypothesis=("K in Lambda**",), level="lambda")
def _(a):
    return a.d == 0, a.d, 0


@_statement("Prop4.3.3", level="lambda")
def _(a):
    tail = sum(a.ring.ts.entries[i - 1] for i in a.outside_gamma if i > a.i0)
    rhs = tail - a.len_bidual_over_rstar
    return a.d == rhs, a.d, rhs


@_statement("Prop4.3.4", hypothesis=("R:Lambda integrally closed",), level="lambda")
def _(a):
    return a.d == 0, a.d, 0


@_statement("Thm4.4.1", level="lambda",
            notes=lambda a: f"upper bound r*l(R/R:Lambda) = {a.r * a.len_r_over_rcolon}")
def _(a):
    rhs = a.sum_not_gamma - a.len_bidual_over_lambda - a.d
    return a.rho == rhs and a.rho <= a.r * a.len_r_over_rcolon, a.rho, rhs


@_statement("Thm4.4.2", level="lambda")
def _(a):
    head = sum(a.ring.ts.entries[:a.i0])
    rhs = head - a.len_bidual_over_lambda + a.len_bidual_over_rstar
    return a.rho == rhs, a.rho, rhs


@_statement("Rmk4.5", level="lambda")
def _(a):
    extremal = a.rho == a.r * a.len_r_over_rcolon
    flat = all(a.ring.ts.entries[i - 1] == a.r for i in a.outside_gamma)
    rhs = flat and a.lambda_reflexive and a.d == 0
    return extremal == rhs, extremal, rhs


@_statement("Cor4.6.1")
def _(a):
    lhs = a.e * a.nu + a.r * a.len_rcolon_over_power_nu
    rhs = (a.r + 1) * a.len_r_over_power_nu
    return lhs <= rhs, lhs, rhs


@_statement("Cor4.6.2", hypothesis=("H symmetric",))
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
                             "the maximal ideal alone decides the converse", level="class")
def _(a):
    matches = a.ideal_omega_is_bidual and a.ring.maximal_probe
    almost = a.ring.ring_class.almost_gorenstein
    return almost == matches, almost, matches


@_statement("Cor5.2", hypothesis=("almost Gorenstein",), level="lambda")
def _(a):
    first = a.lam_bidual == a.omega_lambda and a.d == 0
    rhs = a.r - 1 + a.len_r_over_rcolon - a.len_bidual_over_lambda
    return first and a.rho == rhs, a.rho, rhs


@_statement("Thm5.3.1", hypothesis=("almost Gorenstein",))
def _(a):
    lhs = 2 * a.rho
    rhs = (a.e * a.nu + a.r - 1
           - a.len_rcolon_over_power_nu - a.len_bidual_over_lambda)
    return lhs == rhs, lhs, rhs


@_statement("Thm5.3.2", hypothesis=("almost Gorenstein",),
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
            hypothesis=("almost Gorenstein", "H symmetric"))
def _(a):
    gap = a.len_rcolon_over_power_nu
    ok = gap <= a.r - 1 and ((gap == a.r - 1) == a.conditions.b1)
    return ok, gap, a.r - 1


@_statement("Cor5.5", hypothesis=("Gorenstein", "H symmetric"))
def _(a):
    ok = 2 * a.rho == a.e * a.nu + a.r - 1 and a.r_colon_is_power
    return ok, 2 * a.rho, a.e * a.nu + a.r - 1


@_statement("Cor5.6", hypothesis=("almost Gorenstein",),
            notes="the conductor ideal of the ring is the one compared "
                  "against the nu-th power")
def _(a):
    conductor_is_power = a.ring.conductor_ideal == a.power_nu
    rhs = a.lam_is_normalization and 2 * a.delta == a.e * a.nu + a.r - 1
    return conductor_is_power == rhs, conductor_is_power, rhs


@_statement("Rmk5.8", hypothesis=("almost Gorenstein",), level="class")
def _(a):
    refl = a.ideal_reflexive
    rhs = a.ideal_colon.contains(a.ring.dual_m)
    return refl == rhs, refl, rhs


@_statement("Thm5.9.1", hypothesis=("almost Gorenstein",),
            notes="reflexivity of the powers; equivalent to both "
                  "closure-condition groups", level="class")
def _(a):
    c1 = a.lam_contains_dual_m
    # every power past nu is nuE translated and (E+z)** = E** + z, so the
    # powers from nu on are all reflexive or none is: one test, kept once
    # per translation class of E, reads all three
    c2 = a.power_nu_reflexive
    # A1 and B1 are the blow-up record's, the same for every pair with Lambda
    ok = c1 == c2 == a.k_in_lambda == a.lambda_reflexive
    return ok, (c1, c2, c2, c2), None


@_statement("Thm5.9.2",
            hypothesis=("almost Gorenstein", "E reflexive"), level="class")
def _(a):
    ok = a.k_in_lambda and a.lambda_reflexive and a.lam_contains_dual_m
    return ok, ok, None


# ---- the maximal-ideal case ----


@_statement("Rmk6.1", hypothesis=("E = m",))
def _(a):
    rhs = length_between(a.ring.dual_m.shift(a.e), a.r_colon_lambda) + (a.e - a.r)
    ok = a.len_r_over_rcolon == rhs
    if a.ring.ring_class.almost_gorenstein:
        ok = ok and a.conditions.b1
    return ok, a.len_r_over_rcolon, rhs


@_statement("Rmk6.2", hypothesis=("E = m",))
def _(a):
    # E = M, so E:E is M:M
    stable = a.lam == a.ideal_colon
    forms = (stable, a.e == a.mu, a.rho == a.e - 1, a.r == a.e - 1)
    return len(set(forms)) == 1, forms, None


@_statement("Prop6.3", hypothesis=("E = m", "e = mu"))
def _(a):
    almost = a.ring.ring_class.almost_gorenstein
    return almost == a.lambda_gorenstein, almost, a.lambda_gorenstein


@_statement("Lemma6.4.3", hypothesis=("E = m", "r = e - 2"),
            notes="the cube of the maximal ideal falls into its "
                  "multiplicity translate")
def _(a):
    return a.ring.m_ideal.shift(a.e).contains(a.power(3)), None, None


@_statement("Prop6.5.1", hypothesis=("E = m", "r = e - 2"))
def _(a):
    return a.e == a.mu + 1, a.e, a.mu + 1


@_statement("Prop6.5.2", hypothesis=("E = m", "e = mu + 1"))
def _(a):
    gap = length_between(a.ring.dual_m.shift(a.e), a.r_colon_lambda)
    return gap == 1, gap, 1


@_statement("Thm6.6", hypothesis=("E = m", "e = mu + 1"))
def _(a):
    rhs = a.r - 1 + (a.e - 1) * (a.nu - 2)
    return a.len_rcolon_over_power_nu == rhs, a.len_rcolon_over_power_nu, rhs


@_statement("Cor6.7.1", hypothesis=("E = m", "e = mu + 1"))
def _(a):
    lhs = a.r_colon_is_power
    rhs = a.ring.ring_class.gorenstein and a.nu == 2
    return lhs == rhs, lhs, rhs


@_statement("Cor6.7.2", hypothesis=("E = m", "e = mu + 1"))
def _(a):
    lhs = sum(a.ring.ts.entries[i - 1] - 1 for i in a.outside_gamma if i >= 2)
    rhs = a.d + a.len_bidual_over_lambda + (a.nu - 2)
    return lhs == rhs, lhs, rhs


@_statement("Cor6.7.3", hypothesis=("E = m", "e = mu + 1"))
def _(a):
    almost = a.ring.ring_class.almost_gorenstein
    rhs = a.nu == 2 and a.conditions.a2
    return almost == rhs, almost, rhs


@_statement("Cor6.7u", hypothesis=("E = m",))
def _(a):
    lhs = a.r == a.e - 2 and a.r_colon_is_power
    rhs = a.ring.ring_class.gorenstein and a.e == 3
    return lhs == rhs, lhs, rhs


@_statement("Rmk6.8", hypothesis=("E = m", "nu = 2"))
def _(a):
    rhs = 2 * a.e - a.mu - 1
    return a.rho == rhs, a.rho, rhs


@_statement("Prop6.9.1", hypothesis=("E = m", "nu = 2"))
def _(a):
    lhs = 2 * a.e + a.r * a.len_rcolon_over_power_nu
    rhs = (a.r + 1) * (a.mu + 1)
    return lhs <= rhs, lhs, rhs


@_statement("Prop6.9.2", hypothesis=("E = m", "nu = 2", "almost Gorenstein"),
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


@_statement("Cor6.10", hypothesis=("E = m", "Gorenstein"),
            notes="the colon is compared against the literal square, "
                  "not the nu-th power")
def _(a):
    forms = (a.e == a.mu + 1, a.nu == 2, a.r_colon_lambda == a.power(2))
    return len(set(forms)) == 1, forms, None


@_statement("Prop6.11", hypothesis=("E = m",))
def _(a):
    lhs = a.ring.conductor_ideal == a.power(2)
    rhs = (a.lam_is_normalization
           and 2 * (a.e - a.mu - 1) == 2 * a.delta - a.c
           and a.nu == 2)
    return lhs == rhs, lhs, rhs


@_statement("Prop6.13.1", hypothesis=("E = m", "nu = 3", "r = 2"),
            notes="colon length taken over the cube, matching the "
                  "derivation from the general power inequality")
def _(a):
    lhs = 3 * (a.e - a.mu - 1) + 2 * a.len_rcolon_over_power_nu
    rhs = 3 * a.hilbert[2]
    return lhs <= rhs, lhs, rhs


@_statement("Prop6.13.2", hypothesis=("E = m", "nu = 3", "H symmetric"))
def _(a):
    lhs = a.r * a.len_rcolon_over_power_nu
    rhs = 3 * a.mu * (a.r - 1)
    return lhs <= rhs, lhs, rhs


@_statement("Prop6.13.3", hypothesis=("E = m", "nu = 3", "almost Gorenstein"))
def _(a):
    rhs = (a.len_rcolon_over_power_nu == a.r - 1 and a.e == 2 * a.mu)
    return a.h.symmetric == rhs, a.h.symmetric, rhs


@_statement("Cor6.14", hypothesis=("E = m", "almost Gorenstein", "e = 2mu"))
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


def verify_statement(statement_id: str, e: ValueIdeal | Analysis) -> TheoremVerdict:
    if statement_id not in STATEMENTS:
        raise UnknownStatement(f"no statement named {statement_id!r}")
    return STATEMENTS[statement_id](e if isinstance(e, Analysis) else Analysis(e))


def verify_many(e: ValueIdeal | Analysis, statement_ids=None) -> list[TheoremVerdict]:
    """Run several statements against one pair, in one walk of their records.

    e is an ideal, or the pair's Analysis, which is used as it is.  The walk
    evaluates each conjunct at most once for the pair, where "and" would
    first read it, and a statement whose hypothesis fails costs no call.
    A Lambda-level verdict is one per (S, Lambda): it is read from the
    verdict store the pair's analysis hands on from its blow-up record
    (lambda_verdicts) when an earlier pair with that Lambda has made it, and
    otherwise made and stored.  A class-level verdict is one per
    translation class of E, and is read from, or put into, the store of
    the class's record (class_verdicts) the same way.  Each store is keyed
    by the Statement record, so a record replaced in STATEMENTS is walked
    afresh and its verdicts are kept apart from the original's.  Only the
    requested ids are evaluated, a pair's analysis has passed cross_check
    before any verdict is stored, and an evaluation that raises stores
    nothing.
    """
    names = catalog_ids() if statement_ids is None else _resolved_ids(tuple(statement_ids))
    a = e if isinstance(e, Analysis) else Analysis(e)
    return _walk(names, a, a.lambda_verdicts, a.class_verdicts)
