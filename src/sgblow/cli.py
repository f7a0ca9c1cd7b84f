"""Command line front end.

Verbs: analyze one (semigroup, ideal) pair, verify the statement catalog
over an enumerated universe, enumerate semigroups by genus, or replay the
stored worked examples.  Each verb builds its canonical document once and
writes it as canonical JSON or as text rendered from that document, so
both forms carry the same numbers.  Exit codes: 0 clean, 1 input grammar,
2 domain precondition, 3 at least one failed check or internal cross-check.
"""

from __future__ import annotations

import argparse
import sys

from .blowup import Analysis
from .errors import GrammarError, InvariantViolation, SgblowError, UnknownStatement
from .fixtures import FIXTURES, evaluate_fixture
from .invariants import classify, type_sequence
from .parsing import (
    format_cofinite_set,
    format_semigroup,
    parse_ideal,
    parse_semigroup,
)
from .report import analysis_document, dumps_document, jsonable
from .statements import verify_many
from .suite import STRATEGIES, SuiteConfig, run_suite


def _render_analysis_text(doc: dict) -> str:
    s = doc["semigroup"]
    ideal = doc["ideal"]
    hil = doc["hilbert"]
    blow = doc["blowup"]
    lam_gor = 2 * blow["delta_lambda"] == blow["c_lambda"]
    lines = [
        f"semigroup  {format_cofinite_set(s['small_elements'][:-1], s['c'])}"
        f"  = <{','.join(map(str, s['generators']))}>",
        f"  c = {s['c']}  delta = {s['delta']}"
        f"  class = {s['class']['label']} (type {s['class']['cm_type']})",
        f"  type sequence = {list(s['type_sequence'])}",
        f"ideal  {doc['input']['ideal'] or 'ideal'}"
        f"  generators = {list(ideal['generators'])}"
        f"  set = {format_cofinite_set(ideal['elements'], ideal['cofinite_from'])}",
        f"hilbert  H = {list(hil['H'])}  h = {list(hil['h'])}",
        f"  e = {hil['e']}  nu = {hil['nu']}  rho = {hil['rho']}",
        f"blow-up  lambda = "
        f"{format_cofinite_set(blow['lambda_small_elements'], blow['c_lambda'])}"
        f"  gorenstein = {lam_gor}",
        f"  c_lambda = {blow['c_lambda']}"
        f"  delta_lambda = {blow['delta_lambda']}",
        f"  R:lambda = {format_cofinite_set(blow['r_colon_lambda']['elements'], blow['r_colon_lambda']['cofinite_from'])}",
        f"  gamma = {list(blow['gamma_set'])}  d = {blow['d']}",
    ]
    for v in doc["verdicts"]:
        mark = {"held": "ok", "vacuous": "--", "failed": "FAIL"}[v["status"]]
        extra = ""
        if v["status"] == "failed":
            extra = f"  lhs={v['lhs']} rhs={v['rhs']}"
        lines.append(f"verdict  {v['statement_id']:<12} {mark}{extra}")
    return "\n".join(lines) + "\n"


def _render_suite_text(doc: dict) -> str:
    t = doc["totals"]
    cfg = doc["config"]
    lines = [
        f"universe  genus <= {cfg['max_genus']}"
        f"  strategy = {cfg['ideal_strategy']}  seed = {cfg['seed']}",
        f"semigroups = {t['semigroups']}  pairs = {t['pairs']}"
        f"  degenerate = {t['degenerate']}",
        f"checked = {t['checked']}  held = {t['held']}"
        f"  vacuous = {t['vacuous']}  failed = {t['failed']}",
    ]
    for f in doc["failures"]:
        lines.append(f"FAIL {f['statement_id']}  S = {f['semigroup']}"
                     f"  I = {f['ideal']}  lhs={f['lhs']} rhs={f['rhs']}")
    return "\n".join(lines) + "\n"


def _enumerate_rows(max_genus: int) -> list[dict]:
    from .enumeration import enumerate_semigroups

    rows = []
    for s in enumerate_semigroups(max_genus):
        rc = classify(s)
        if s.is_natural_numbers:
            ts_entries: list[int] = []
        else:
            ts_entries = list(type_sequence(s).entries)
        rows.append({
            "semigroup": format_semigroup(s),
            "generators": list(s.min_generators),
            "genus": s.genus,
            "c": s.conductor,
            "e": s.multiplicity,
            "mu": s.embedding_dimension,
            "cm_type": rc.cm_type,
            "class": rc.label,
            "type_sequence": ts_entries,
        })
    return rows


def _render_enumerate_text(doc: dict) -> str:
    rows = doc["semigroups"]
    lines = []
    for r in rows:
        gens = "<" + ",".join(map(str, r["generators"])) + ">"
        lines.append(
            f"g={r['genus']}  c={r['c']}  e={r['e']}  mu={r['mu']}"
            f"  type={r['cm_type']}  {r['class']:<17} {gens}"
            f"  {r['semigroup']}")
    lines.append(f"total = {len(rows)}")
    return "\n".join(lines) + "\n"


def _examples_document() -> dict:
    rows = []
    fixtures_passed = 0
    for f in FIXTURES:
        results = evaluate_fixture(f)
        fixtures_passed += all(r.ok for r in results)
        for r in results:
            rows.append({
                "fixture": r.fid,
                "ideal": r.ideal,
                "check": r.check,
                "expected": jsonable(r.expected),
                "actual": jsonable(r.actual),
                "ok": r.ok,
            })
    return {"checks": rows,
            "fixtures_passed": fixtures_passed,
            "fixtures_total": len(FIXTURES)}


def _render_examples_text(doc: dict) -> str:
    lines = []
    for r in doc["checks"]:
        mark = "ok " if r["ok"] else "FAIL"
        lines.append(f"{mark} {r['fixture']} {r['ideal']:<15}"
                     f" {r['check']:<28} expected={r['expected']}"
                     + ("" if r["ok"] else f" actual={r['actual']}"))
    lines.append(f"{doc['fixtures_passed']}/{doc['fixtures_total']} fixtures pass")
    return "\n".join(lines) + "\n"


def _emit(args, doc: dict, render_text) -> None:
    """Write doc as canonical JSON, or as render_text(doc), by --format, to
    --out or stdout."""
    text = dumps_document(doc) if args.format == "json" else render_text(doc)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            # a path that cannot be written is bad input, not a crash
            raise SgblowError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _statement_list(text: str) -> tuple[str, ...]:
    """The items of a comma-separated --statements value, blanks stripped
    and empty ones dropped."""
    return tuple(x for x in map(str.strip, text.split(",")) if x)


def _cmd_analyze(args) -> int:
    s = parse_semigroup(args.semigroup)
    ideal = parse_ideal(args.ideal, s)
    a = Analysis.of(ideal)
    verdicts = verify_many(a, _statement_list(args.statements))
    doc = analysis_document(a, verdicts, semigroup_text=args.semigroup,
                            ideal_text=args.ideal)
    _emit(args, doc, _render_analysis_text)
    return 3 if any(v.status == "failed" for v in verdicts) else 0


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        max_genus=args.max_genus,
        ideal_strategy=args.ideals,
        bound_offset=args.bound_offset,
        sample_size=args.sample_size,
        seed=args.seed,
        statements=_statement_list(args.statements),
        jobs=args.jobs,
    )
    report = run_suite(config)
    _emit(args, report.to_document(), _render_suite_text)
    return 0 if report.ok else 3


def _cmd_enumerate(args) -> int:
    if args.max_genus < 0:
        raise SgblowError(f"max genus must be >= 0, got {args.max_genus}")
    _emit(args, {"semigroups": _enumerate_rows(args.max_genus)}, _render_enumerate_text)
    return 0


def _cmd_examples(args) -> int:
    doc = _examples_document()
    _emit(args, doc, _render_examples_text)
    return 0 if doc["fixtures_passed"] == doc["fixtures_total"] else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sgblow",
        description="numerical semigroup blow-up and type sequence toolkit")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", default=None, help="write report to a file")

    sp = sub.add_parser("analyze", help="analyze one semigroup and ideal")
    sp.add_argument("semigroup", help="e.g. '<10,16,95,99>' or '{0,4,7->}'")
    sp.add_argument("--ideal", default="m",
                    help="'m', 'm^k' or 'ideal(v1,v2,...)'")
    sp.add_argument("--statements", default="",
                    help="comma-separated statement ids to check")
    common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("verify", help="run the statement suite")
    sp.add_argument("--max-genus", type=int, default=6)
    sp.add_argument("--ideals", choices=STRATEGIES, default="maximal")
    sp.add_argument("--bound-offset", type=int, default=0)
    sp.add_argument("--sample-size", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--statements", default="")
    sp.add_argument("--jobs", type=int, default=0,
                    help="worker processes, at most the machine's cores; "
                         "0 or 1 runs in this process")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("enumerate", help="list semigroups by genus")
    sp.add_argument("--max-genus", type=int, default=6)
    common(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("examples", help="replay the stored worked examples")
    common(sp)
    sp.set_defaults(func=_cmd_examples)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GrammarError, UnknownStatement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal check failed (a bug): {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except SgblowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
