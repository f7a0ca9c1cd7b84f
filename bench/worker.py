"""One pass of a workload in a fresh interpreter, so every pass starts cold.

    python3 bench/worker.py --workload W --seed N --mode plain|count|layers [--check]

The pass builds the inputs SETUPS times (timed), then processes every pair
once.  ``plain`` times each pair as a user's run would do it; ``count``
does the same work with the tracing wrappers installed; ``layers`` calls
each layer's public function in dependency order and times each call.
With ``--check`` the pass also runs the independent checks and the
``run_suite`` comparison, outside the timed region.  The last line of
standard output is one JSON object for bench/run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import sgblow  # noqa: E402
from sgblow.statements import STATEMENTS  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from refslice import Meter  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUPS = 5
# The caches as the program defines them, taken before any wrapper is installed.
CACHES = {"type_sequence": sgblow.type_sequence,
          "blowup": getattr(sys.modules["sgblow.blowup"], "_blowup_data", None)}


def run_setups(workload, specs, meter):
    inputs = None
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        inputs = workloads.build(workload, specs)
        meter.add("setup", time.perf_counter() - t0)
        for stage, (seconds, _) in inputs.walks.items():
            meter.add(f"setup.{stage}", seconds)
        meter.close()
    return inputs


def plain_pass(workload, inputs, ids, meter, tracer=None):
    """Time each pair as the user's path runs it; returns records and failures.

    With a tracer, counting is on only around each pair's work, and so is
    the bookkeeping of cache hits.
    """
    verify = workloads.verify_path(workload)
    process = workloads.process_verify if verify else workloads.process_analyze
    record = workloads.record_verify if verify else workloads.record_analyze
    records, failures = [], []
    perf = time.perf_counter
    for pair in inputs.pairs:
        if tracer:
            before = cache_infos()
            tracer.enabled = True
        t0 = perf()
        try:
            out = process(pair, ids)
        except sgblow.SgblowError as exc:
            out = exc
        raw = perf() - t0
        if tracer:
            tracer.enabled = False
            tracer.add_cache_calls(before, cache_infos())
        meter.add("pair", raw)
        meter.tick()
        if isinstance(out, sgblow.SgblowError):
            failures.append(f"{sgblow.format_ideal(pair.e)} over "
                            f"{sgblow.format_semigroup(pair.s)}: {type(out).__name__}")
        else:
            records.append(record(pair, out))
    meter.close()
    return records, failures


def layers_pass(workload, inputs, ids, meter):
    """Call each layer in dependency order, so cached callees leave each
    call's time close to that layer's own work."""
    verify = workloads.verify_path(workload)
    records, failures = [], []
    perf = time.perf_counter

    def timed(key, fn, *args, **kwargs):
        t0 = perf()
        result = fn(*args, **kwargs)
        meter.add(key, perf() - t0)
        return result

    for pair in inputs.pairs:
        s, e = pair.s, pair.e
        try:
            timed("invariants.canonical_ideal", sgblow.canonical_ideal, s)
            timed("invariants.type_sequence", sgblow.type_sequence, s)
            timed("invariants.classify", sgblow.classify, s)
            timed("blowup.blowup_lambda", sgblow.blowup_lambda, e)
            timed("blowup.conditions", sgblow.check_conditions_a_b, e)
            report = timed("blowup.analyze", sgblow.analyze, e)
        except sgblow.SgblowError as exc:
            failures.append(f"{sgblow.format_ideal(e)}: {type(exc).__name__}")
            continue
        if not verify:
            s_text = timed("parsing.format", sgblow.format_semigroup, s)
        e_text = timed("parsing.format", sgblow.format_ideal, e)
        analysis = sgblow.Analysis(report)
        verdicts = timed("statements.catalog",
                         lambda: [STATEMENTS[sid](analysis) for sid in ids])
        if verify:
            records.append(workloads.record_verify(pair, verdicts))
        else:
            doc = timed("report.document", lambda: sgblow.dumps_document(
                sgblow.analysis_document(analysis, verdicts, semigroup_text=s_text,
                                         ideal_text=e_text)))
            records.append(workloads.record_analyze(pair, doc))
        meter.tick()
    meter.close()
    return records, failures


SUITES = {"deep-maximal": (workloads.DEEP_GENUS, "maximal"),
          "wide-all": (workloads.WIDE_GENUS, "all")}


def run_checks(workload, inputs, records, failures, meter, jobs):
    """Independent checks, then run_suite's totals against the pass's tallies.

    The traced run times run_suite with jobs=1, like the workload; the
    other runs check with two workers to keep runs short.
    """
    max_genus, strategy = SUITES.get(workload, (0, None))
    problems = checks.check_records(workload, records, max_genus, inputs.ideal_specs)
    if strategy is not None:
        config = sgblow.SuiteConfig(max_genus=max_genus, ideal_strategy=strategy, jobs=jobs)
        meter.close()
        t0 = time.perf_counter()
        report = sgblow.run_suite(config)
        meter.add("suite.run_suite", time.perf_counter() - t0)
        meter.close()
        statuses = [st for rec in records for st in rec["statuses"]]
        tallies = {"pairs": len(records), "checked": len(statuses),
                   "held": statuses.count("held"), "vacuous": statuses.count("vacuous"),
                   "failed": statuses.count("failed"), "degenerate": len(failures)}
        totals = {"pairs": report.pairs, "checked": report.checked, "held": report.held,
                  "vacuous": report.vacuous, "failed": report.failed,
                  "degenerate": len(report.degenerate)}
        if totals != tallies:
            problems.append(f"run_suite totals {totals} differ from the pass's tallies {tallies}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # bench/run.py checks the name against BENCHMARK.json
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "count", "layers"))
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)

    if Path(sgblow.__file__).resolve().parent != (SRC / "sgblow").resolve():
        print(f"sgblow came from {sgblow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    specs = (workloads.large_conductor_specs(args.seed)
             if args.workload == "large-conductor" else None)
    ids = tuple(sgblow.catalog_ids())
    meter = Meter()
    inputs = run_setups(args.workload, specs, meter)

    tracer = None
    if args.mode == "count":
        tracer = Tracer()
        tracer.install()
    if args.mode == "layers":
        records, failures = layers_pass(args.workload, inputs, ids, meter)
    else:
        records, failures = plain_pass(args.workload, inputs, ids, meter, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    out = {
        "pairs": len(inputs.pairs),
        "failures": failures,
        "rss_mb": rss_mb,
        "digest": hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest(),
        "walked": {stage: count for stage, (_, count) in inputs.walks.items()},
        "checked": sum(len(rec["statuses"]) for rec in records),
    }
    if tracer:
        factor = statistics.median(meter.factors())
        out["counts"] = {key: tracer.count(key) for key in
                         [*tracer.counts, *tracer.durations]}
        out["op_us"] = {key: statistics.median(d) * 1e6 * factor
                        for key, d in tracer.durations.items() if d}
        out["hit_ratios"] = {key: hits / calls if calls else 0.0
                             for key, (hits, calls) in tracer.cache_calls.items()}
        # a segment of its own, so that the slices around it rescale it
        meter.add("trace.overhead", tracer.overhead_s())
        meter.close()
    if args.check:
        t0 = time.perf_counter()
        out["problems"] = run_checks(args.workload, inputs, records, failures, meter,
                                     jobs=1 if args.mode == "layers" else 2)
        out["check_s"] = time.perf_counter() - t0
    out["raw"], out["scaled"] = meter.rescaled()
    print(json.dumps(out))
    return 0


def cache_infos() -> dict:
    """(hits, misses) of the type-sequence cache and of the blow-up cache, where
    the program has them."""
    out = {}
    for key, fn in CACHES.items():
        info = getattr(fn, "cache_info", None)
        if info is not None:
            i = info()
            out[key] = (i.hits, i.misses)
    return out


if __name__ == "__main__":
    sys.exit(main())
