"""Benchmark of sgblow's verify and analyze paths.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs passes of workload W, each in a fresh interpreter (bench/worker.py),
until S seconds of passes have run, then prints every end-to-end metric.
With ``--trace 1`` it runs one counting and one layer-by-layer pass
instead, and prints the per-layer metrics.  Times are rescaled to the
nominal speed of bench/refslice.py.  Workload and metric names and units
come from BENCHMARK.json.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  A copy of the result,
with raw times and sample counts, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, check: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if check:
        cmd.append("--check")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


def run_s(p: dict, key: str = "scaled") -> float:
    return sum(p[key].get("pair", []))


def correctness(passes: list[dict]) -> tuple[bool, list[str]]:
    """Every pass produced the same outputs, and the checked pass passed."""
    problems = [msg for p in passes for msg in p.get("problems", [])]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes disagree on the program's outputs")
    return not problems, problems


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Metrics at nominal speed, and the raw figures beside them."""
    metrics, raw = {}, {}
    for key in ("scaled", "raw"):
        setups = [x for p in passes for x in p[key]["setup"]]
        # every pass times the same pairs in the same order; a pair's time is
        # its median over the passes, so that neither a preempted pass nor a
        # pass in a fast phase the rescaling under-corrects sets it
        pairs = [statistics.median(times) for times in zip(*(p[key]["pair"] for p in passes))]
        out = metrics if key == "scaled" else raw
        out["setup_s"] = statistics.median(setups)
        out["run_s"] = statistics.median(run_s(p, key) for p in passes)
        out["pair_p50_ms"] = statistics.median(pairs) * 1e3
        out["pair_p90_ms"] = statistics.quantiles(pairs, n=10)[8] * 1e3
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in passes)
    raw["samples"] = {"setups": sum(len(p["raw"]["setup"]) for p in passes),
                      "pairs": len(passes[0]["raw"]["pair"]),
                      "passes": len(passes)}
    return metrics, raw


def per_layer(count: dict, layers: dict) -> dict:
    def total_ms(key):
        return sum(layers["scaled"].get(key, [])) * 1e3

    def setup_ms(key):
        return statistics.median(x for p in (count, layers)
                                 for x in p["scaled"][key]) * 1e3


    pairs = count["pairs"] - len(count["failures"])
    counts = count["counts"]
    return {
        "enumeration.semigroups_ms": setup_ms("setup.semigroups"),
        "enumeration.ideals_ms": setup_ms("setup.ideals"),
        "enumeration.semigroups": layers["walked"]["semigroups"],
        "enumeration.ideals": layers["walked"]["ideals"],
        "invariants.canonical_ideal_ms": total_ms("invariants.canonical_ideal"),
        "invariants.type_sequence_ms": total_ms("invariants.type_sequence"),
        "invariants.classify_ms": total_ms("invariants.classify"),
        "invariants.type_sequence_hit_ratio": count["hit_ratios"]["type_sequence"],
        "blowup.blowup_lambda_ms": total_ms("blowup.blowup_lambda"),
        "blowup.conditions_ms": total_ms("blowup.conditions"),
        "blowup.analyze_ms": total_ms("blowup.analyze"),
        "blowup.conditions_calls_per_pair": counts["blowup.check_conditions_a_b"] / pairs,
        "blowup.cache_hit_ratio": count["hit_ratios"]["blowup"],
        "statements.catalog_ms": total_ms("statements.catalog"),
        "statements.checked": layers["checked"],
        "core.add_us": count["op_us"].get("core.add", 0.0),
        "core.colon_us": count["op_us"].get("core.colon", 0.0),
        "core.length_between_us": count["op_us"].get("core.length_between", 0.0),
        "core.construct_us": count["op_us"].get("core.construct", 0.0),
        "core.add_per_pair": counts["core.add"] / pairs,
        "core.colon_per_pair": counts["core.colon"] / pairs,
        "core.construct_per_pair": counts["core.construct"] / pairs,
        "core.carrier_eq_per_pair": counts["core.carrier_eq"] / pairs,
        "parsing.format_ms": total_ms("parsing.format"),
        "report.document_ms": total_ms("report.document"),
        "suite.run_suite_ms": total_ms("suite.run_suite"),
        "trace.overhead_s": count["scaled"]["trace.overhead"][0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and waits for the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "sgblow" / "__init__.py").is_file():
        print(f"no sgblow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            passes = [run_worker(args.workload, args.seed, mode, mode == "layers")
                      for mode in ("count", "layers")]
            metrics, units, raw = per_layer(*passes), PER_LAYER, {}
        else:
            passes = []
            measured = 0.0
            while measured < args.seconds or len(passes) < MIN_PASSES:
                p = run_worker(args.workload, args.seed, "plain", check=not passes)
                passes.append(p)
                measured += p["wall_s"] - p.get("check_s", 0.0)
            metrics, raw = end_to_end(passes)
            units = END_TO_END
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    correct, problems = correctness(passes)
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    for name, unit in units.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{name:<38} {metrics[name]:>14.6g} {unit}{extra}")
    if raw:
        print(f"samples: {raw['samples']}")
    result = {
        "correct": correct,
        "attempted": sum(p["pairs"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(result, raw=raw, problems=problems,
                  failures=sorted({f for p in passes for f in p["failures"]}))
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
