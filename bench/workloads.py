"""Workload inputs and the per-pair work the benchmark times.

Inputs are built through sgblow's public API only.  ``build`` is the timed
set-up; ``process`` is the timed work for one (semigroup, ideal) pair;
``record`` reads the pair's results back as plain data for the checkers,
outside the timed region.
"""

from __future__ import annotations

import json
import random
import time

import sgblow
from sgblow.statements import STATEMENTS

import checks

DEEP_GENUS = 12
WIDE_GENUS = 6

# large-conductor: fixed semigroups, so that run time depends on the code
# and not on which semigroups a seed happens to draw; the seed draws the
# ideals.  Each entry is (generators, number of random ideals).  Nine
# semigroups with conductors 90 to 142 and embedding dimensions 2 to 4
# carry most pairs; <17,26>, with conductor 400, carries the huge windows.
# Work on windows of a few hundred changes speed in phases that the
# reference slice does not follow, so only its two pairs lie above the 90th
# percentile and its share of run_s stays near a half.
LARGE_SEMIGROUPS = (
    ((13, 20, 22), 12),
    ((14, 19, 25), 11),
    ((13, 16, 24), 11),
    ((14, 22, 23), 11),
    ((13, 21, 23), 11),
    ((15, 19, 23, 31), 11),
    ((11, 13), 10),
    ((12, 19, 29), 11),
    ((12, 29, 37), 11),
    ((17, 26), 1),
)


class Pair:
    __slots__ = ("s", "e", "s_index")

    def __init__(self, s, e, s_index):
        self.s = s
        self.e = e
        self.s_index = s_index


class Inputs:
    """The pairs of one workload.

    ``walks`` gives, for the genus-tree walk and the ideal walk, the raw
    seconds the set-up spent in it and the number of items it yielded.
    """

    def __init__(self, pairs, walks, ideal_specs=None):
        self.pairs = pairs
        self.walks = walks
        self.ideal_specs = ideal_specs


def large_conductor_specs(seed: int) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Generators of each semigroup and of its random ideals, from the seed.

    An ideal of multiplicity a inside the maximal ideal is non-principal
    exactly when it has a generator v with v - a outside S: a nonzero member
    of the Apery set of a.  Ideal j is generated by a, the j-th Apery member
    and one of the next three, drawn by the seed.  The smallest generator
    after a sets most of an ideal's cost, so every seed gets ideals of
    alike cost and the work of a pass hardly depends on the seed.  A
    semigroup with one ideal draws its Apery member from the upper half,
    where the cost is flattest.  Membership comes from the benchmark's own
    closure.
    """
    rng = random.Random(seed)
    specs = []
    for gens, count in LARGE_SEMIGROUPS:
        members, conductor = checks.closure_of_generators(gens)
        a = gens[0]
        apery = [v for v in range(a + 1, conductor + a)
                 if (v >= conductor or v in members)
                 and not (v - a >= conductor or v - a in members)]
        if count == 1:
            ideals = [(a, rng.choice(apery[len(apery) // 2:]))]
        else:
            ideals = [tuple(sorted({a, v, rng.choice(apery[j + 1:j + 4] or [v])}))
                      for j, v in enumerate(apery[:count])]
        specs.append((gens, ideals))
    return specs


def build(workload: str, specs=None) -> Inputs:
    """Build the workload's pairs through the public API."""
    if workload == "large-conductor":
        pairs = []
        for i, (gens, ideals) in enumerate(specs):
            s = sgblow.NumericalSemigroup.from_generators(gens)
            pairs.append(Pair(s, s.maximal_ideal(), i))
            pairs.extend(Pair(s, sgblow.ValueIdeal.generated_by(s, v), i) for v in ideals)
        return Inputs(pairs, {"semigroups": (0.0, 0), "ideals": (0.0, 0)}, ideal_specs=specs)
    t0 = time.perf_counter()
    semigroups = list(sgblow.enumerate_semigroups(
        DEEP_GENUS if workload == "deep-maximal" else WIDE_GENUS))
    t1 = time.perf_counter()
    if workload == "deep-maximal":
        pairs = [Pair(s, s.maximal_ideal(), i) for i, s in enumerate(semigroups)
                 if not s.is_natural_numbers]
        ideals = (0.0, 0)
    else:
        pairs = [Pair(s, e, i) for i, s in enumerate(semigroups)
                 for e in sgblow.enumerate_ideals(s)]
        ideals = (time.perf_counter() - t1, len(pairs))
    return Inputs(pairs, {"semigroups": (t1 - t0, len(semigroups)), "ideals": ideals})


def verify_path(workload: str) -> bool:
    """deep-maximal and wide-all take the suite's path, large-conductor `analyze`'s."""
    return workload != "large-conductor"


def process_verify(pair: Pair, ids) -> list:
    """What the suite's per-semigroup task does for one ideal."""
    sgblow.format_ideal(pair.e)
    return sgblow.verify_many(pair.e, ids)


def process_analyze(pair: Pair, ids) -> str:
    """What `sgblow analyze --format json --statements <all>` does for one pair."""
    s_text = sgblow.format_semigroup(pair.s)
    e_text = sgblow.format_ideal(pair.e)
    analysis = sgblow.Analysis.of(pair.e)
    verdicts = [STATEMENTS[sid](analysis) for sid in ids]
    doc = sgblow.analysis_document(analysis, verdicts, semigroup_text=s_text,
                                   ideal_text=e_text)
    return sgblow.dumps_document(doc)


def record_verify(pair: Pair, verdicts) -> dict:
    """Plain-data results of a verify-path pair, read back through the public API."""
    s = pair.s
    lam = sgblow.blowup_lambda(pair.e)
    h = sgblow.h_polynomial(pair.e)
    return {
        "s_index": pair.s_index,
        "s_small": list(s.small_elements),
        "c": s.conductor,
        "genus": s.genus,
        "type_sequence": list(sgblow.type_sequence(s).entries),
        "gorenstein": sgblow.classify(s).gorenstein,
        "e_members": list(pair.e.members),
        "e_frontier": pair.e.frontier,
        "lam_members": list(lam.members),
        "lam_frontier": lam.frontier,
        "nu": h.nu,
        "rho": h.rho,
        "statuses": [v.status for v in verdicts],
    }


def record_analyze(pair: Pair, text: str) -> dict:
    """Plain-data results of an analyze-path pair, read from its JSON document."""
    doc = json.loads(text)
    sg = doc["semigroup"]
    return {
        "s_index": pair.s_index,
        "s_small": sg["small_elements"],
        "c": sg["c"],
        "genus": sg["delta"],
        "type_sequence": sg["type_sequence"],
        "gorenstein": sg["class"]["gorenstein"],
        "e_members": doc["ideal"]["elements"],
        "e_frontier": doc["ideal"]["cofinite_from"],
        "lam_members": doc["blowup"]["lambda_small_elements"],
        "lam_frontier": doc["blowup"]["c_lambda"],
        "nu": doc["hilbert"]["nu"],
        "rho": doc["hilbert"]["rho"],
        "statuses": [v["status"] for v in doc["verdicts"]],
    }
