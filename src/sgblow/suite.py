"""Batch verification of the statement catalog over enumerated universes.

The universe is every numerical semigroup up to a genus bound, paired with
ideals chosen by strategy: the maximal ideal only, every non-principal
ideal up to a generator bound, or a seeded random sample.  Work is split
by semigroup: each task receives the semigroup object itself, and texts
are made only for failure records and the random strategy's seed.  Tasks
are made lazily from the genus-tree walk and their results are folded in
enumeration order as they arrive, so the suite holds no list of the
universe or of its results (the walk itself holds the genus level it is
yielding and drops each parent once its children are made), and the
report is deterministic for a fixed config regardless of the worker count.
A task's pairs share one ring (invariants.ring), which with its records
is freed when the next task's semigroup takes the cache's one slot.
"""

from __future__ import annotations

import dataclasses
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool

from .core import NumericalSemigroup
from .enumeration import (
    default_generator_bound,
    enumerate_ideals,
    enumerate_semigroups,
    sample_ideals,
)
from .errors import InvariantViolation, SgblowError
from .parsing import format_ideal, format_semigroup
from .report import jsonable
from .statements import catalog_ids, expand_statement_ids, verify_many

STRATEGIES = ("maximal", "all", "random")
# the report's counts, in document order; each task returns one of each
TOTALS = ("semigroups", "pairs", "checked", "held", "vacuous", "failed")


@dataclass(frozen=True)
class SuiteConfig:
    max_genus: int
    ideal_strategy: str = "maximal"
    bound_offset: int = 0
    sample_size: int = 5
    seed: int = 0
    statements: tuple[str, ...] = ()
    # 0 or 1 runs in this process; more uses at most the machine's cores
    jobs: int = 0


@dataclass(frozen=True)
class SuiteReport:
    config: SuiteConfig
    statement_ids: tuple[str, ...]
    semigroups: int
    pairs: int
    checked: int
    held: int
    vacuous: int
    failed: int
    degenerate: tuple[dict, ...]
    failures: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_document(self) -> dict:
        # the worker count never shows in the document
        config = dataclasses.asdict(self.config)
        del config["jobs"]
        config["statements"] = list(config["statements"])
        totals = {name: getattr(self, name) for name in TOTALS}
        return {
            "config": config,
            "statement_ids": list(self.statement_ids),
            "totals": {**totals, "degenerate": len(self.degenerate)},
            "degenerate": [dict(d) for d in self.degenerate],
            "failures": [dict(f) for f in self.failures],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "SuiteReport":
        cfg = doc["config"]
        return cls(
            config=SuiteConfig(**{**cfg, "statements": tuple(cfg["statements"])}),
            statement_ids=tuple(doc["statement_ids"]),
            **{name: doc["totals"][name] for name in TOTALS},
            degenerate=tuple(doc["degenerate"]),
            failures=tuple(doc["failures"]),
        )


def _ideals_for(s, config: SuiteConfig):
    """The ideals paired with s; the "all" walk is handed over as it runs,
    so a task holds one of its ideals at a time."""
    if config.ideal_strategy == "maximal":
        if s.is_natural_numbers:
            return []
        return [s.maximal_ideal()]
    bound = default_generator_bound(s) + config.bound_offset
    if config.ideal_strategy == "all":
        return enumerate_ideals(s, bound=bound)
    rng = random.Random(f"{config.seed}|{format_semigroup(s)}")
    return sample_ideals(s, config.sample_size, rng, bound=bound)


def _suite_task(args: tuple[NumericalSemigroup, SuiteConfig, tuple[str, ...]]) -> dict:
    """Verify all selected statements for one semigroup; JSON-native result."""
    s, config, ids = args
    out = {**dict.fromkeys(TOTALS, 0), "semigroups": 1, "failures": []}

    def fail(ideal, statement_id, notes, lhs=None, rhs=None, witness=None):
        out["failed"] += 1
        out["failures"].append({
            "semigroup": format_semigroup(s), "ideal": format_ideal(ideal),
            "statement_id": statement_id, "lhs": jsonable(lhs),
            "rhs": jsonable(rhs), "witness": jsonable(witness), "notes": notes,
        })

    for ideal in _ideals_for(s, config):
        try:
            verdicts = verify_many(ideal, ids)
        except InvariantViolation as exc:
            # a failed internal check is a bug on this pair; record it and go on
            fail(ideal, type(exc).__name__, str(exc))
            continue
        out["pairs"] += 1
        out["checked"] += len(verdicts)
        for v in verdicts:
            if v.status == "failed":
                fail(ideal, v.statement_id, v.notes, v.lhs, v.rhs, v.witness)
            else:
                out[v.status] += 1
    return out


def run_suite(config: SuiteConfig) -> SuiteReport:
    if config.ideal_strategy not in STRATEGIES:
        raise ValueError(f"unknown ideal strategy {config.ideal_strategy!r}")
    if config.max_genus < 0:
        raise SgblowError(f"max genus must be >= 0, got {config.max_genus}")
    if config.sample_size < 0:
        raise SgblowError(f"sample size must be >= 0, got {config.sample_size}")
    if config.jobs < 0:
        raise SgblowError(f"jobs must be >= 0, got {config.jobs}")
    if config.statements:
        ids = tuple(expand_statement_ids(config.statements))
    else:
        ids = tuple(catalog_ids())
    tasks = ((s, config, ids) for s in enumerate_semigroups(config.max_genus))
    totals = dict.fromkeys(TOTALS, 0)
    failures: list[dict] = []
    workers = min(config.jobs, os.cpu_count() or 1)
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        # imap is ordered, so failures stay in breadth-first order
        for part in (pool.imap if workers > 1 else map)(_suite_task, tasks):
            failures.extend(part["failures"])
            for name in TOTALS:
                totals[name] += part[name]
    # an S other than N has a non-principal ideal with generators <= bound
    # exactly when its second minimal generator g2 is <= bound: {e, g2} is an
    # antichain, and below g2 M holds only multiples of e.  So a walk that met
    # no ideal at all was cut short by the offset.
    walks = config.ideal_strategy == "all" or (
        config.ideal_strategy == "random" and config.sample_size > 0)
    if walks and config.max_genus >= 1 and not totals["pairs"] and not failures:
        raise SgblowError(f"bound offset {config.bound_offset} leaves no ideal to walk "
                          f"up to genus {config.max_genus}")
    return SuiteReport(config=config, statement_ids=ids, **totals,
                       degenerate=(), failures=tuple(failures))
