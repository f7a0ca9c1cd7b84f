"""Batch verification of the statement catalog over enumerated universes.

The universe is every numerical semigroup up to a genus bound, paired with
ideals chosen by strategy: the maximal ideal only, every non-principal
ideal up to a generator bound, or a seeded random sample.  Work is split
by semigroup: each task receives the semigroup object itself, and texts
are made only for failure records and the random strategy's seed.  Results
are aggregated in enumeration order, so the report is deterministic for a
fixed config regardless of the worker count.
"""

from __future__ import annotations

import os
import random
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


@dataclass(frozen=True)
class SuiteConfig:
    max_genus: int
    ideal_strategy: str = "maximal"
    bound_offset: int = 0
    sample_size: int = 5
    seed: int = 0
    statements: tuple[str, ...] = ()
    jobs: int = 0

    def resolved_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        raw = os.environ.get("SGBLOW_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise SgblowError(f"SGBLOW_JOBS must be an integer, got {raw!r}") from None
        if jobs < 1:
            raise SgblowError(f"SGBLOW_JOBS must be >= 1, got {raw!r}")
        return jobs


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
        return {
            "config": {
                "max_genus": self.config.max_genus,
                "ideal_strategy": self.config.ideal_strategy,
                "bound_offset": self.config.bound_offset,
                "sample_size": self.config.sample_size,
                "seed": self.config.seed,
                "statements": list(self.config.statements),
            },
            "statement_ids": list(self.statement_ids),
            "totals": {
                "semigroups": self.semigroups,
                "pairs": self.pairs,
                "checked": self.checked,
                "held": self.held,
                "vacuous": self.vacuous,
                "failed": self.failed,
                "degenerate": len(self.degenerate),
            },
            "degenerate": [dict(d) for d in self.degenerate],
            "failures": [dict(f) for f in self.failures],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "SuiteReport":
        cfg = doc["config"]
        totals = doc["totals"]
        return cls(
            config=SuiteConfig(
                max_genus=cfg["max_genus"],
                ideal_strategy=cfg["ideal_strategy"],
                bound_offset=cfg["bound_offset"],
                sample_size=cfg["sample_size"],
                seed=cfg["seed"],
                statements=tuple(cfg["statements"]),
            ),
            statement_ids=tuple(doc["statement_ids"]),
            semigroups=totals["semigroups"],
            pairs=totals["pairs"],
            checked=totals["checked"],
            held=totals["held"],
            vacuous=totals["vacuous"],
            failed=totals["failed"],
            degenerate=tuple(doc["degenerate"]),
            failures=tuple(doc["failures"]),
        )


def _ideals_for(s, config: SuiteConfig):
    if config.ideal_strategy == "maximal":
        if s.is_natural_numbers:
            return []
        return [s.maximal_ideal()]
    bound = default_generator_bound(s) + config.bound_offset
    if config.ideal_strategy == "all":
        return list(enumerate_ideals(s, bound=bound))
    rng = random.Random(f"{config.seed}|{format_semigroup(s)}")
    return sample_ideals(s, config.sample_size, rng, bound=bound)


def _suite_task(args: tuple[NumericalSemigroup, SuiteConfig, tuple[str, ...]]) -> dict:
    """Verify all selected statements for one semigroup; JSON-native result."""
    s, config, ids = args
    out = {"pairs": 0, "checked": 0, "held": 0, "vacuous": 0, "failed": 0,
           "failures": []}

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
        for v in verdicts:
            out["checked"] += 1
            if v.status == "failed":
                fail(ideal, v.statement_id, v.notes, v.lhs, v.rhs, v.witness)
            elif v.status == "vacuous":
                out["vacuous"] += 1
            else:
                out["held"] += 1
    return out


def run_suite(config: SuiteConfig) -> SuiteReport:
    if config.ideal_strategy not in STRATEGIES:
        raise ValueError(f"unknown ideal strategy {config.ideal_strategy!r}")
    if config.sample_size < 0:
        raise SgblowError(f"sample size must be >= 0, got {config.sample_size}")
    if config.jobs < 0:
        raise SgblowError(f"jobs must be >= 0, got {config.jobs}")
    if config.statements:
        ids = tuple(expand_statement_ids(config.statements))
    else:
        ids = tuple(catalog_ids())
    tasks = [(s, config, ids) for s in enumerate_semigroups(config.max_genus)]
    jobs = config.resolved_jobs()
    if jobs > 1 and len(tasks) > 1:
        with Pool(jobs) as pool:
            partials = pool.map(_suite_task, tasks, chunksize=1)
    else:
        partials = [_suite_task(t) for t in tasks]

    pairs = checked = held = vacuous = failed = 0
    failures: list[dict] = []
    for part in partials:
        pairs += part["pairs"]
        checked += part["checked"]
        held += part["held"]
        vacuous += part["vacuous"]
        failed += part["failed"]
        failures.extend(part["failures"])
    return SuiteReport(
        config=config,
        statement_ids=ids,
        semigroups=len(tasks),
        pairs=pairs,
        checked=checked,
        held=held,
        vacuous=vacuous,
        failed=failed,
        degenerate=(),
        failures=tuple(failures),
    )
