"""Call counting for the traced run only.

Wraps public functions and methods of sgblow from the benchmark's side:
every module of the package that holds a reference to a wrapped function
gets the wrapper, and methods are replaced on their class.  Counting is
switched on only around the work of a pair, so the benchmark's own reads
of results are not counted.  The timed runs never install it.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

# (class name in sgblow.core, method, metric key); every call is timed.
TIMED_METHODS = (
    ("ValueIdeal", "__add__", "core.add"),
    ("ValueIdeal", "colon", "core.colon"),
    ("ValueIdeal", "__init__", "core.construct"),
)
COUNTED_METHODS = (
    ("NumericalSemigroup", "__eq__", "core.carrier_eq"),
)
TIMED_FUNCTIONS = (("length_between", "core.length_between"),)
COUNTED_FUNCTIONS = (
    ("canonical_ideal", "invariants.canonical_ideal"),
    ("type_sequence", "invariants.type_sequence"),
    ("classify", "invariants.classify"),
    ("blowup_lambda", "blowup.blowup_lambda"),
    ("check_conditions_a_b", "blowup.check_conditions_a_b"),
    ("analyze", "blowup.analyze"),
)
# The wrapper-cost probe: the median over PROBE_ROUNDS blocks of PROBE_CALLS calls.
PROBE_CALLS = 20000
PROBE_ROUNDS = 9


class Tracer:
    """Installs counting wrappers; ``enabled`` gates what they record."""

    def __init__(self):
        self.enabled = False
        self.counts: dict[str, int] = {}
        self.durations: dict[str, array] = {}
        self.cache_calls = {"type_sequence": (0, 0), "blowup": (0, 0)}
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, fn, key: str, timed: bool):
        perf = time.perf_counter
        if timed:
            durations = self.durations.setdefault(key, array("d"))

            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                t0 = perf()
                result = fn(*args, **kwargs)
                durations.append(perf() - t0)
                return result
        else:
            counts = self.counts
            counts.setdefault(key, 0)

            def wrapper(*args, **kwargs):
                if self.enabled:
                    counts[key] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        import sgblow
        core = sys.modules["sgblow.core"]
        for cls_name, method, key, timed in (
                [(*m, True) for m in TIMED_METHODS] + [(*m, False) for m in COUNTED_METHODS]):
            cls = getattr(core, cls_name)
            self._replace(cls, method, self._wrapper(getattr(cls, method), key, timed))
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sgblow" or name.startswith("sgblow."))]
        for name, key, timed in ([(*f, True) for f in TIMED_FUNCTIONS]
                                 + [(*f, False) for f in COUNTED_FUNCTIONS]):
            original = getattr(sgblow, name)
            wrapper = self._wrapper(original, key, timed)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._replace(module, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def add_cache_calls(self, before: dict, after: dict) -> None:
        """Add the (hits, calls) between two (hits, misses) snapshots of each cache."""
        for key in self.cache_calls:
            if key in before and key in after:
                hits = after[key][0] - before[key][0]
                calls = hits + after[key][1] - before[key][1]
                total = self.cache_calls[key]
                self.cache_calls[key] = (total[0] + hits, total[1] + calls)

    def overhead_s(self) -> float:
        """Raw seconds the enabled wrappers added to the pass.

        The extra cost of one call through a timed and through a counting
        wrapper is measured on a no-op and multiplied by the wrapped calls
        the pass made.
        """
        def noop(a, b):
            return a

        def per_call(fn):
            t0 = time.perf_counter()
            for _ in range(PROBE_CALLS):
                fn(1, 2)
            return (time.perf_counter() - t0) / PROBE_CALLS

        enabled, self.enabled = self.enabled, True
        cost = {}
        for timed in (True, False):
            wrapped = self._wrapper(noop, "trace.probe", timed)
            cost[timed] = statistics.median(per_call(wrapped) - per_call(noop)
                                            for _ in range(PROBE_ROUNDS))
        self.enabled = enabled
        self.durations.pop("trace.probe", None)
        self.counts.pop("trace.probe", None)
        return (cost[True] * sum(len(d) for d in self.durations.values())
                + cost[False] * sum(self.counts.values()))

    def count(self, key: str) -> int:
        if key in self.durations:
            return len(self.durations[key])
        return self.counts.get(key, 0)
