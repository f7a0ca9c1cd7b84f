"""Reference slice: fixed pure-Python work used as a speed yardstick.

The machine's speed drifts by up to a factor of two over a second or two,
and process CPU time drifts with it, so raw times do not repeat.  The
benchmark therefore runs this slice between blocks of program work and
reports every time as ``measured * NOMINAL_S / measured_slice``: seconds at
a fixed nominal speed.  The slice imports nothing from sgblow and does the
same kind of work the program does (set and tuple building, sorting,
membership tests, small-integer arithmetic), so it slows down and speeds up
with it.  Changing the slice or NOMINAL_S rebases every reported time.
"""

from __future__ import annotations

import statistics
import time

ROUNDS = 100
# Nominal slice time: a round figure near the slice's median on the machine
# the benchmark was calibrated on (see README.md).  Rescaled times are
# seconds at this speed.
NOMINAL_S = 0.0100
# Program work timed between two slices; slices then cost about a fifth of it.
SEGMENT_S = 0.05


def reference_slice() -> int:
    """Run the fixed work once; the return value is the same on every call."""
    acc = 0
    for k in range(ROUNDS):
        window = {(7 * i + k) % 211 for i in range(90)}
        ordered = tuple(sorted(window))
        members = frozenset(ordered)
        sums = set()
        for x in ordered[:24]:
            for y in ordered[:24]:
                s = x + y
                if s >= 211:
                    break
                sums.add(s)
        acc += sum(1 for z in range(211) if z in members and z not in sums)
        acc = (acc * 31 + len(sums)) % 1_000_003
    return acc


def time_slice() -> float:
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0


class Meter:
    """Times program work in segments bracketed by reference slices.

    ``add(key, raw)`` files one raw duration in the open segment.  A segment
    closes on ``close()``, or on ``tick()`` once it holds ``SEGMENT_S`` of
    work, by timing a slice; segment i lies between slices i and i + 1.
    ``rescaled()`` multiplies every duration by its segment's factor: the
    nominal slice time over the median of the WINDOW slices around the
    segment.  The median keeps one slice that was preempted from skewing
    its neighbours.
    """

    WINDOW = 6

    def __init__(self):
        self.slices = [time_slice()]
        self.segments: list[list[tuple[str, float]]] = []
        self._pending: list[tuple[str, float]] = []
        self._pending_s = 0.0

    def add(self, key: str, raw: float) -> None:
        self._pending.append((key, raw))
        self._pending_s += raw

    def tick(self) -> None:
        if self._pending_s >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        self.slices.append(time_slice())
        self.segments.append(self._pending)
        self._pending = []
        self._pending_s = 0.0

    def factors(self) -> list[float]:
        half = self.WINDOW // 2
        return [NOMINAL_S / statistics.median(self.slices[max(0, i + 1 - half):i + 1 + half])
                for i in range(len(self.segments))]

    def rescaled(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Raw and rescaled durations by key, in the order they were added."""
        raw: dict[str, list[float]] = {}
        scaled: dict[str, list[float]] = {}
        for factor, segment in zip(self.factors(), self.segments):
            for key, value in segment:
                raw.setdefault(key, []).append(value)
                scaled.setdefault(key, []).append(value * factor)
        return raw, scaled
