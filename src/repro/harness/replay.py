"""One replay loop for every harness.

The testbed, chaos, overload, BooksOnline and edge runs each drive their
seeded workload through :meth:`Replay.run`, supplying only a per-request
step and their accounting; :class:`CounterMarks` reads the counters over
the warm-up window or each bucket of a time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from ..network import SimulatedClock
from ..workload import TimedRequest, WorkloadGenerator


class Mark(NamedTuple):
    """Counter readings taken before arrival ``index`` (or at the end)."""

    index: int
    at: float
    counts: Dict[str, int]


@dataclass
class CounterMarks:
    """Counter readings at the boundaries of a replay's windows.

    ``counters`` maps each name to a zero-argument reader.  A window opens
    before arrival ``first`` and, with ``every`` set, before every
    ``every``-th arrival after it; the last one closes when the workload
    ends.  Opening a window resets each object in ``resets`` (a Sniffer or
    firewall read whole over the window).
    """

    counters: Dict[str, Callable[[], int]]
    first: int = 0
    every: int = 0
    resets: Sequence = ()
    marks: List[Mark] = field(default_factory=list, init=False)

    def due(self, index: int) -> bool:
        """Whether a window opens before arrival ``index``."""
        if self.every:
            return index >= self.first and (index - self.first) % self.every == 0
        return index == self.first

    def take(self, index: int, at: float, opening: bool = True) -> None:
        """Read every counter into a new mark, resetting first if ``opening``."""
        if opening:
            for counter in self.resets:
                counter.reset()
        self.marks.append(
            Mark(index, at, {name: read() for name, read in self.counters.items()})
        )

    def windows(self) -> List[Tuple[Mark, Mark]]:
        """``(start, end)`` mark pairs, one per window, in order."""
        return list(zip(self.marks, self.marks[1:]))

    def growth(self, window: int = 0) -> Dict[str, int]:
        """Each counter's growth across ``window`` (the first by default)."""
        start, end = self.marks[window], self.marks[window + 1]
        return {name: end.counts[name] - count for name, count in start.counts.items()}


def hit_counters(monitor) -> Dict[str, Callable[[], int]]:
    """Readers of a BEM's fragment hits and misses (zeros without one)."""
    if monitor is None:
        return {"hits": lambda: 0, "misses": lambda: 0}
    return {
        "hits": lambda: monitor.stats.fragment_hits,
        "misses": lambda: monitor.stats.fragment_misses,
    }


def hit_ratio(hits: int, misses: int) -> float:
    """Fragment hit ratio of ``hits`` and ``misses`` (0 when there are none)."""
    return hits / (hits + misses) if hits + misses else 0.0


class Replay:
    """Serves a workload arrival by arrival on one virtual clock.

    Per arrival, in order: the due mark, the clock to the arrival instant,
    each ``before`` hook as ``hook(index, timed)``, the harness's
    ``step(index, timed, start)`` with ``start`` the clock at service
    start, then each ``after`` hook as ``hook(index, timed, outcome)`` with
    what the step returned.  Hooks run in registration order.  Each step
    runs to completion before the next arrival, so an arrival that finds
    the clock already past its instant starts late.
    """

    def __init__(self, clock: SimulatedClock) -> None:
        self.clock = clock
        self.before: List[Callable[[int, TimedRequest], None]] = []
        self.after: List[Callable[[int, TimedRequest, object], None]] = []

    def run(
        self,
        workload: WorkloadGenerator,
        count: int,
        step: Callable[[int, TimedRequest, float], object],
        marks: CounterMarks,
    ) -> None:
        """Replay the first ``count`` arrivals of ``workload``."""
        clock = self.clock
        arrivals = workload.materialize(count)
        for index, timed in enumerate(arrivals):
            if marks.due(index):
                marks.take(index, clock.now())
            clock.advance_to(timed.at)
            for hook in self.before:
                hook(index, timed)
            outcome = step(index, timed, clock.now())
            for hook in self.after:
                hook(index, timed, outcome)
        marks.take(len(arrivals), clock.now(), opening=False)
