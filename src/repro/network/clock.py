"""Simulated clock shared by all components of a testbed.

The paper's experiments run in real time on a LAN; ours run in virtual time
so they are deterministic and fast.  Every component that needs "now" (TTL
expiry in the BEM, latency accounting, arrival processes) holds a reference
to one :class:`SimulatedClock` and never consults the wall clock.

Time is a float in seconds since the start of the simulation.

The clock also carries a heap-backed :class:`EventQueue`.  Components that
want work to happen at a future virtual time — fault activations, timers,
deferred maintenance — :meth:`~SimulatedClock.schedule` a callback instead
of polling every tick; the clock fires due callbacks in timestamp order as
:meth:`~SimulatedClock.advance` / :meth:`~SimulatedClock.advance_to` sweep
past them.  A run that schedules nothing pays nothing: the due-event check
is a single empty-list test on the queue's heap.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import ConfigurationError


class EventQueue:
    """A min-heap of timestamped callbacks.

    Entries are ``(time, sequence, callback)``; the monotone sequence number
    breaks timestamp ties in insertion order and keeps the heap comparisons
    away from the (uncomparable) callbacks.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0

    def push(self, at: float, callback: Callable[[], None]) -> None:
        """Enqueue ``callback`` to fire at virtual time ``at``."""
        heapq.heappush(self._heap, (at, self._sequence, callback))
        self._sequence += 1

    def peek_time(self) -> Optional[float]:
        """Earliest scheduled timestamp, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop_due(self, now: float) -> Optional[Tuple[float, Callable[[], None]]]:
        """Pop the earliest event if it is due at or before ``now``."""
        if not self._heap or self._heap[0][0] > now:
            return None
        at, _, callback = heapq.heappop(self._heap)
        return at, callback

    def __len__(self) -> int:
        return len(self._heap)


class SimulatedClock:
    """A monotonically non-decreasing virtual clock.

    >>> clock = SimulatedClock()
    >>> clock.now()
    0.0
    >>> clock.advance(1.5)
    1.5
    >>> clock.now()
    1.5
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ConfigurationError("clock cannot start before time 0")
        self._now = float(start)
        self._events = EventQueue()

    def now(self) -> float:
        """Return the current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> float:
        """Run ``callback`` once the clock has advanced ``delay`` seconds.

        Returns the absolute fire time.  Callbacks fire *during* the
        :meth:`advance` / :meth:`advance_to` call that sweeps past their
        timestamp, in timestamp order (ties in scheduling order), with the
        clock already set to at least their fire time.
        """
        if delay < 0:
            raise ConfigurationError("cannot schedule into the past (%r)" % delay)
        at = self._now + delay
        self._events.push(at, callback)
        return at

    def schedule_at(self, timestamp: float, callback: Callable[[], None]) -> float:
        """Run ``callback`` when the clock reaches absolute ``timestamp``.

        Timestamps at or before the current time fire on the next advance
        (including a zero-length one).
        """
        if timestamp < 0:
            raise ConfigurationError("cannot schedule before time 0")
        self._events.push(timestamp, callback)
        return timestamp

    def pending_events(self) -> int:
        """Number of scheduled callbacks that have not fired yet."""
        return len(self._events)

    def _fire_due(self) -> None:
        """Fire every scheduled callback due at or before the current time.

        A callback may schedule further events; those fire in the same sweep
        when they are also due.  The clock never moves backwards: an event
        with a timestamp in the past fires with ``now`` unchanged.  The
        callers test for a non-empty queue first.
        """
        events = self._events
        due = events.pop_due(self._now)
        while due is not None:
            due[1]()
            due = events.pop_due(self._now)

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time.

        Advancing by a negative amount is a programming error: simulated
        time, like real time, only moves forward.  Any callbacks scheduled
        at or before the new time fire before this returns.
        """
        if seconds < 0:
            raise ConfigurationError(
                "cannot advance the clock by a negative amount (%r)" % seconds
            )
        self._now += seconds
        if self._events._heap:
            self._fire_due()
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute ``timestamp``.

        Moving to a timestamp in the past is ignored (the clock stays put);
        this makes it safe to merge event streams that are already sorted.
        Due callbacks fire exactly as in :meth:`advance`.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        if self._events._heap:
            self._fire_due()
        return self._now

    def reset(self) -> None:
        """Rewind to time zero and drop scheduled events.

        Only intended for test fixtures."""
        self._now = 0.0
        self._events = EventQueue()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimulatedClock(t=%.6f)" % self._now
