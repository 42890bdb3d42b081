"""The discrete-event engine.

A classic heapq calendar queue.  Events fire in (time, sequence) order, so
simultaneous events run in scheduling order and every run with the same
seed is bit-for-bit reproducible.  The hot path (schedule/pop) is kept
allocation-light — one tuple per event — because gossip simulations at
N=5000 push millions of events.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

__all__ = ["Simulator", "Event"]


@dataclass(frozen=True)
class Event:
    """Handle returned by :meth:`Simulator.schedule`; cancellable."""

    time: float
    seq: int

    def __lt__(self, other: Event) -> bool:  # pragma: no cover - trivial
        return (self.time, self.seq) < (other.time, other.seq)


class Simulator:
    """Single-threaded discrete-event simulator."""

    __slots__ = ("_now", "_queue", "_seq", "_cancelled", "_events_run")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()
        self._events_run = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Total events executed so far."""
        return self._events_run

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` ``delay`` seconds from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = next(self._seq)
        heapq.heappush(self._queue, (self._now + delay, seq, callback, args))
        return Event(self._now + delay, seq)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute simulation time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (lazy deletion)."""
        self._cancelled.add(event.seq)

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Drain the event queue.

        Stops when the queue empties, simulation time would exceed
        ``until``, ``max_events`` have run, or ``stop_when()`` returns
        true (checked after each event).  Returns the final time.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            time, seq, callback, args = self._queue[0]
            if until is not None and time > until:
                self._now = until
                break
            heapq.heappop(self._queue)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._now = time
            callback(*args)
            executed += 1
            self._events_run += 1
            if stop_when is not None and stop_when():
                break
        else:
            if until is not None:
                self._now = max(self._now, until)
        return self._now

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.3f}, pending={len(self._queue)})"
