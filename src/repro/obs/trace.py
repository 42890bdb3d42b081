"""A bounded log of structured runtime events.

Counters say *how much*; traces say *what happened, in what order*.  The
gossip protocol's interesting moments — a round starting, a rumor being
pushed, anti-entropy firing, a peer getting marked offline or rejoining,
a retry being scheduled, a search wave going out, a fault being injected
— each become one :class:`TraceEvent` in a fixed-capacity ring buffer,
so a long-lived node keeps a sliding window of recent protocol history
at O(capacity) memory, and a chaos test can assert *how* the protocol
converged rather than only that it did.

Events are JSON-friendly by construction and export as JSON-lines
(:meth:`TraceLog.to_jsonl`), one object per line, ready for ``jq`` or a
log shipper.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from collections.abc import Callable
from typing import NamedTuple

__all__ = ["TraceEvent", "TraceLog"]


class TraceEvent(NamedTuple):
    """One structured event: a monotone sequence number, a timestamp
    from the log's clock, a ``kind`` tag, and free-form fields.

    A NamedTuple rather than a dataclass: events are minted on the
    gossip hot path, and tuple construction is several times cheaper
    than frozen-dataclass ``__init__`` while staying immutable.
    """

    seq: int
    time: float
    kind: str
    fields: dict

    def to_json(self) -> str:
        """This event as one compact JSON object."""
        record: dict[str, object] = {"seq": self.seq, "time": self.time, "kind": self.kind}
        record.update(self.fields)
        return json.dumps(record, sort_keys=True, default=str)


class TraceLog:
    """Fixed-capacity ring buffer of :class:`TraceEvent`.

    ``clock`` stamps events (inject a virtual clock for deterministic
    tests).  Appends are thread-safe and O(1); once full, the oldest
    event is evicted — ``dropped`` counts how many were lost that way.
    """

    def __init__(
        self,
        capacity: int = 1024,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self.dropped = 0
        self._seq = 0
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, kind: str, /, **fields) -> TraceEvent:
        """Append one event; returns it (mainly for tests)."""
        lock = self._lock
        lock.acquire()
        try:
            event = TraceEvent(self._seq, float(self.clock()), kind, fields)
            self._seq += 1
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)
            return event
        finally:
            lock.release()

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Buffered events oldest-first, optionally filtered by kind."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        return events

    def to_jsonl(self) -> str:
        """All buffered events as JSON-lines (one object per line)."""
        events = self.events()
        return "\n".join(e.to_json() for e in events) + ("\n" if events else "")

    def clear(self) -> None:
        """Drop all buffered events (sequence numbers keep counting)."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        return len(self._events)
