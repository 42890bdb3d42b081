"""Measurement plumbing: bandwidth time series and convergence tracking.

:class:`BandwidthSeries` feeds Figure 4(c) (aggregate gossiping bandwidth
over time); :class:`ConvergenceTracker` produces the per-event convergence
times behind Figures 2(a), 3, 4(a,b) and 5.

The simulator and the real network stack share one metrics vocabulary:
pass a :class:`~repro.obs.Registry` to :class:`BandwidthSeries` and every
recorded transfer is mirrored into the same ``sim_bytes_total`` /
``sim_transfers_total`` counters a live node's transport reports, so
simulated and measured bandwidth plot from identical instruments.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # import-light: repro.obs is only needed when used
    from repro.obs import Registry

__all__ = ["BandwidthSeries", "ConvergenceTracker"]

#: Width of the aggregate-bandwidth time-series buckets (seconds).
BANDWIDTH_BUCKET_S = 10.0


class BandwidthSeries:
    """Bytes transferred per :data:`BANDWIDTH_BUCKET_S` time bucket.

    ``registry`` (optional) mirrors each record into :mod:`repro.obs`
    counters under the given component, unifying sim and net metrics.
    """

    __slots__ = ("_buckets", "_bytes_counter", "_transfers_counter")

    def __init__(
        self,
        registry: Registry | None = None,
        component: str = "sim",
    ) -> None:
        self._buckets: dict[int, int] = {}
        self._bytes_counter = self._transfers_counter = None
        if registry is not None:
            self._bytes_counter = registry.counter(
                component, "bytes_total", "bytes moved by the simulated network"
            )
            self._transfers_counter = registry.counter(
                component, "transfers_total", "simulated message transfers"
            )

    def record(self, time: float, nbytes: int) -> None:
        """Attribute ``nbytes`` to the bucket containing ``time``."""
        if time < 0:
            raise ValueError("time must be non-negative")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        bucket = int(time / BANDWIDTH_BUCKET_S)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + nbytes
        if self._bytes_counter is not None:
            self._bytes_counter.inc(nbytes)
            self._transfers_counter.inc()

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, bytes_per_second)`` arrays, one point per bucket.

        Empty buckets between the first and last are included as zeros so
        the series plots correctly.
        """
        if not self._buckets:
            return np.zeros(0), np.zeros(0)
        first = min(self._buckets)
        last = max(self._buckets)
        ids = np.arange(first, last + 1)
        times = ids * BANDWIDTH_BUCKET_S
        rates = np.array(
            [self._buckets.get(int(i), 0) / BANDWIDTH_BUCKET_S for i in ids], dtype=float
        )
        return times, rates

    def total_bytes(self) -> int:
        """Sum over all buckets."""
        return sum(self._buckets.values())

    def peak_rate(self) -> float:
        """Maximum bytes/second over buckets (0 when empty)."""
        if not self._buckets:
            return 0.0
        return max(self._buckets.values()) / BANDWIDTH_BUCKET_S


@dataclass
class _TrackedEvent:
    """Bookkeeping for one rumor/event being tracked to convergence."""

    created_at: float
    unknown: set[int]
    converged_at: float | None = None
    label: str = ""


class ConvergenceTracker:
    """Tracks when each event becomes known to every required peer.

    An event (a join, rejoin, or Bloom filter update — i.e. a rumor) is
    *converged* the first time every peer in its required set knows it.
    The required set shrinks when peers learn the event or go offline and
    grows when an unknowing required peer comes online before convergence.
    A ``required`` predicate restricts tracking to a peer class (used for
    the MIX-F / MIX-S convergence conditions of Figure 5).
    """

    def __init__(self, required: Callable[[int], bool] | None = None) -> None:
        self._events: dict[int, _TrackedEvent] = {}
        self._required = required or (lambda pid: True)
        self._unconverged_count = 0

    def register(
        self, event_id: int, created_at: float, online_unknowing: set[int], label: str = ""
    ) -> None:
        """Begin tracking ``event_id``.

        ``online_unknowing`` is the set of peers online at creation time
        that do not yet know the event (typically everyone but the origin).
        """
        if event_id in self._events:
            raise ValueError(f"event {event_id} already tracked")
        unknown = {p for p in online_unknowing if self._required(p)}
        ev = _TrackedEvent(created_at, unknown, label=label)
        self._events[event_id] = ev
        if unknown:
            self._unconverged_count += 1
        else:
            ev.converged_at = created_at

    def peer_learned(self, event_id: int, peer_id: int, time: float) -> None:
        """Record that ``peer_id`` now knows ``event_id``."""
        ev = self._events.get(event_id)
        if ev is None or ev.converged_at is not None:
            return
        ev.unknown.discard(peer_id)
        if not ev.unknown:
            ev.converged_at = time
            self._unconverged_count -= 1

    def peer_offline(self, peer_id: int, time: float) -> None:
        """An offline peer no longer blocks convergence."""
        for ev in self._events.values():
            if ev.converged_at is None:
                ev.unknown.discard(peer_id)
                if not ev.unknown:
                    ev.converged_at = time
                    self._unconverged_count -= 1

    def peer_online(self, peer_id: int, knows: Callable[[int], bool]) -> None:
        """A returning peer re-blocks unconverged events it doesn't know.

        ``knows(event_id)`` reports whether the peer already knows an event.
        """
        if not self._required(peer_id):
            return
        for event_id, ev in self._events.items():
            if ev.converged_at is None and not knows(event_id):
                ev.unknown.add(peer_id)

    def peer_learned_many(
        self, peer_id: int, known_ids: set[int], time: float
    ) -> None:
        """Bulk form of :meth:`peer_learned` for directory snapshots."""
        for event_id in self._events.keys() & known_ids:
            self.peer_learned(event_id, peer_id, time)

    # -- results ---------------------------------------------------------------

    def convergence_times(self) -> dict[int, float]:
        """event_id -> (converged_at - created_at) for converged events."""
        return {
            eid: ev.converged_at - ev.created_at
            for eid, ev in self._events.items()
            if ev.converged_at is not None
        }

    def unconverged(self) -> list[int]:
        """Ids of events that never converged."""
        return [eid for eid, ev in self._events.items() if ev.converged_at is None]

    def all_converged(self) -> bool:
        """Whether every tracked event has converged (O(1))."""
        return self._unconverged_count == 0

    def labels(self) -> dict[int, str]:
        """event_id -> label map."""
        return {eid: ev.label for eid, ev in self._events.items()}

    def __len__(self) -> int:
        return len(self._events)
