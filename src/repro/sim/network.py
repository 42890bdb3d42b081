"""Link and transfer model.

Each peer owns an access link with a speed in bytes/second (Table 2 spans
56 Kb/s to 45 Mb/s).  A transfer of S bytes between x and y starts when
both links are free and lasts ``S / min(speed_x, speed_y)`` plus a fixed
propagation latency; each link is then busy until the transfer ends.  This
serializing busy-until model is the standard first-order approximation for
access-link-bound P2P traffic: it captures the effects the paper measures
(slow peers throttle exchanges; join floods saturate links) without
simulating packets.

Transfers to an offline peer fail: the sender's callback is invoked with
``ok=False`` after a timeout, modeling the failed-communication path by
which PlanetP discovers departures (Section 3).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.metrics import BandwidthSeries

__all__ = ["Network", "TransferStats"]

#: How long a sender waits before concluding the target is offline.
FAILURE_TIMEOUT_S = 5.0


@dataclass
class TransferStats:
    """Aggregate accounting for all transfers on a network."""

    total_bytes: int = 0
    total_messages: int = 0
    failed_messages: int = 0
    per_peer_bytes: dict[int, int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: int) -> None:
        """Account one successful message."""
        self.total_bytes += nbytes
        self.total_messages += 1
        self.per_peer_bytes[src] = self.per_peer_bytes.get(src, 0) + nbytes
        self.per_peer_bytes[dst] = self.per_peer_bytes.get(dst, 0) + nbytes


class Network:
    """Bandwidth-constrained message delivery between peers.

    Parameters
    ----------
    sim:
        The event engine driving delivery callbacks.
    link_speeds:
        Per-peer access-link speed in bytes/second.
    latency_s:
        Fixed one-way propagation latency added to every message.
    registry:
        Optional :class:`~repro.obs.Registry`; simulated traffic then
        mirrors into the same metric vocabulary the live stack uses.
    """

    __slots__ = (
        "sim",
        "link_speeds",
        "latency_s",
        "online",
        "stats",
        "bandwidth",
        "_link_free",
    )

    def __init__(
        self,
        sim: Simulator,
        link_speeds: np.ndarray,
        latency_s: float = 0.01,
        registry=None,
    ) -> None:
        speeds = np.asarray(link_speeds, dtype=float)
        if speeds.ndim != 1 or speeds.size == 0:
            raise ValueError("link_speeds must be a non-empty 1-D array")
        if np.any(speeds <= 0):
            raise ValueError("link speeds must be positive")
        self.sim = sim
        self.link_speeds = speeds
        self.latency_s = latency_s
        #: per-peer reachability; offline peers fail incoming transfers.
        self.online = np.ones(speeds.size, dtype=bool)
        self.stats = TransferStats()
        self.bandwidth = BandwidthSeries(registry=registry)
        self._link_free = np.zeros(speeds.size, dtype=float)

    @property
    def num_peers(self) -> int:
        """Number of attached peers."""
        return int(self.link_speeds.size)

    def set_online(self, peer_id: int, online: bool) -> None:
        """Attach/detach a peer from the network."""
        self.online[peer_id] = online
        if not online:
            # A departing peer's pending link reservations are released.
            self._link_free[peer_id] = self.sim.now

    def is_online(self, peer_id: int) -> bool:
        """Whether the peer is reachable."""
        return bool(self.online[peer_id])

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_delivered: Callable[[], None] | None = None,
        on_failed: Callable[[], None] | None = None,
    ) -> None:
        """Send ``nbytes`` from ``src`` to ``dst``.

        On success, ``on_delivered`` fires at the receiver when the
        transfer completes; on failure (offline target), ``on_failed``
        fires at the sender after the failure timeout.
        """
        if src == dst:
            raise ValueError("a peer cannot message itself")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not self.online[src]:
            # Sender going offline mid-exchange: the message silently dies.
            return
        if not self.online[dst]:
            self.stats.failed_messages += 1
            if on_failed is not None:
                self.sim.schedule(FAILURE_TIMEOUT_S, on_failed)
            return
        now = self.sim.now
        start = max(now, self._link_free[src], self._link_free[dst])
        speed = min(self.link_speeds[src], self.link_speeds[dst])
        duration = nbytes / speed
        end = start + duration
        self._link_free[src] = end
        self._link_free[dst] = end
        self.stats.record(src, dst, nbytes)
        self.bandwidth.record(start, nbytes)
        deliver_at = end + self.latency_s

        def _deliver() -> None:
            # The target may have gone offline while the bytes were in
            # flight; the message is then lost and the sender times out.
            if self.online[dst]:
                if on_delivered is not None:
                    on_delivered()
            else:
                self.stats.failed_messages += 1
                if on_failed is not None:
                    self.sim.schedule(FAILURE_TIMEOUT_S, on_failed)

        self.sim.schedule_at(deliver_at, _deliver)
