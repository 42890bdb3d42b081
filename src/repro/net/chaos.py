"""Deterministic fault injection for the real network layer.

The paper's central claim (Section 3, Figures 4-5) is that gossip keeps
the replicated directory converged *under failure* — dead peers, lossy
links, flash crowds of rejoining nodes.  This module makes those failures
injectable and reproducible so the claim can be tested end-to-end:

* :class:`FaultPlan` — a seeded, scriptable fault schedule shared by all
  endpoints of one community: per-edge drop probability, mid-stream
  connection resets (request delivered, reply lost), latency jitter,
  per-address bandwidth caps drawn from the Table 2 MIX distribution,
  asymmetric partitions with heal times, and per-address crash windows.
  Every random decision comes from a per-edge generator derived from the
  plan seed, so a run is reproducible from its seed alone.
* :class:`FaultyTransport` — wraps any :class:`~repro.net.transport.
  Transport` (loopback or TCP) and applies the plan to each request,
  at the running event loop's time.  On a
  :class:`~repro.net.vtime.VirtualTimeLoop` that time is virtual, so
  chaos scenarios with minutes of simulated jitter run in milliseconds
  and stay deterministic.

Faults are injected *above* the wrapped transport, so a fault-injected
drop is seen by the caller even when the inner transport retries: the
plan models the network the retries are fighting, not the retries
themselves.

When a :class:`~repro.obs.Registry` is bound (:meth:`FaultyTransport.
bind_registry`), every injected drop/reset/block/delay is also recorded
as a ``chaos.injected_*`` counter and a ``fault_injected`` trace event —
so tests can assert "the protocol survived exactly N injected faults"
instead of inferring it from end-state convergence.
"""

from __future__ import annotations

import asyncio
import math
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.constants import MIX_DISTRIBUTION
from repro.net.transport import Handler, Transport, TransportError
from repro.obs import Registry

__all__ = [
    "EdgeFaults",
    "Window",
    "FaultDecision",
    "FaultPlan",
    "FaultyTransport",
]


@dataclass(frozen=True)
class EdgeFaults:
    """Fault parameters applied to requests crossing one edge.

    ``drop_rate`` loses the request before delivery; ``reset_rate``
    delivers it but loses the reply (a mid-stream connection reset, so
    server state may have changed — exactly the at-most-once ambiguity
    real networks have).  Latency is drawn uniformly from
    ``[latency_min_s, latency_max_s]`` per request; ``bandwidth_Bps``
    (0 = unlimited) adds a size-proportional transfer delay.
    """

    drop_rate: float = 0.0
    reset_rate: float = 0.0
    latency_min_s: float = 0.0
    latency_max_s: float = 0.0
    bandwidth_Bps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be a probability")
        if not 0.0 <= self.reset_rate <= 1.0:
            raise ValueError("reset_rate must be a probability")
        if self.latency_min_s < 0 or self.latency_max_s < self.latency_min_s:
            raise ValueError("latency window must satisfy 0 <= min <= max")
        if self.bandwidth_Bps < 0:
            raise ValueError("bandwidth_Bps must be >= 0 (0 = unlimited)")


@dataclass(frozen=True)
class Window:
    """Half-open time window ``[start, end)`` in event-loop seconds."""

    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("window end must be >= start")

    def contains(self, t: float) -> bool:
        """Whether instant ``t`` falls inside the window."""
        return self.start <= t < self.end


@dataclass(frozen=True)
class FaultDecision:
    """What the plan decided for one request: see :meth:`FaultPlan.decide`."""

    blocked: str | None = None  # reason the edge is unusable, or None
    drop: bool = False
    reset: bool = False
    delay_s: float = 0.0


class FaultPlan:
    """A seeded, scriptable schedule of network faults.

    One plan is shared by every :class:`FaultyTransport` of a community.
    Partitions and crash windows are evaluated at the time each request
    is decided (the event loop's, passed in by the transport; 0 when a
    test decides by hand).  Randomness is per-edge: edge
    ``(src, dst)`` gets its own generator seeded from ``(seed, src,
    dst)``, so adding traffic on one edge never perturbs another edge's
    fault sequence.
    """

    def __init__(self, seed: int = 0, default: EdgeFaults | None = None) -> None:
        self.seed = int(seed)
        #: windowed default fault rules, last matching window wins.
        self._defaults: list[tuple[Window, EdgeFaults]] = []
        if default is not None:
            self._defaults.append((Window(), default))
        #: per-edge overrides, consulted before the defaults.
        self._edges: dict[tuple[str, str], list[tuple[Window, EdgeFaults]]] = {}
        #: directed blocked pairs: (src group, dst group, window).
        self._partitions: list[tuple[frozenset[str], frozenset[str], Window]] = []
        #: per-address crash windows (peer down: unreachable, not calling).
        self._down: dict[str, list[Window]] = {}
        #: per-address bandwidth caps (bytes/second).
        self._bandwidth: dict[str, float] = {}
        self._edge_rngs: dict[tuple[str, str], np.random.Generator] = {}
        # Counters for tests and demos that audit injected behaviour.
        self.delivered = 0
        self.dropped = 0
        self.resets = 0
        self.blocked = 0
        self.delay_total_s = 0.0

    # -- scripting -----------------------------------------------------------

    def set_default(
        self, faults: EdgeFaults, start: float = 0.0, end: float = math.inf
    ) -> None:
        """Apply ``faults`` to every edge during ``[start, end)``."""
        self._defaults.append((Window(start, end), faults))

    def set_edge(
        self,
        src: str,
        dst: str,
        faults: EdgeFaults,
        start: float = 0.0,
        end: float = math.inf,
    ) -> None:
        """Override the faults of the directed edge ``src -> dst``."""
        self._edges.setdefault((src, dst), []).append((Window(start, end), faults))

    def partition(
        self,
        group_a: Iterable[str],
        group_b: Iterable[str],
        start: float = 0.0,
        end: float = math.inf,
        symmetric: bool = True,
    ) -> None:
        """Block all traffic from ``group_a`` to ``group_b`` during
        ``[start, end)``; with ``symmetric`` (a 2-way partition) the
        reverse direction is blocked too.  ``end`` is the heal time."""
        a, b = frozenset(group_a), frozenset(group_b)
        window = Window(start, end)
        self._partitions.append((a, b, window))
        if symmetric:
            self._partitions.append((b, a, window))

    def crash(self, address: str, start: float, end: float = math.inf) -> None:
        """Take the peer at ``address`` down during ``[start, end)``:
        nothing reaches it and nothing it sends gets out."""
        self._down.setdefault(address, []).append(Window(start, end))

    def set_bandwidth(self, address: str, bytes_per_second: float) -> None:
        """Cap the access link of ``address`` (both directions)."""
        if bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        self._bandwidth[address] = bytes_per_second

    def assign_mix_bandwidth(
        self, addresses: Sequence[str]
    ) -> dict[str, float]:
        """Assign each address a link speed drawn from the Table 2 MIX
        distribution (Saroiu et al.), deterministically from the seed.
        Returns the assignment for inspection."""
        rng = np.random.default_rng([self.seed, 0xB0_5EED])
        fractions = np.array([f for f, _ in MIX_DISTRIBUTION])
        speeds = [s for _, s in MIX_DISTRIBUTION]
        picks = rng.choice(len(speeds), size=len(addresses), p=fractions)
        for address, pick in zip(addresses, picks):
            self._bandwidth[address] = speeds[int(pick)]
        return {a: self._bandwidth[a] for a in addresses}

    # -- evaluation ----------------------------------------------------------

    def is_down(self, address: str, now: float = 0.0) -> bool:
        """Whether ``address`` is inside one of its crash windows at ``now``."""
        return any(w.contains(now) for w in self._down.get(address, ()))

    def _partitioned(self, src: str, dst: str, now: float) -> bool:
        return any(
            src in a and dst in b and w.contains(now)
            for a, b, w in self._partitions
        )

    def _faults_for(self, src: str, dst: str, now: float) -> EdgeFaults:
        # Most recently scripted matching rule wins; edge overrides beat
        # the defaults.
        for rules in (self._edges.get((src, dst), []), self._defaults):
            for window, faults in reversed(rules):
                if window.contains(now):
                    return faults
        return EdgeFaults()

    def _rng_for(self, src: str, dst: str) -> np.random.Generator:
        key = (src, dst)
        rng = self._edge_rngs.get(key)
        if rng is None:
            rng = np.random.default_rng(
                [self.seed, zlib.crc32(src.encode()), zlib.crc32(dst.encode())]
            )
            self._edge_rngs[key] = rng
        return rng

    def decide(
        self, src: str, dst: str, num_bytes: int, now: float = 0.0
    ) -> FaultDecision:
        """Decide the fate of one ``num_bytes`` request ``src -> dst``
        sent at time ``now``.

        The drop, reset, and latency draws are taken unconditionally so
        the per-edge random stream depends only on how many requests have
        crossed the edge, not on which faults were configured.
        """
        if self.is_down(dst, now):
            return FaultDecision(blocked=f"peer {dst} is down")
        if self.is_down(src, now):
            return FaultDecision(blocked=f"peer {src} is down")
        if self._partitioned(src, dst, now):
            return FaultDecision(blocked=f"{src} -> {dst} partitioned")
        faults = self._faults_for(src, dst, now)
        rng = self._rng_for(src, dst)
        drop_draw = float(rng.random())
        reset_draw = float(rng.random())
        latency_draw = float(rng.random())
        delay = faults.latency_min_s + latency_draw * (
            faults.latency_max_s - faults.latency_min_s
        )
        bandwidths = [
            bw
            for bw in (
                faults.bandwidth_Bps,
                self._bandwidth.get(src, 0.0),
                self._bandwidth.get(dst, 0.0),
            )
            if bw > 0
        ]
        if bandwidths:
            delay += num_bytes / min(bandwidths)
        drop = drop_draw < faults.drop_rate
        reset = (not drop) and reset_draw < faults.reset_rate
        return FaultDecision(drop=drop, reset=reset, delay_s=delay)


class FaultyTransport(Transport):
    """A :class:`Transport` decorator that injects a :class:`FaultPlan`.

    Composes over both :class:`~repro.net.transport.LoopbackTransport`
    and :class:`~repro.net.transport.TcpTransport`.  The endpoint's own
    served address names the source side of each edge (``name`` overrides
    it, e.g. for pure clients).  Injected latency is an ``asyncio.sleep``.
    """

    def __init__(
        self, inner: Transport, plan: FaultPlan, *, name: str | None = None
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.name = name

    def bind_registry(self, registry: Registry) -> None:
        """Bind this decorator *and* the wrapped transport, so injected
        faults and real traffic land in one registry."""
        super().bind_registry(registry)
        self.inner.bind_registry(registry)

    def _count_fault(self, kind: str, dst: str, **fields) -> None:
        reg = self.registry
        if reg is not None:
            reg.counter(
                "chaos", f"injected_{kind}_total", f"injected {kind} faults"
            ).inc()
            reg.emit("fault_injected", fault=kind, src=self.name, dst=dst, **fields)

    async def serve(self, address: str, handler: Handler) -> str:
        """Serve through the inner transport; the bound address becomes
        this endpoint's edge-source name (unless one was given)."""
        bound = await self.inner.serve(address, handler)
        if self.name is None:
            self.name = bound
        return bound

    async def request(self, address: str, body: bytes) -> bytes:
        """One RPC with the plan's faults applied on this edge."""
        plan = self.plan
        src = self.name or "client"
        decision = plan.decide(
            src, address, len(body), asyncio.get_running_loop().time()
        )
        if decision.blocked is not None:
            plan.blocked += 1
            self._count_fault("blocked", address, reason=decision.blocked)
            raise TransportError(f"chaos: {decision.blocked}")
        if decision.delay_s > 0.0:
            plan.delay_total_s += decision.delay_s
            if self.registry is not None:
                self.registry.counter(
                    "chaos",
                    "injected_delay_seconds_total",
                    "cumulative injected latency",
                ).inc(decision.delay_s)
            await asyncio.sleep(decision.delay_s)
        if decision.drop:
            plan.dropped += 1
            self._count_fault("drops", address)
            raise TransportError(
                f"chaos: request {src} -> {address} dropped"
            )
        reply = await self.inner.request(address, body)
        if decision.reset:
            plan.resets += 1
            self._count_fault("resets", address)
            raise TransportError(
                f"chaos: connection {src} -> {address} reset mid-stream"
            )
        plan.delivered += 1
        return reply

    async def close(self) -> None:
        """Close the wrapped transport."""
        await self.inner.close()

