"""Query scheduler: admission control, load shedding, bounded fan-out.

One :class:`QueryScheduler` fronts one :class:`~repro.net.node.
NetworkPeer` and turns its single-query search client into a serving
plane:

* **global in-flight budget** — at most ``max_concurrent`` searches run
  at once; the rest queue;
* **bounded queue + deadline shedding** — arrivals beyond ``max_queue``
  are rejected immediately, and a query that waited past its deadline
  for a slot is shed instead of run (its answer would arrive too late to
  matter).  Both rejections carry a ``retry_after_s`` hint derived from
  the measured mean query latency, so overload degrades into polite
  backpressure instead of collapse;
* **per-peer in-flight caps** — a :class:`~repro.net.transport.PeerGate`
  (re-exported here) shared with the search client bounds concurrent
  RPCs *per target peer*, so one slow
  member saturates its own gate, not the community's;
* **version-keyed caching** — results are cached under the directory
  generation (:mod:`repro.serve.cache`); a repeated query against an
  unchanged directory never re-contacts anyone.

Everything is observable under the registry's ``serve`` component:
admitted/completed/rejected/shed counters, queue and in-flight gauges,
and the ``query_latency_seconds`` histogram the bench reads p50/p99
from.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.constants import (
    SERVE_CACHE_SIZE,
    SERVE_DEFAULT_DEADLINE_S,
    SERVE_FANOUT_LIMIT,
    SERVE_PEER_DEADLINE_S,
    SERVE_PER_PEER_INFLIGHT,
    ServeConfig,
)
from repro.net.client import NetworkSearchClient
from repro.net.transport import PeerGate
from repro.obs import Registry
from repro.ranking.stopping import StoppingPolicy
from repro.ranking.tfipf import DistributedSearchResult
from repro.serve.cache import ResultCache, directory_generation

if TYPE_CHECKING:
    from repro.net.node import NetworkPeer

__all__ = ["PeerGate", "QueryRejected", "QueryScheduler"]


class QueryRejected(RuntimeError):
    """The scheduler declined to run a query (queue full or deadline).

    ``retry_after_s`` is the backpressure hint: how long the caller
    should wait before retrying, estimated from current queue depth and
    measured service time.
    """

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(f"{reason} (retry after {retry_after_s:.2f}s)")
        self.reason = reason
        self.retry_after_s = retry_after_s


class QueryScheduler:
    """Admits, paces, caches, and sheds searches for one serving node."""

    def __init__(
        self,
        node: NetworkPeer,
        config: ServeConfig | None = None,
        *,
        stopping: StoppingPolicy | None = None,
        registry: Registry | None = None,
    ) -> None:
        self.node = node
        self.config = config or ServeConfig()
        self.obs = registry if registry is not None else node.obs
        self.gate = PeerGate(SERVE_PER_PEER_INFLIGHT)
        self.client = NetworkSearchClient(
            node,
            stopping=stopping,
            fanout_limit=SERVE_FANOUT_LIMIT,
            peer_deadline_s=SERVE_PEER_DEADLINE_S,
            peer_gate=self.gate,
        )
        self.cache = ResultCache(SERVE_CACHE_SIZE, registry=self.obs)
        #: community browser (repro.analytics.browse); attach one to turn
        #: the ``browse`` endpoint on — listings then share the searches'
        #: admission control, caching, and generation invalidation.
        self.browser = None
        self._slots = asyncio.Semaphore(self.config.max_concurrent)
        self._queued = 0
        self._inflight = 0
        self._c_admitted = self.obs.counter(
            "serve", "queries_admitted_total", "queries that got a slot"
        )
        self._c_completed = self.obs.counter(
            "serve", "queries_completed_total", "queries answered (cache or search)"
        )
        self._c_rejected = self.obs.counter(
            "serve", "queries_rejected_total", "arrivals bounced off the full queue"
        )
        self._c_shed = self.obs.counter(
            "serve", "queries_shed_total", "queued queries dropped at their deadline"
        )
        self._g_queued = self.obs.gauge(
            "serve", "queries_queued", "queries waiting for a slot"
        )
        self._g_inflight = self.obs.gauge(
            "serve", "queries_inflight", "queries currently running"
        )
        self._h_latency = self.obs.histogram(
            "serve", "query_latency_seconds", "admission-to-answer time"
        )

    # -- public API ----------------------------------------------------------

    async def ranked(
        self, query: str, k: int = 20, deadline_s: float | None = None
    ) -> DistributedSearchResult:
        """Serve one ranked search (Section 5.2), cached and admitted."""
        if k <= 0:
            raise ValueError("k must be positive")
        terms = tuple(self.node.analyzer.analyze_query(query))
        if not terms:
            raise ValueError("query analyzed to zero terms")
        return await self._admit(
            ("ranked", terms, k),
            deadline_s,
            lambda: self.client.ranked_search(query, k),
        )

    async def exhaustive(
        self, query: str, deadline_s: float | None = None
    ) -> list[str]:
        """Serve one exhaustive search (Section 5.1), cached and admitted."""
        terms = tuple(self.node.analyzer.analyze_query(query))
        if not terms:
            return []
        return await self._admit(
            ("exhaustive", terms, 0),
            deadline_s,
            lambda: self.client.exhaustive_search(query),
        )

    def attach_browser(self, browser) -> None:
        """Enable ``browse`` by attaching a CommunityBrowser."""
        self.browser = browser

    async def browse(self, path: str, k: int = 20, deadline_s: float | None = None):
        """Serve one popularity-ranked directory listing.

        The listing is admitted, shed, and cached exactly like a search —
        the cache key carries the path, so a repeat browse of an
        unchanged community is a cache hit, and any directory-generation
        change invalidates it on the next read.
        """
        if self.browser is None:
            raise RuntimeError("no browser attached (QueryScheduler.attach_browser)")
        if k <= 0:
            raise ValueError("k must be positive")
        return await self._admit(
            ("browse", path, k),
            deadline_s,
            lambda: self.browser.listing(path, k),
        )

    # -- admission -----------------------------------------------------------

    async def _admit(self, key, deadline_s, run):
        deadline_s = deadline_s if deadline_s is not None else SERVE_DEFAULT_DEADLINE_S
        generation = directory_generation(self.node)
        cached = self.cache.get(key, generation)
        if cached is not None:
            self._c_completed.inc()
            return cached
        if self._queued >= self.config.max_queue:
            self._c_rejected.inc()
            raise QueryRejected("admission queue full", self.retry_after())
        self._queued += 1
        self._g_queued.set(self._queued)
        enqueued_at = self.node.clock()
        dequeued = False
        # A free slot is taken without yielding to the loop, so nothing
        # can have changed since the lookup above.
        waits = self._slots.locked()
        try:
            async with self._slots:
                self._queued -= 1
                self._g_queued.set(self._queued)
                dequeued = True
                waited = self.node.clock() - enqueued_at
                if waited > deadline_s:
                    self._c_shed.inc()
                    raise QueryRejected(
                        "deadline exceeded while queued", self.retry_after()
                    )
                self._c_admitted.inc()
                if waits:
                    # An identical query may have landed while we queued;
                    # the re-check also re-fingerprints, so a directory
                    # change during the wait is honored.
                    generation = directory_generation(self.node)
                    cached = self.cache.get(key, generation, recheck=True)
                    if cached is not None:
                        self._c_completed.inc()
                        return cached
                self._inflight += 1
                self._g_inflight.set(self._inflight)
                try:
                    started = self.node.clock()
                    result = await run()
                    self._h_latency.observe(max(0.0, self.node.clock() - started))
                finally:
                    self._inflight -= 1
                    self._g_inflight.set(self._inflight)
                self.cache.put(key, generation, result)
                self._c_completed.inc()
                return result
        finally:
            if not dequeued:
                self._queued -= 1
                self._g_queued.set(self._queued)

    def retry_after(self) -> float:
        """Backpressure hint: expected wait for the backlog to drain,
        from measured mean service time (a coarse default before any
        query has completed)."""
        snap = self.obs.snapshot("serve", "query_latency_seconds")
        mean = snap.mean if snap is not None and snap.total else 0.25
        backlog = self._queued + 1
        return max(0.05, backlog * mean / self.config.max_concurrent)
