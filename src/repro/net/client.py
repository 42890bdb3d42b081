"""Async distributed search over the network (paper Section 5 over TCP).

Runs the same two search modes as :class:`~repro.core.community.
InProcessCommunity`, but the "contact a peer" step is a real RPC:

* **ranked** — rank members by eq. 3 over the node's *replicated* Bloom
  filters (reusing :func:`repro.ranking.tfipf.rank_peers`), then drive
  one :class:`~repro.ranking.tfipf.SearchRun` best-first: each wave is
  the peers eq. 4 is already committed to contacting, asked concurrently
  and merged in rank order — the round trips of a wave overlap, and the
  peers contacted and the answer are those of the one-at-a-time search.
  Because the ranking, contact loop, merge, and stopping logic are shared
  with the in-process implementation, a converged networked community
  returns the same top-k as :meth:`InProcessCommunity.ranked_search` on
  the same corpus.
* **exhaustive** — Section 5.1's conjunctive search against every
  candidate whose replicated filter hits all query terms.

Peers that fail to answer are marked offline in the node's member table
(never gossiped — Section 3) and contribute nothing to the result.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.search import exhaustive_local_match, score_local_documents
from repro.net.codec import (
    ExhaustiveQuery,
    ExhaustiveResponse,
    RankedQuery,
    RankedResponse,
    SnippetFetch,
    SnippetResponse,
)
from repro.net.transport import PeerGate
from repro.obs import DEFAULT_COUNT_BOUNDS
from repro.ranking.stopping import AdaptiveStopping, StoppingPolicy
from repro.ranking.tfidf import RankedDoc
from repro.ranking.tfipf import DistributedSearchResult, SearchRun, rank_peers
from repro.text.document import Document

if TYPE_CHECKING:
    from repro.net.node import NetworkPeer

__all__ = ["NetworkSearchClient"]

#: Stands in for an absent fan-out cap or peer gate.
_UNGATED = contextlib.nullcontext()


def _candidates(node: NetworkPeer, *, need_filter: bool) -> list[int]:
    """Rankable member ids, sorted: ourselves and the live members.

    ``need_filter`` is the flat directory's extra condition (a partial
    view ranks members whose filters it dropped from relayed rows).
    """
    directory = node.peer.directory
    ids = [
        pid
        for pid in node.membership.live()
        if not (need_filter and directory[pid].bloom_filter is None)
    ]
    return sorted([node.peer_id, *ids])


class _ReplicaBackend:
    """Adapts a node's replicated directory to the ranking functions.

    Only the directory-local half of the :class:`~repro.ranking.tfipf.
    PeerBackend` protocol is needed (peer ids + filter hits); the actual
    contacting happens over the transport.
    """

    def __init__(self, node: NetworkPeer) -> None:
        self.node = node

    def online_peer_ids(self) -> list[int]:
        """Members whose replicated entries are usable for ranking."""
        return _candidates(self.node, need_filter=True)

    def filter_hit_matrix(self, terms: Sequence[str]) -> tuple[list[int], np.ndarray]:
        """Batched peer × term membership over the replicated directory
        (hash the query once, one vectorized gather for all members)."""
        ids = self.online_peer_ids()
        peers, hits = self.node.peer.directory_matrix().hit_matrix(terms)
        row_of = {pid: i for i, pid in enumerate(peers)}
        return ids, hits[[row_of[pid] for pid in ids]]


class _PrecomputedBackend:
    """A ranking backend over a peer × term hit matrix assembled by the
    partial-view shard fan-out (local held rows + remote shard answers).

    Exposes just what :func:`~repro.ranking.tfipf.rank_peers` consumes,
    so the eq. 3 scoring, IPF computation, and ranking order stay the
    shared implementation in both directory modes.
    """

    def __init__(self, peer_ids: list[int], hits: np.ndarray) -> None:
        self._peer_ids = peer_ids
        self._hits = hits

    def online_peer_ids(self) -> list[int]:
        return list(self._peer_ids)

    def filter_hit_matrix(self, terms: Sequence[str]) -> tuple[list[int], np.ndarray]:
        return list(self._peer_ids), self._hits


class NetworkSearchClient:
    """Issues distributed searches from one :class:`NetworkPeer`."""

    def __init__(
        self,
        node: NetworkPeer,
        stopping: StoppingPolicy | None = None,
        group_size: int = 1,
        *,
        fanout_limit: int | None = None,
        peer_deadline_s: float | None = None,
        peer_gate: PeerGate | None = None,
    ) -> None:
        self.node = node
        self.stopping = stopping or AdaptiveStopping()
        self.group_size = group_size
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if fanout_limit is not None and fanout_limit < 1:
            raise ValueError("fanout_limit must be >= 1")
        if peer_deadline_s is not None and peer_deadline_s <= 0:
            raise ValueError("peer_deadline_s must be positive")
        #: cap on this client's concurrent in-flight RPCs (None = follow
        #: group_size / candidate count, the historical behavior).
        self.fanout_limit = fanout_limit
        self._fanout = (
            asyncio.Semaphore(fanout_limit) if fanout_limit is not None else None
        )
        #: per-RPC deadline: a peer slower than this is treated as a
        #: failed contact instead of holding its whole wave (None = wait
        #: out the transport's own retry deadline).
        self.peer_deadline_s = peer_deadline_s
        #: shared per-peer in-flight caps (``repro.serve.scheduler.PeerGate``).
        self.peer_gate = peer_gate
        self._backend = _ReplicaBackend(node)
        #: searches record into the node's registry (component ``client``).
        self.obs = obs = node.obs
        # Resolved once: a search must not pay a registry lookup per count.
        self._c_queries = obs.counter("client", "queries_total", "ranked searches issued")
        self._c_contacted = obs.counter(
            "client", "peers_contacted_total", "peers contacted across queries"
        )
        self._c_stopped_early = obs.counter(
            "client", "stopped_early_total", "searches the stopping rule ended"
        )
        self._c_exhausted = obs.counter(
            "client", "ranking_exhausted_total", "searches that ran out of ranked peers"
        )
        self._c_deadline = obs.counter(
            "client",
            "peer_deadline_timeouts_total",
            "RPCs abandoned at the per-peer deadline",
        )
        self._h_wave_latency = obs.histogram(
            "client", "wave_latency_seconds", "per-contact-wave round-trip time"
        )
        self._h_peers = obs.histogram(
            "client",
            "peers_per_query",
            "contact fan-out per ranked search",
            bounds=DEFAULT_COUNT_BOUNDS,
        )
        self._h_waves = obs.histogram(
            "client",
            "waves_per_query",
            "sequential contact rounds per ranked search",
            bounds=DEFAULT_COUNT_BOUNDS,
        )

    # -- ranked search -------------------------------------------------------

    async def ranked_search(self, query: str, k: int = 20) -> DistributedSearchResult:
        """Section 5.2 over the wire: rank by replicated filters, contact
        best-first in waves of the peers eq. 4 is committed to (at least
        ``group_size``), stop adaptively."""
        if k <= 0:
            raise ValueError("k must be positive")
        terms = self.node.analyzer.analyze_query(query)
        if not terms:
            raise ValueError("query analyzed to zero terms")
        if self.node.pview is not None:
            ranking, ipf, ids = await self._rank_via_shards(terms)
        else:
            ranking, ipf = rank_peers(terms, self._backend)
            ids = _candidates(self.node, need_filter=True)
        run = SearchRun(ranking, k, self.stopping.begin(len(ids), k), self.group_size)
        self._c_queries.inc()

        while wave := run.next_wave():
            self.obs.emit(
                "search_wave", peer=self.node.peer_id, wave=run.waves, targets=wave
            )
            wave_started = self.node.clock()
            if len(wave) == 1:  # nothing to overlap: no Task, no gather
                responses = [await self._query_peer(wave[0], terms, ipf, k)]
            else:
                responses = await asyncio.gather(
                    *(self._query_peer(pid, terms, ipf, k) for pid in wave)
                )
            self._h_wave_latency.observe(max(0.0, self.node.clock() - wave_started))
            run.feed(responses)

        self._c_contacted.inc(len(run.contacted))
        self._h_peers.observe(len(run.contacted))
        self._h_waves.observe(run.waves)
        (self._c_stopped_early if run.stopped_early else self._c_exhausted).inc()
        return DistributedSearchResult(
            results=run.results(),
            peers_contacted=run.contacted,
            peer_ranking=ranking,
            ipf=ipf,
        )

    async def _query_peer(
        self, pid: int, terms: Sequence[str], ipf: dict[str, float], k: int
    ) -> list[RankedDoc]:
        if pid == self.node.peer_id:
            return score_local_documents(self.node.peer.store.index, terms, ipf, k)
        msg = RankedQuery(tuple(terms), tuple(ipf.items()), k)
        reply = await self._rpc(pid, msg)
        if not isinstance(reply, RankedResponse):
            return []
        return [RankedDoc(doc_id, score) for doc_id, score in reply.results]

    # -- partial-view ranking ---------------------------------------------

    async def _rank_via_shards(
        self, terms: Sequence[str]
    ) -> tuple[list[tuple[int, float]], dict[str, float], list[int]]:
        """Eq. 3 ranking under a partial view, over the term-hit rows the
        partial-view plane's shard fan-out assembles.  Returns the
        ranking, the IPF map and the candidate ids (the pool for adaptive
        stopping).
        """
        term_list = list(dict.fromkeys(terms))
        rows = await self.node.partialview.term_rows(term_list, self._rpc)
        # Every contactable directory member is a candidate row (zeros
        # where nothing is known) so IPF's N matches the flat mode's
        # community size.
        ids = _candidates(self.node, need_filter=False)
        hits = np.zeros((len(ids), len(term_list)), dtype=bool)
        for i, pid in enumerate(ids):
            row = rows.get(pid)
            if row is not None:
                hits[i] = row
        ranking, ipf = rank_peers(term_list, _PrecomputedBackend(ids, hits))
        return ranking, ipf, ids

    # -- exhaustive search --------------------------------------------------

    async def exhaustive_search(self, query: str) -> list[str]:
        """Section 5.1 over the wire: contact every candidate whose
        replicated filter may match all terms; return sorted doc ids."""
        terms = self.node.analyzer.analyze_query(query)
        if not terms:
            return []
        results: set[str] = set()
        if self.node.pview is not None:
            candidates = await self.node.partialview.exhaustive_candidates(terms, self._rpc)
        else:
            candidates = self.node.peer.candidate_peers(terms)
        if self.node.peer_id in candidates:
            results.update(exhaustive_local_match(self.node.peer.store.index, terms))
        remote = [pid for pid in candidates if pid != self.node.peer_id]
        self.obs.counter("client", "exhaustive_queries_total", "exhaustive searches issued").inc()
        self.obs.counter(
            "client", "peers_contacted_total", "peers contacted across queries"
        ).inc(len(remote))
        replies = await asyncio.gather(
            *(self._rpc(pid, ExhaustiveQuery(tuple(terms))) for pid in remote)
        )
        for reply in replies:
            if isinstance(reply, ExhaustiveResponse):
                results.update(reply.doc_ids)
        return sorted(results)

    # -- document retrieval -------------------------------------------------

    async def fetch(self, owner: int, doc_id: str) -> Document | None:
        """Retrieve one document's content from the peer that owns it."""
        if owner == self.node.peer_id:
            try:
                return self.node.peer.store.get(doc_id)
            except KeyError:
                return None
        reply = await self._rpc(owner, SnippetFetch(doc_id))
        if isinstance(reply, SnippetResponse) and reply.found:
            return Document(reply.doc_id, reply.text)
        return None

    # -- plumbing ------------------------------------------------------------

    async def _rpc(self, pid: int, msg: object) -> object | None:
        """``node.request_peer`` under this client's fan-out cap and the
        shared peer gate.  The deadline covers only the RPC itself — time
        spent waiting on either is scheduling, not the peer being slow."""
        gate = self.peer_gate.slot(pid) if self.peer_gate is not None else _UNGATED
        async with self._fanout or _UNGATED, gate:
            try:
                return await self.node.request_peer(pid, msg, timeout_s=self.peer_deadline_s)
            except TimeoutError:
                self._c_deadline.inc()
                return None
