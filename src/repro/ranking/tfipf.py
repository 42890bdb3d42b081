"""PlanetP's distributed TF×IPF search (paper Section 5.2).

The ranking problem is split in two:

1. **Node ranking** — each peer i gets relevance
   ``R_i(Q) = sum_{t in Q and t in BF_i} IPF_t`` (eq. 3), where IPF is
   computed locally from the gossiped Bloom filters: N = number of
   filters, N_t = filters hitting term t.  Bloom filter false positives
   can inflate N_t slightly and rank a peer that lacks the term — exactly
   the approximation the paper accepts.

2. **Selection** — contact peers in rank order, merge their
   locally-scored documents (eq. 2 with IPF_t substituted for IDF_t),
   and stop per the stopping policy.  :class:`SearchRun` is that loop
   without the I/O — the one copy of it: :class:`TFIPFSearch` drives it
   in process, ``repro.net.client`` over the wire.

The searcher is decoupled from the community through the tiny
:class:`PeerBackend` protocol so it can run against the in-process
community, the simulator, or tests' stub peers alike.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.ranking.stopping import AdaptiveStopping, StoppingPolicy, StoppingState
from repro.ranking.tfidf import RankedDoc
from repro.ranking.vsm import inverse_peer_frequency

__all__ = [
    "PeerBackend",
    "rank_peers",
    "compute_ipf",
    "SearchRun",
    "TFIPFSearch",
    "DistributedSearchResult",
]


class PeerBackend(Protocol):
    """What the distributed searcher needs from a community."""

    def online_peer_ids(self) -> list[int]:
        """Ids of peers whose directory entries are usable."""
        ...

    def filter_hit_matrix(self, terms: Sequence[str]) -> tuple[list[int], np.ndarray]:
        """Which usable peers' (locally replicated) Bloom filters hit which
        of ``terms``: ``(peer_ids, bool (peers, terms))``."""
        ...

    def query_peer(
        self, peer_id: int, terms: Sequence[str], ipf: dict[str, float], k: int
    ) -> list[RankedDoc]:
        """Ask ``peer_id`` for its local top-``k`` documents for the query,
        scored with eq. 2 using the supplied IPF weights."""
        ...


def compute_ipf(
    terms: Sequence[str], backend: PeerBackend
) -> tuple[dict[str, float], dict[int, list[str]]]:
    """IPF per query term, plus each peer's hit list.

    One peer × term hit matrix over the replicated filters yields both
    N_t (for IPF) and the per-peer term hits needed for eq. 3; backends
    answer it with one vectorized gather, hashing the query once.
    """
    term_list = list(dict.fromkeys(terms))
    peer_ids, hits = backend.filter_hit_matrix(term_list)
    n = len(peer_ids)
    n_t = hits.sum(axis=0)
    hits_per_peer = {
        pid: [t for t, h in zip(term_list, hits[i], strict=True) if h]
        for i, pid in enumerate(peer_ids)
        if hits[i].any()
    }
    ipf = {t: inverse_peer_frequency(n, int(n_t[i])) for i, t in enumerate(term_list)}
    return ipf, hits_per_peer


def rank_peers(
    terms: Sequence[str], backend: PeerBackend
) -> tuple[list[tuple[int, float]], dict[str, float]]:
    """Eq. 3 peer ranking: ``[(peer_id, R_i)]`` best-first, plus the IPF map.

    Peers with zero relevance (no query term in their filter) are omitted;
    ties break on peer id for determinism.
    """
    ipf, hits_per_peer = compute_ipf(terms, backend)
    scored = [
        (pid, sum(ipf[t] for t in peer_hits))
        for pid, peer_hits in hits_per_peer.items()
    ]
    scored = [(pid, r) for pid, r in scored if r > 0.0]
    scored.sort(key=lambda pr: (-pr[1], pr[0]))
    return scored, ipf


@dataclass
class DistributedSearchResult:
    """Outcome of one distributed ranked search."""

    results: list[RankedDoc]
    peers_contacted: list[int]
    peer_ranking: list[tuple[int, float]] = field(repr=False, default_factory=list)
    ipf: dict[str, float] = field(repr=False, default_factory=dict)

    @property
    def num_peers_contacted(self) -> int:
        """How many peers were actually queried."""
        return len(self.peers_contacted)

    def doc_ids(self) -> list[str]:
        """Ranked document ids, best first."""
        return [r.doc_id for r in self.results]


def _best(top: dict[str, float], k: int) -> list[tuple[str, float]]:
    """The ``k`` best ``(doc_id, score)`` of ``top`` (ties break on doc id)."""
    return sorted(top.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def _merge(top: dict[str, float], returned: list[RankedDoc], k: int) -> bool:
    """Merge ``returned`` into ``top`` (trimmed to k); return whether any
    returned document made it into the new top-k."""
    if not returned:
        return False
    for doc in returned:
        existing = top.get(doc.doc_id)
        if existing is None or doc.score > existing:
            top[doc.doc_id] = doc.score
    if len(top) > k:
        keep = _best(top, k)
        kept_ids = {d for d, _ in keep}
        contributed = any(doc.doc_id in kept_ids for doc in returned)
        top.clear()
        top.update(keep)
        return contributed
    return True


class SearchRun:
    """The Section 5.2 contact loop for one search, without the I/O.

    A driver asks :meth:`next_wave` which peers to contact now, contacts
    them (one after another in process, concurrently over a network) and
    hands their answers to :meth:`feed`; an empty wave ends the search.

    A wave is the next ``max(group_size, state.committed())`` peers of the
    ranking.  The committed ones are those the one-at-a-time search would
    contact whatever they answer, and answers are merged and observed in
    rank order, so the stop can only fall on a wave's last peer: with
    ``group_size`` 1, ``contacted`` and the results are exactly those of
    the sequential algorithm, in fewer rounds and not one more message.
    A larger ``group_size`` speculates at least that many per wave — the
    paper's parallel variant, which may overshoot the stopping point.
    """

    def __init__(
        self,
        ranking: Sequence[tuple[int, float]],
        k: int,
        state: StoppingState,
        group_size: int = 1,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.ranking = ranking
        self.k = k
        self.state = state
        self.group_size = group_size
        #: peers whose answers have been fed, in rank order.
        self.contacted: list[int] = []
        #: waves fed so far: the sequential round trips a network driver paid.
        self.waves = 0
        self._top: dict[str, float] = {}
        self._wave: list[int] = []

    def next_wave(self) -> list[int]:
        """Peer ids to contact now; empty once the policy stops the search
        or the ranking is exhausted."""
        if self.state.should_stop():
            return []
        start = len(self.contacted)
        size = max(self.group_size, self.state.committed())
        self._wave = [pid for pid, _relevance in self.ranking[start : start + size]]
        return self._wave

    def feed(self, responses: Sequence[list[RankedDoc]]) -> None:
        """The answers of the wave :meth:`next_wave` last returned, in its
        order (an unreachable peer answers with an empty list)."""
        if len(responses) != len(self._wave):
            raise ValueError("one response per peer of the wave")
        for pid, returned in zip(self._wave, responses, strict=True):
            self.contacted.append(pid)
            contributed = _merge(self._top, returned, self.k)
            self.state.observe(contributed, len(self._top))
        self.waves += 1

    @property
    def stopped_early(self) -> bool:
        """Whether the policy ended the search with ranked peers left."""
        return len(self.contacted) < len(self.ranking) and self.state.should_stop()

    def results(self) -> list[RankedDoc]:
        """The merged top-k so far, best first (ties break on doc id)."""
        return [RankedDoc(d, s) for d, s in _best(self._top, self.k)]


class TFIPFSearch:
    """The full Section 5.2 algorithm: rank peers, contact adaptively."""

    def __init__(
        self,
        backend: PeerBackend,
        stopping: StoppingPolicy | None = None,
        group_size: int = 1,
    ) -> None:
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.backend = backend
        self.stopping = stopping if stopping is not None else AdaptiveStopping()
        self.group_size = group_size

    def search(self, terms: Sequence[str], k: int) -> DistributedSearchResult:
        """Retrieve the top-``k`` documents for ``terms``.

        Drives one :class:`SearchRun` synchronously: in process a wave's
        peers are simply asked one after another.
        """
        ranking, ipf = rank_peers(terms, self.backend)
        community_size = len(self.backend.online_peer_ids())
        run = SearchRun(
            ranking, k, self.stopping.begin(community_size, k), self.group_size
        )
        while wave := run.next_wave():
            run.feed([self.backend.query_peer(pid, terms, ipf, k) for pid in wave])
        return DistributedSearchResult(
            results=run.results(),
            peers_contacted=run.contacted,
            peer_ranking=ranking,
            ipf=ipf,
        )
