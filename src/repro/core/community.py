"""An in-process PlanetP community.

Hosts many :class:`PlanetPPeer` instances in one process and implements
both search modes of Section 5 against them.  Directory replication is
performed eagerly (:meth:`replicate_directories`): after a batch of
publishes, each peer's Bloom filter copy is installed at every other peer
— the converged-directory state the paper's search experiments assume
(the gossip subpackage is the authority on *how long* convergence takes).

The community implements the :class:`~repro.ranking.tfipf.PeerBackend`
protocol, so :class:`~repro.ranking.tfipf.TFIPFSearch` runs against it
directly; it also hosts the optional brokerage and persistent queries.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.bloom.matcher import FilterMatrix
from repro.brokerage.service import BrokerageService
from repro.constants import BloomConfig
from repro.core.peer import PlanetPPeer
from repro.core.persistent import StandingQueries, Subscription
from repro.core.search import exhaustive_local_match, score_local_documents
from repro.ranking.stopping import AdaptiveStopping, StoppingPolicy
from repro.ranking.tfidf import RankedDoc
from repro.ranking.tfipf import DistributedSearchResult, TFIPFSearch
from repro.text.analyzer import Analyzer
from repro.text.document import Document
from repro.text.xmlsnippets import XMLSnippet

__all__ = ["InProcessCommunity"]


class InProcessCommunity:
    """A set of peers sharing one process (the paper's "virtual peers")."""

    def __init__(
        self,
        num_peers: int,
        analyzer: Analyzer | None = None,
        bloom_config: BloomConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if num_peers <= 0:
            raise ValueError("num_peers must be positive")
        self.analyzer = analyzer or Analyzer()
        self.bloom_config = bloom_config or BloomConfig()
        self.peers = [
            PlanetPPeer(pid, analyzer=self.analyzer, bloom_config=self.bloom_config)
            for pid in range(num_peers)
        ]
        self.brokerage = BrokerageService(clock)
        #: persistent queries (Section 5.1) and their upcalls by row id.
        self.standing = StandingQueries()
        self._callbacks: dict[int, Callable[[Document], None]] = {}
        self._doc_owner: dict[str, int] = {}
        self._dirty = False
        #: stacked online-peer filters for batched ranking (eq. 3); synced
        #: lazily per query, re-copying only rows whose filter changed.
        self._matrix = FilterMatrix()

    # -- publishing -----------------------------------------------------------

    def publish(self, peer_id: int, item: Document | XMLSnippet) -> Document:
        """Publish ``item`` at ``peer_id`` and fire persistent queries."""
        peer = self._peer(peer_id)
        doc = peer.publish(item)
        self._doc_owner[doc.doc_id] = peer_id
        self._dirty = True
        if self.standing:
            self._probe(peer)
        return doc

    def _probe(self, peer: PlanetPPeer) -> None:
        """Upcall every standing query for ``peer``'s matches it has not
        seen — the socket driver's dirty-peer probe, run synchronously.
        Each id is acked before its upcall (at most once), and a row an
        earlier upcall cancelled gets nothing more."""
        may_hold = peer.store.bloom_filter.contains_all
        for sub in self.standing.candidates(may_hold):
            matches = exhaustive_local_match(peer.store.index, sub.terms)
            for doc_id in self.standing.deliverable(sub, matches):
                if self.standing.acked(sub, doc_id):
                    self._callbacks[sub.sub_id](peer.store.get(doc_id))

    def publish_batch(
        self, peer_id: int, items: Sequence[Document | XMLSnippet]
    ) -> None:
        """Publish many documents at one peer (persistent queries fire per
        document; replication is deferred until the next search)."""
        for item in items:
            self.publish(peer_id, item)

    def remove(self, doc_id: str) -> Document:
        """Withdraw a document from wherever it was published."""
        owner = self._doc_owner.pop(doc_id, None)
        if owner is None:
            raise KeyError(doc_id)
        doc = self.peers[owner].remove(doc_id)
        self._dirty = True
        return doc

    def owner_of(self, doc_id: str) -> int:
        """Which peer published ``doc_id``."""
        return self._doc_owner[doc_id]

    def fetch(self, doc_id: str) -> Document:
        """Retrieve a document from its owner's data store."""
        return self.peers[self.owner_of(doc_id)].store.get(doc_id)

    # -- directory replication --------------------------------------------------

    def replicate_directories(self) -> None:
        """Install every peer's current Bloom filter at every other peer
        (instant convergence; the gossip simulator models the latency)."""
        snapshots = [
            (p.peer_id, p.address, p.store.bloom_filter, p.store.filter_version)
            for p in self.peers
        ]
        for peer in self.peers:
            for pid, address, bf, version in snapshots:
                if pid == peer.peer_id:
                    continue
                peer.update_directory(pid, address, bf, version)
        self._dirty = False

    def _ensure_replicated(self) -> None:
        if self._dirty:
            self.replicate_directories()

    # -- PeerBackend protocol (ranked search) --------------------------------------

    def online_peer_ids(self) -> list[int]:
        """Peers currently online (all, unless set otherwise)."""
        return [p.peer_id for p in self.peers if p.online]

    def filter_hit_matrix(self, terms: Sequence[str]) -> tuple[list[int], np.ndarray]:
        """Batched per-peer, per-term filter membership for the online
        community (what :func:`~repro.ranking.tfipf.compute_ipf` ranks
        over: hash the query once, test all peers in one vectorized
        gather)."""
        self._matrix.sync(
            (p.peer_id, p.store.bloom_filter) for p in self.peers if p.online
        )
        return self._matrix.hit_matrix(terms)

    def query_peer(
        self, peer_id: int, terms: Sequence[str], ipf: dict[str, float], k: int
    ) -> list[RankedDoc]:
        """Contact ``peer_id``: its local top-``k`` under TF×IPF (eq. 2)."""
        peer = self._peer(peer_id)
        if not peer.online:
            return []
        return score_local_documents(peer.store.index, terms, ipf, k)

    # -- searches -----------------------------------------------------------------

    def analyze_query(self, query: str) -> list[str]:
        """Run the community's analyzer over a query string."""
        return self.analyzer.analyze_query(query)

    def exhaustive_search(self, query: str, from_peer: int = 0) -> list[Document]:
        """Section 5.1: conjunctive search of the entire data store.

        Uses ``from_peer``'s directory to find candidate peers whose
        filters may match every key, contacts them all, merges the
        matching documents, and consults the brokers.
        """
        self._ensure_replicated()
        terms = self.analyze_query(query)
        if not terms:
            return []
        searcher = self._peer(from_peer)
        results: dict[str, Document] = {}
        for pid in searcher.candidate_peers(terms):
            peer = self.peers[pid]
            if not peer.online:
                continue
            for doc_id in exhaustive_local_match(peer.store.index, terms):
                results[doc_id] = peer.store.get(doc_id)
        for snippet in self.brokerage.lookup_all(terms):
            if snippet.snippet_id not in results:
                results[snippet.snippet_id] = Document(
                    snippet.snippet_id, snippet.xml, dict(snippet.attributes)
                )
        return [results[doc_id] for doc_id in sorted(results)]

    def ranked_search(
        self,
        query: str,
        k: int = 20,
        stopping: StoppingPolicy | None = None,
        group_size: int = 1,
    ) -> DistributedSearchResult:
        """Section 5.2: TF×IPF ranked search with adaptive stopping.

        ``group_size`` > 1 contacts at least that many peers per wave,
        speculatively (Section 5.2's groups of m peers); 1 contacts exactly
        the peers, and returns exactly the answer, of the sequential
        algorithm."""
        self._ensure_replicated()
        terms = self.analyze_query(query)
        if not terms:
            raise ValueError("query analyzed to zero terms")
        search = TFIPFSearch(
            self,
            stopping=stopping or AdaptiveStopping(),
            group_size=group_size,
        )
        return search.search(terms, k)

    # -- persistent queries ------------------------------------------------------------

    def post_persistent_query(
        self, query: str, callback: Callable[[Document], None]
    ) -> Subscription:
        """Register a persistent exhaustive query (Section 5.1).

        The callback fires for every *future* matching publication (the
        current matches are baselined silently); run an exhaustive search
        first for those, as PFS does.  Raises ``ValueError`` for a query
        that analyzes to no terms.
        """
        sub, _ = self.standing.post(self.analyze_query(query))
        current = [
            doc_id
            for peer in self.peers
            if peer.store.bloom_filter.contains_all(sub.terms)
            for doc_id in exhaustive_local_match(peer.store.index, sub.terms)
        ]
        self._callbacks[sub.sub_id] = callback
        self.standing.baseline(sub, current)
        return sub

    def cancel_persistent_query(self, sub_id: int) -> None:
        """Deregister a persistent query; raises ``KeyError`` for an
        unknown id."""
        self.standing.cancel(sub_id)
        del self._callbacks[sub_id]

    # -- membership -----------------------------------------------------------------------

    def set_online(self, peer_id: int, online: bool) -> None:
        """Toggle a peer's availability (offline peers aren't contacted,
        but their directory entries — and filters — remain, so searches
        can still discover that matching documents exist; Section 2)."""
        self._peer(peer_id).online = online

    def _peer(self, peer_id: int) -> PlanetPPeer:
        if not 0 <= peer_id < len(self.peers):
            raise KeyError(f"no peer {peer_id} in this community")
        return self.peers[peer_id]

    def __len__(self) -> int:
        return len(self.peers)

    def num_documents(self) -> int:
        """Total documents published across all peers."""
        return len(self._doc_owner)

    def __repr__(self) -> str:
        return f"InProcessCommunity(peers={len(self.peers)}, docs={self.num_documents()})"
