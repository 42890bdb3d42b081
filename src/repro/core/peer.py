"""A PlanetP peer: local data store plus its replicated directory.

The directory (Figure 1) maps every known member to its address and
Bloom filter copy (who is believed on-line is a gossiping peer's
:class:`~repro.gossip.members.MemberTable`).  In the in-process community the directory
entries are filled by the community's replication step (instant by
default, mirroring the paper's search simulator where directories have
converged); the gossip subpackage models how that replication behaves
over time and bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bloom.filter import BloomFilter
from repro.bloom.matcher import FilterMatrix
from repro.constants import BloomConfig
from repro.core.datastore import LocalDataStore
from repro.text.analyzer import Analyzer
from repro.text.document import Document
from repro.text.xmlsnippets import XMLSnippet

__all__ = ["PeerEntry", "PlanetPPeer"]


@dataclass
class PeerEntry:
    """One row of the replicated global directory."""

    peer_id: int
    address: str
    bloom_filter: BloomFilter | None = None
    filter_version: int = -1


class PlanetPPeer:
    """One community member (library form)."""

    def __init__(
        self,
        peer_id: int,
        address: str | None = None,
        analyzer: Analyzer | None = None,
        bloom_config: BloomConfig | None = None,
    ) -> None:
        if peer_id < 0:
            raise ValueError("peer_id must be non-negative")
        self.peer_id = peer_id
        self.address = address or f"peer://{peer_id}"
        self.store = LocalDataStore(analyzer=analyzer, bloom_config=bloom_config)
        #: replicated directory: peer_id -> entry (includes ourselves).
        self.directory: dict[int, PeerEntry] = {
            peer_id: PeerEntry(peer_id, self.address)
        }
        self.online = True
        #: stacked directory filters for batched query matching; lazily
        #: reconciled against the directory before each match, so in-place
        #: filter mutations (version bumps) and replacements are picked up.
        self._matrix = FilterMatrix()

    # -- publishing -----------------------------------------------------------

    def publish(self, item: Document | XMLSnippet) -> Document:
        """Publish a document to the community via this peer."""
        return self.store.publish(item)

    def remove(self, doc_id: str) -> Document:
        """Withdraw a published document."""
        return self.store.remove(doc_id)

    # -- directory maintenance ---------------------------------------------------

    def update_directory(
        self,
        peer_id: int,
        address: str,
        bloom_filter: BloomFilter,
        filter_version: int,
    ) -> bool:
        """Install/refresh another member's entry.

        Stale versions are ignored (gossip can deliver out of order).
        Returns whether the entry changed.
        """
        entry = self.directory.get(peer_id)
        if entry is None:
            self.directory[peer_id] = PeerEntry(
                peer_id, address, bloom_filter, filter_version
            )
            return True
        changed = False
        if address and entry.address != address:
            # Gossip can deliver a fresher address (rejoin on a new port).
            entry.address = address
            changed = True
        if filter_version > entry.filter_version:
            entry.bloom_filter = bloom_filter
            entry.filter_version = filter_version
            changed = True
        return changed

    def drop_peer(self, peer_id: int) -> None:
        """Forget a member entirely (T_Dead expiry)."""
        if peer_id == self.peer_id:
            raise ValueError("a peer cannot drop itself")
        self.directory.pop(peer_id, None)

    def directory_matrix(self) -> FilterMatrix:
        """The batched view of every replicated filter (self included,
        backed by the live store filter), reconciled with the directory."""
        self._matrix.sync(self._directory_filters())
        return self._matrix

    def _directory_filters(self):
        for pid, entry in self.directory.items():
            if pid == self.peer_id:
                yield pid, self.store.bloom_filter
            elif entry.bloom_filter is not None:
                yield pid, entry.bloom_filter

    def candidate_peers(self, terms: list[str]) -> list[int]:
        """Peers whose replicated filter may match *all* ``terms``
        (the exhaustive-search candidate set, Section 5.1).

        The query is hashed once and tested against every directory filter
        in a single vectorized pass, instead of per-peer probing.
        """
        return sorted(self.directory_matrix().match_all_terms(terms))

    def __repr__(self) -> str:
        return (
            f"PlanetPPeer(id={self.peer_id}, docs={len(self.store)}, "
            f"directory={len(self.directory)})"
        )
