"""Batched query matching over many peers' Bloom filters.

The paper's search modes test a query against *every* member's replicated
filter (Section 5): exhaustive search needs "which peers may hold all
terms", ranked search needs the full peer × term hit matrix for eq. 3.
Doing that with one Python call per peer re-hashes the query N times and
pays N rounds of interpreter overhead — the dominant cost at the
2000-peer scale of Figure 5.

:class:`FilterMatrix` removes both: the filters' ``uint64`` word buffers
are stacked into one 2-D matrix (one row per peer), the query's terms are
hashed exactly once, and membership for all peers × all terms is answered
with a single vectorized gather.  The matrix is maintained incrementally —
:meth:`sync` reconciles against the owning directory and re-copies a row
only when that peer's filter object or mutation
:attr:`~repro.bloom.filter.BloomFilter.version` changed, so steady-state
queries touch no filter bytes at all.

Filters whose geometry differs from the matrix majority (different width
or hash count — not expected in a real community, where the filter
configuration is community-wide) are kept aside and matched individually,
preserving exact drop-in semantics.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.bloom.filter import BloomFilter
from repro.bloom.hashing import HashFamily

__all__ = ["FilterMatrix", "ShardedFilterMatrix"]


class FilterMatrix:
    """Stacked Bloom-filter rows supporting one-shot multi-peer matching."""

    def __init__(self) -> None:
        self._hashes: HashFamily | None = None
        self._words: np.ndarray | None = None  # (capacity, words_per_filter)
        self._row_of: dict[int, int] = {}
        self._peer_of: list[int] = []
        #: strong ref + version per row, to detect replaced/mutated filters.
        self._state: list[tuple[BloomFilter, int]] = []
        #: peers whose filters don't share the matrix geometry.
        self._irregular: dict[int, BloomFilter] = {}

    def __len__(self) -> int:
        return len(self._peer_of) + len(self._irregular)

    @property
    def peer_ids(self) -> list[int]:
        """Peers currently held (matrix rows plus irregular fallbacks)."""
        return [*self._row_of, *self._irregular]

    # -- maintenance -------------------------------------------------------

    def update(self, peer_id: int, bf: BloomFilter) -> None:
        """Install/refresh one peer's filter (no-op if object and version
        are unchanged since the last update)."""
        if self._hashes is None:
            self._hashes = bf.hashes
        if bf.hashes != self._hashes:
            self._drop_row(peer_id)
            self._irregular[peer_id] = bf
            return
        self._irregular.pop(peer_id, None)
        row = self._row_of.get(peer_id)
        if row is None:
            row = len(self._peer_of)
            self._ensure_capacity(row + 1)
            self._row_of[peer_id] = row
            self._peer_of.append(peer_id)
            self._state.append((bf, -1))
        held, version = self._state[row]
        if held is bf and version == bf.version:
            return
        assert self._words is not None
        self._words[row, :] = bf.bits.words
        self._state[row] = (bf, bf.version)

    def remove(self, peer_id: int) -> None:
        """Forget a peer (directory drop)."""
        self._irregular.pop(peer_id, None)
        self._drop_row(peer_id)

    def sync(self, filters: Iterable[tuple[int, BloomFilter]]) -> None:
        """Reconcile against the directory's current ``(peer_id, filter)``
        pairs: update changed rows, drop peers no longer present."""
        seen = set()
        for peer_id, bf in filters:
            seen.add(peer_id)
            self.update(peer_id, bf)
        for peer_id in [p for p in self._row_of if p not in seen]:
            self._drop_row(peer_id)
        for peer_id in [p for p in self._irregular if p not in seen]:
            del self._irregular[peer_id]

    def _drop_row(self, peer_id: int) -> None:
        row = self._row_of.pop(peer_id, None)
        if row is None:
            return
        last = len(self._peer_of) - 1
        assert self._words is not None
        if row != last:
            moved = self._peer_of[last]
            self._words[row, :] = self._words[last, :]
            self._state[row] = self._state[last]
            self._peer_of[row] = moved
            self._row_of[moved] = row
        self._peer_of.pop()
        self._state.pop()

    def _ensure_capacity(self, rows: int) -> None:
        assert self._hashes is not None
        words_per_filter = (self._hashes.num_bits + 63) // 64
        if self._words is None:
            cap = max(8, rows)
            self._words = np.zeros((cap, words_per_filter), dtype=np.uint64)
        elif rows > self._words.shape[0]:
            cap = max(rows, self._words.shape[0] * 2)
            grown = np.zeros((cap, words_per_filter), dtype=np.uint64)
            grown[: self._words.shape[0], :] = self._words
            self._words = grown

    # -- matching ----------------------------------------------------------

    def _gather_hits(self, positions: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Bit values at ``positions`` for every row: ``(peers, (P, len))``."""
        count = len(self._peer_of)
        if count == 0 or positions.size == 0:
            return list(self._peer_of), np.ones((count, positions.size), dtype=bool)
        assert self._words is not None
        idx = positions.ravel()
        cols = (idx >> 6).astype(np.int64)
        masks = np.uint64(1) << (idx & 63).astype(np.uint64)
        sub = self._words[:count, cols]
        return list(self._peer_of), (sub & masks[None, :]) != 0

    def hit_matrix(self, terms: Sequence[str]) -> tuple[list[int], np.ndarray]:
        """Per-peer, per-term membership: ``(peer_ids, bool (P, T))``.

        The query is hashed once; irregular filters are appended as extra
        rows computed individually.
        """
        term_list = list(terms)
        if self._hashes is None or not term_list:
            peers = self.peer_ids
            return peers, np.ones((len(peers), len(term_list)), dtype=bool)
        positions = self._hashes.positions_many(term_list)  # (T, k)
        peers, bit_hits = self._gather_hits(positions)
        hits = bit_hits.reshape(len(peers), *positions.shape).all(axis=2)
        for peer_id, bf in self._irregular.items():
            peers.append(peer_id)
            hits = np.vstack([hits, bf.contains_each(term_list)[None, :]])
        return peers, hits

    def match_all_terms(self, terms: Sequence[str]) -> list[int]:
        """Peers whose filters may contain *every* term (unsorted)."""
        term_list = list(terms)
        if self._hashes is None or not term_list:
            return self.peer_ids
        positions = self._hashes.positions_many(term_list).ravel()
        peers, bit_hits = self._gather_hits(positions)
        ok = bit_hits.all(axis=1)
        matched = [pid for pid, hit in zip(peers, ok) if hit]
        matched.extend(
            pid for pid, bf in self._irregular.items() if bf.contains_all(term_list)
        )
        return matched

    # -- mapping convenience ------------------------------------------------

    def sync_mapping(self, filters: Mapping[int, BloomFilter]) -> None:
        """:meth:`sync` over a ``{peer_id: filter}`` mapping."""
        self.sync(filters.items())

    def __repr__(self) -> str:
        return (
            f"FilterMatrix(peers={len(self)}, "
            f"irregular={len(self._irregular)})"
        )


class ShardedFilterMatrix:
    """Per-shard :class:`FilterMatrix` rows plus one summary row per shard.

    The partial-view search path works in two resolutions: coarse
    per-shard summary filters (the OR of a shard's member filters)
    answer "which shards may hold these terms", and the full rows the
    node actually keeps (its home shard plus a bounded sample) answer
    "which *peers*".  This container holds both, keyed consistently:
    full rows live in a per-shard :class:`FilterMatrix`, summaries in a
    single matrix whose "peer ids" are shard ids.
    """

    def __init__(self) -> None:
        self._shards: dict[int, FilterMatrix] = {}
        self._summaries = FilterMatrix()
        self._shard_of: dict[int, int] = {}  # peer -> shard, for removal

    def __len__(self) -> int:
        """Full filter rows held (summaries not counted)."""
        return len(self._shard_of)

    @property
    def peer_ids(self) -> list[int]:
        """Peers with full rows, across all shards."""
        return list(self._shard_of)

    # -- maintenance -------------------------------------------------------

    def update(self, shard: int, peer_id: int, bf: BloomFilter) -> None:
        """Install/refresh one peer's full filter under its shard."""
        held = self._shard_of.get(peer_id)
        if held is not None and held != shard:
            self._shards[held].remove(peer_id)
        matrix = self._shards.get(shard)
        if matrix is None:
            matrix = self._shards[shard] = FilterMatrix()
        matrix.update(peer_id, bf)
        self._shard_of[peer_id] = shard

    def remove(self, peer_id: int) -> None:
        """Forget a peer's full row (no-op if absent)."""
        shard = self._shard_of.pop(peer_id, None)
        if shard is not None:
            self._shards[shard].remove(peer_id)

    def sync(self, rows: Iterable[tuple[int, int, BloomFilter]]) -> None:
        """Reconcile against ``(shard, peer_id, filter)`` triples: update
        changed rows, drop peers no longer present."""
        seen = set()
        for shard, peer_id, bf in rows:
            seen.add(peer_id)
            self.update(shard, peer_id, bf)
        for peer_id in [p for p in self._shard_of if p not in seen]:
            self.remove(peer_id)

    def set_summary(self, shard: int, bf: BloomFilter) -> None:
        """Install/refresh a shard's coarse summary filter."""
        self._summaries.update(shard, bf)

    # -- matching ----------------------------------------------------------

    def candidate_shards(
        self, terms: Sequence[str], all_terms: bool = False
    ) -> list[int]:
        """Shards whose summary may hold the query.

        ``all_terms=False`` (ranked search) keeps a shard on *any* term
        hit — a peer holding one query term still earns relevance score.
        ``all_terms=True`` (exhaustive search) requires every term.
        """
        shard_ids, hits = self._summaries.hit_matrix(terms)
        keep = hits.all(axis=1) if all_terms else hits.any(axis=1)
        return [shard for shard, ok in zip(shard_ids, keep) if ok]

    def hit_matrix(
        self, terms: Sequence[str], shards: Iterable[int] | None = None
    ) -> tuple[list[int], np.ndarray]:
        """Per-peer, per-term membership over full rows, optionally
        restricted to ``shards``: ``(peer_ids, bool (P, T))``."""
        wanted = None if shards is None else set(shards)
        peers: list[int] = []
        blocks: list[np.ndarray] = []
        for shard in sorted(self._shards):
            if wanted is not None and shard not in wanted:
                continue
            shard_peers, hits = self._shards[shard].hit_matrix(terms)
            peers.extend(shard_peers)
            blocks.append(hits)
        if not blocks:
            return [], np.zeros((0, len(terms)), dtype=bool)
        return peers, np.vstack(blocks)

    def match_all_terms(
        self, terms: Sequence[str], shards: Iterable[int] | None = None
    ) -> list[int]:
        """Peers (with full rows) whose filters may contain every term."""
        wanted = None if shards is None else set(shards)
        matched: list[int] = []
        for shard in sorted(self._shards):
            if wanted is not None and shard not in wanted:
                continue
            matched.extend(self._shards[shard].match_all_terms(terms))
        return matched

    def __repr__(self) -> str:
        return (
            f"ShardedFilterMatrix(peers={len(self)}, "
            f"shards={len(self._shards)}, summaries={len(self._summaries)})"
        )
