"""Partial-view membership: a sharded directory for very large communities.

The flat protocol replicates every member's Bloom filter everywhere —
O(N) filters and O(N) gossip state per node, which caps realistic
communities at a few thousand peers (the paper's own evaluation stops at
~1000).  Under the partial-view mode a node keeps *full* filters only
for:

* the members of its own **directory shard** — a consistent-hash of pids
  onto a small fixed set of shards (reusing the brokerage ring, with
  virtual points so arcs stay balanced), and
* a bounded **random sample** of out-of-shard peers, so ranked search
  has warm candidates beyond its home shard.

Every other member's filter is folded into one coarse **shard summary**
per foreign shard: the bitwise OR of that shard's member filters.  A
summary can never miss a term one of its members holds (Bloom unions
are false-negative-free), so query fan-out via summaries preserves the
directory's over-approximation guarantee — at the cost of having to ask
a member of the shard which *specific* peers hit.

Membership records (pid, address, online, filter_version) stay fully
replicated — they are ~30 bytes against a filter's kilobytes, and the
serve cache's directory generation still needs every member's version
tuple to invalidate on remote publishes.
"""

from __future__ import annotations

import random
from typing import Iterable

import numpy as np

from repro.bloom.diff import BloomDiff
from repro.bloom.filter import BloomFilter
from repro.bloom.hashing import fnv1a_64
from repro.bloom.matcher import ShardedFilterMatrix
from repro.brokerage.ring import ConsistentHashRing
from repro.constants import BloomConfig, PartialViewConfig
from repro.gossip.directory import mix_rumor_ids

__all__ = ["ShardMap", "ShardSummary", "PartialView"]

#: Bounds on the per-summary diff history.  Past either bound the history
#: is dropped and refresh replies fall back to full blooms — diffs are a
#: bandwidth optimisation, never required for correctness.
_MAX_DIFF_EVENTS = 16
_MAX_DIFF_POSITIONS = 4096

#: Virtual ring positions per shard: enough that each shard's arcs stay
#: near their fair share of the pid space.
POINTS_PER_SHARD = 64


class ShardMap:
    """Consistent-hash pids → shards, stable under *peer* churn.

    Shards (not peers) sit on the ring, each at :data:`POINTS_PER_SHARD`
    virtual positions; a pid maps to the shard owning its hash's
    successor position.  Because the ring's occupants are the fixed
    shard set, peers joining or leaving never remaps anyone — only
    adding/removing a *shard* moves assignments, and then only the
    ~1/num_shards of pids in the affected arcs.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.ring = ConsistentHashRing()
        self._shards: set[int] = set()
        self._cache: dict[int, int] = {}
        for shard in range(num_shards):
            self.add_shard(shard)

    @property
    def shards(self) -> list[int]:
        """The current shard ids, sorted."""
        return sorted(self._shards)

    def add_shard(self, shard: int) -> None:
        """Place a shard's virtual points on the ring."""
        if shard in self._shards:
            raise ValueError(f"shard {shard} already on the ring")
        for point in range(POINTS_PER_SHARD):
            pos = fnv1a_64(f"shard:{shard}:{point}".encode(), seed=13) % self.ring.max_id
            while True:  # linear-probe the (astronomically rare) collision
                try:
                    self.ring.add_broker(shard, pos)
                    break
                except ValueError:
                    pos = (pos + 1) % self.ring.max_id
        self._shards.add(shard)
        self._cache.clear()

    def remove_shard(self, shard: int) -> None:
        """Remove a shard; its arcs fall to the successor shards."""
        if shard not in self._shards:
            raise KeyError(shard)
        self.ring.remove_broker(shard)
        self._shards.discard(shard)
        self._cache.clear()

    def shard_of(self, pid: int) -> int:
        """The shard responsible for ``pid`` (memoized)."""
        shard = self._cache.get(pid)
        if shard is None:
            shard = self.ring.broker_for(f"pid:{pid}")
            self._cache[pid] = shard
        return shard

    def assignments(self, pids: Iterable[int]) -> dict[int, int]:
        """``{pid: shard}`` over ``pids``."""
        return {pid: self.shard_of(pid) for pid in pids}


class ShardSummary:
    """The coarse OR of one shard's member filters.

    Monotone like every other piece of gossip state: bits are only ever
    OR-ed in, so merging summaries from different peers in any order
    converges.  ``version`` counts local folds and adopts the larger
    value on install, giving remote consumers a cheap freshness signal;
    ``member_count`` is the folding node's census of the shard.

    ``token`` is a content-addressed fingerprint of the summary's bit
    set: the XOR of a splitmix64 scramble of every set position.  Two
    summaries with identical bits carry identical tokens regardless of
    the fold order that produced them — unlike ``version``, which counts
    local folds and so differs across nodes holding the same bits.
    Refresh requesters advertise their tokens; a responder whose summary
    extends that bit set answers with just the added positions
    (:meth:`diff_since`), falling back to the full bloom when the token
    is not in its bounded history.
    """

    __slots__ = ("shard", "bloom", "member_count", "version", "token", "_history")

    def __init__(self, shard: int, num_bits: int, num_hashes: int) -> None:
        self.shard = shard
        self.bloom = BloomFilter(num_bits, num_hashes)
        self.member_count = 0
        self.version = 0
        self.token = 0
        #: newest-last ``(pre_token, added_positions)`` events.
        self._history: list[tuple[int, np.ndarray]] = []

    def _absorb(self, added: np.ndarray) -> None:
        """Record newly-set positions: advance the token, log the event."""
        if added.size == 0:
            return
        pre = self.token
        self.token ^= int(np.bitwise_xor.reduce(mix_rumor_ids(added)))
        self._history.append((pre, added))
        if (
            len(self._history) > _MAX_DIFF_EVENTS
            or sum(len(a) for _, a in self._history) > _MAX_DIFF_POSITIONS
        ):
            self._history.clear()

    def fold_filter(self, bf: BloomFilter) -> None:
        """OR a member's full filter into the summary."""
        if bf.hashes != self.bloom.hashes:
            return  # foreign geometry: nothing sound to fold
        added_words = bf.bits.difference_words(self.bloom.bits)
        bits = np.unpackbits(added_words.view(np.uint8), bitorder="little")
        added = np.nonzero(bits[: self.bloom.num_bits])[0].astype(np.int64)
        self.bloom.union_inplace(bf)
        self.version += 1
        self._absorb(added)

    def fold_diff(self, diff: BloomDiff) -> None:
        """OR a member's gossiped filter diff into the summary."""
        if diff.num_bits != self.bloom.num_bits:
            return
        if diff.positions.size:
            hits = self.bloom.bits.get_many(diff.positions)
            added = diff.positions[~hits]
        else:
            added = diff.positions
        self.bloom.set_positions(diff.positions)
        self.version += 1
        self._absorb(added)

    def install(self, bloom: BloomFilter, member_count: int, version: int) -> None:
        """Adopt a remote summary: union the bits (monotone), take the
        newer census."""
        self.fold_filter(bloom)
        if version >= self.version:
            self.version = version
        if member_count > 0:
            self.member_count = member_count

    def install_diff(
        self, diff: BloomDiff, member_count: int, version: int
    ) -> None:
        """Adopt a remote summary served as a positions diff."""
        self.fold_diff(diff)
        if version >= self.version:
            self.version = version
        if member_count > 0:
            self.member_count = member_count

    def diff_since(self, token: int) -> np.ndarray | None:
        """Positions added since the summary carried ``token``.

        Returns an empty array when ``token`` is current (nothing to
        send), the accumulated added positions when ``token`` appears in
        the bounded history, and ``None`` when it does not — the caller
        must then fall back to the full bloom.  Served diffs are OR-ed
        in by the requester, so a stale or colliding token can only
        delay convergence toward the full-bloom path, never corrupt the
        monotone summary.
        """
        if token == self.token:
            return np.zeros(0, dtype=np.int64)
        chunks: list[np.ndarray] = []
        for pre, added in reversed(self._history):
            chunks.append(added)
            if pre == token:
                return np.unique(np.concatenate(chunks))
        return None


class PartialView:
    """One node's sharded knowledge of the community.

    Tracks which pids the node keeps full filters for (home shard plus
    the bounded sample), owns the per-foreign-shard summaries, and
    maintains the :class:`~repro.bloom.matcher.ShardedFilterMatrix` that
    ranked search fans out over.
    """

    def __init__(
        self,
        owner: int,
        config: PartialViewConfig | None = None,
        bloom: BloomConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.owner = owner
        self.config = config or PartialViewConfig()
        self.bloom_config = bloom or BloomConfig()
        self.shard_map = ShardMap(self.config.num_shards)
        self.home = self.shard_map.shard_of(owner)
        #: out-of-shard pids whose full filters we keep anyway.
        self.sample: set[int] = set()
        self.summaries: dict[int, ShardSummary] = {}
        #: kept members whose held filter grew from diffs alone: it may
        #: lack older terms until a full copy arrives.
        self.diff_only: set[int] = set()
        self.matrix = ShardedFilterMatrix()
        self._rng = rng if rng is not None else random.Random(owner)

    # -- membership classification ----------------------------------------

    def shard_of(self, pid: int) -> int:
        """The shard responsible for ``pid``."""
        return self.shard_map.shard_of(pid)

    def keeps_filter(self, pid: int) -> bool:
        """Whether this node stores ``pid``'s full filter."""
        return (
            pid == self.owner
            or self.shard_map.shard_of(pid) == self.home
            or pid in self.sample
        )

    def maybe_admit(self, pid: int) -> bool:
        """Admit an out-of-shard pid to the sample if there is room.

        Returns whether the pid's full filter should be kept.
        """
        if self.keeps_filter(pid):
            return True
        if len(self.sample) < self.config.sample_size:
            self.sample.add(pid)
            return True
        return False

    def forget(self, pid: int) -> None:
        """Drop a pid from the sample and the matrix (directory expiry)."""
        self.sample.discard(pid)
        self.diff_only.discard(pid)
        self.matrix.remove(pid)

    # -- summary maintenance -----------------------------------------------

    def summary_for(self, shard: int) -> ShardSummary:
        """The summary for ``shard``, created empty on first touch."""
        summary = self.summaries.get(shard)
        if summary is None:
            summary = ShardSummary(
                shard, self.bloom_config.num_bits, self.bloom_config.num_hashes
            )
            self.summaries[shard] = summary
        return summary

    def fold_filter(self, pid: int, bf: BloomFilter) -> None:
        """Account a foreign member's full filter in its shard summary.

        Home-shard members are excluded: their full filters are already
        first-class rows, and the home summary is recomputed fresh when
        served (see the node's shard-summary handler).
        """
        shard = self.shard_map.shard_of(pid)
        if shard == self.home:
            return
        self.summary_for(shard).fold_filter(bf)

    def fold_diff(self, pid: int, diff: BloomDiff) -> None:
        """Account a foreign member's gossiped diff in its shard summary."""
        shard = self.shard_map.shard_of(pid)
        if shard == self.home:
            return
        self.summary_for(shard).fold_diff(diff)

    # -- the search-side matrix --------------------------------------------

    def sync(self, filters: Iterable[tuple[int, BloomFilter]]) -> None:
        """Reconcile the sharded matrix: one full row per held filter
        (grouped by shard) plus one summary row per foreign shard."""
        self.matrix.sync(
            (self.shard_map.shard_of(pid), pid, bf) for pid, bf in filters
        )
        for shard, summary in self.summaries.items():
            if shard != self.home:
                self.matrix.set_summary(shard, summary.bloom)

    # -- accounting ---------------------------------------------------------

    def unknown_shards(self) -> list[int]:
        """Foreign shards with no summary yet.

        Query fan-out must include these unconditionally: a missing
        summary is an absence of evidence, not evidence that the shard
        holds nothing — skipping it would break the directory's
        over-approximation guarantee during warm-up.
        """
        return [
            shard
            for shard in self.shard_map.shards
            if shard != self.home and shard not in self.summaries
        ]

    def summary_bytes(self) -> int:
        """Raw bytes pinned by the per-shard summary filters."""
        return sum(s.bloom.num_bits // 8 for s in self.summaries.values())
