"""Version-keyed result cache for the query plane.

A search answer is a pure function of (query, k, the replicated
directory the searcher ranked against).  The directory already tracks
its own mutations precisely: every :class:`~repro.bloom.filter.
BloomFilter` bumps a ``version`` counter on mutation (the same counters
the compression memo keys on), and every publish bumps the owner's
``filter_version``.  :func:`directory_generation` folds those counters —
plus each member's online flag — into one 64-bit fingerprint, so a cache
entry is keyed on *exactly* the state that determined its answer:

* a matching document published anywhere bumps a filter version, the
  generation moves, and the stale entry is evicted on next lookup —
  stale results are never served;
* an unrelated directory change also moves the generation (the
  fingerprint is deliberately coarse: correctness over hit rate).

The generation is computed *before* a search runs; a directory change
racing the search leaves the entry keyed to the pre-search generation,
which the next lookup rejects.  Lookups cost O(members) integer reads —
no hashing of filter contents.

Under the partial-view mode the fingerprint is maintained *per shard*
(:func:`shard_generations`) and XOR-composed: the composition over any
sharding equals the flat fold, so flat and partial nodes fingerprint the
same state identically, and a partial node's generation additionally
covers its foreign-shard summary filters (whose freshness changes which
shards a search fans out to).  Invalidation still covers remote
publishes either way — a BF_UPDATE bumps the member's replicated
``filter_version`` even when its full filter was dropped.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.gossip.directory import compose_generations, member_mix, summary_mix
from repro.obs import Registry, global_registry

if TYPE_CHECKING:
    from repro.net.node import NetworkPeer

__all__ = ["ResultCache", "directory_generation", "shard_generations"]


def shard_generations(
    node: NetworkPeer, shard_of: Callable[[int], int] | None = None
) -> dict[int, int]:
    """Per-shard generation mixes of the directory state.

    ``shard_of`` maps pids to shards; it defaults to the node's partial
    view when one is attached, else the whole directory folds into a
    single shard 0 (the flat case).  Each shard's value is the XOR of
    its members' :func:`~repro.gossip.directory.member_mix` values; a
    partial node's foreign shards additionally fold a
    :func:`~repro.gossip.directory.summary_mix` of the shard summary it
    would fan a search out through.
    """
    pview = getattr(node, "pview", None)
    if shard_of is None:
        if pview is not None:
            shard_of = pview.shard_of
        else:
            shard_of = lambda pid: 0  # noqa: E731 — the flat case
    store = node.peer.store
    own = node.peer_id
    gens: dict[int, int] = {
        shard_of(own): member_mix(
            own, store.filter_version, store.bloom_filter.version, True
        )
    }
    for pid, entry in node.peer.directory.items():
        if pid == own:
            continue
        bf = entry.bloom_filter
        shard = shard_of(pid)
        gens[shard] = gens.get(shard, 0) ^ member_mix(
            pid,
            entry.filter_version,
            bf.version if bf is not None else -1,
            entry.online,
        )
    if pview is not None:
        for shard, summary in pview.summaries.items():
            if shard == pview.home:
                continue
            gens[shard] = gens.get(shard, 0) ^ summary_mix(
                shard, summary.version, summary.member_count
            )
    return gens


def directory_generation(node: NetworkPeer) -> int:
    """Fingerprint of the directory state a search would rank against.

    XOR of per-member (and, under partial views, per-shard-summary)
    mixes, so it is order-insensitive and O(members) to compute.  Every
    input is a counter the existing layers already maintain: the store's
    publish counter and live filter version for ourselves; the
    replicated ``filter_version``, the replica filter's mutation
    ``version``, and the online flag for everyone else.
    """
    return compose_generations(shard_generations(node).values())


class ResultCache:
    """LRU cache of search results keyed on (query key, generation).

    ``get`` misses on an absent key and *evicts* on a generation
    mismatch (counted separately as stale — the invalidation the bench
    asserts on).  Counters and the size gauge land in the registry's
    ``serve`` component.
    """

    def __init__(self, capacity: int, registry: Registry | None = None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple[int, Any]] = OrderedDict()
        obs = registry if registry is not None else global_registry()
        self._c_hits = obs.counter(
            "serve", "result_cache_hits_total", "cache lookups answered"
        )
        self._c_misses = obs.counter(
            "serve", "result_cache_misses_total", "cache lookups not answered"
        )
        self._c_rechecks = obs.counter(
            "serve",
            "result_cache_rechecks_total",
            "post-queue second lookups that still found nothing",
        )
        self._c_stale = obs.counter(
            "serve",
            "result_cache_stale_total",
            "entries evicted because the directory generation moved",
        )
        self._c_evictions = obs.counter(
            "serve", "result_cache_evictions_total", "LRU capacity evictions"
        )
        self._g_size = obs.gauge("serve", "result_cache_size", "entries held")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, generation: int, *, recheck: bool = False) -> Any | None:
        """The cached result for ``key`` at ``generation``, or None.

        ``recheck`` marks a second look for a query whose miss is already
        counted (it queued for admission meanwhile): failing again counts
        as a re-check, not as another miss."""
        c_unanswered = self._c_rechecks if recheck else self._c_misses
        entry = self._entries.get(key)
        if entry is None:
            c_unanswered.inc()
            return None
        gen, result = entry
        if gen != generation:
            del self._entries[key]
            self._g_size.set(len(self._entries))
            self._c_stale.inc()
            c_unanswered.inc()
            return None
        self._entries.move_to_end(key)
        self._c_hits.inc()
        return result

    def put(self, key: Hashable, generation: int, result: Any) -> None:
        """Install ``result`` for ``key`` as of ``generation``."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (generation, result)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._c_evictions.inc()
        self._g_size.set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry (capacity and counters unchanged)."""
        self._entries.clear()
        self._g_size.set(0)
