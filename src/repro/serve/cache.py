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

The fold lives in :mod:`repro.gossip.directory`, beside its mix
primitives and below every plane that keys on it (the browse handler
included), and is re-exported here.

Under the partial-view mode the same fold additionally covers the
node's foreign-shard summary filters (whose freshness changes which
shards a search fans out to).  Invalidation still covers remote
publishes either way — a BF_UPDATE bumps the member's replicated
``filter_version`` even when its full filter was dropped.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from repro.gossip.directory import directory_generation
from repro.obs import Registry, global_registry

__all__ = ["ResultCache", "directory_generation"]


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
