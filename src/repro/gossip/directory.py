"""A peer's replicated view of the global directory: what it knows.

In the prototype the directory holds every member's name, address and
Bloom filter (Figure 1).  This module holds the part gossip reasons over:

* the set of rumor ids the peer has learned (its information state — two
  peers whose rumor sets are equal have identical directories, since every
  directory change is a rumor);
* an O(1)-comparable digest of that set (an incremental XOR of mixed
  rumor ids), used for the cheap "same directory?" check that keeps
  stable-state anti-entropy traffic negligible;
* the serve cache's directory generation, a fingerprint of the filters
  and on-line beliefs a search ranks against.

Who is a member and who is believed reachable is
:class:`~repro.gossip.members.MemberTable`'s.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.net.node import NetworkPeer

__all__ = [
    "RumorKnowledge",
    "digest_of_rids",
    "mix_rumor_id",
    "mix_rumor_ids",
    "mix_parts",
    "member_mix",
    "summary_mix",
    "directory_generation",
]

_MIX = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def mix_parts(*parts: int) -> int:
    """Avalanche a small integer tuple into one 64-bit hash
    (splitmix64 finalizer, applied per part).

    The building block of the serve cache's directory generation: each
    member contributes one mix, the mixes are XOR-folded (order-free),
    and any single-field perturbation avalanches the fold.
    """
    h = _MIX
    for p in parts:
        h = (h ^ (p & _MASK)) * 0xBF58476D1CE4E5B9 & _MASK
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK
        h ^= h >> 31
    return h


def member_mix(
    pid: int, filter_version: int, bloom_version: int, online: bool | int
) -> int:
    """One member's contribution to a directory generation.

    ``bloom_version`` is the replica filter's mutation counter, or -1
    when no full filter is held (partial views drop out-of-shard
    filters; the distinct sentinel keeps "absent" and "version 0"
    apart).  The final slot is the online flag as 0/1 — see
    :func:`summary_mix` for why the value 2 is reserved.
    """
    return mix_parts(pid, filter_version, bloom_version, 1 if online else 0)


def summary_mix(shard: int, version: int, member_count: int) -> int:
    """A foreign shard summary's contribution to a directory generation.

    Under partial views a node's search answer also depends on the
    coarse per-shard summaries it fans out over, so their freshness
    joins the fingerprint.  The final slot is the constant 2 — a value
    :func:`member_mix` can never produce in that position — so a summary
    contribution cannot collide with any member contribution.
    """
    return mix_parts(shard, version, member_count, 2)


def directory_generation(node: NetworkPeer) -> int:
    """Fingerprint of the directory state a search would rank against
    (the serve cache's key, :mod:`repro.serve.cache`).

    XOR of per-member :func:`member_mix` values and, under partial
    views, a :func:`summary_mix` per foreign shard summary, so it is
    order-insensitive and O(members) to compute.  Every input is a
    counter the existing layers already maintain: the store's publish
    counter and live filter version for ourselves; the replicated
    ``filter_version``, the replica filter's mutation ``version``, and
    the member table's on-line belief for everyone else.
    """
    store = node.peer.store
    own = node.peer_id
    gen = member_mix(own, store.filter_version, store.bloom_filter.version, True)
    is_online = node.membership.is_online
    for pid, entry in node.peer.directory.items():
        if pid == own:
            continue
        bf = entry.bloom_filter
        gen ^= member_mix(
            pid, entry.filter_version, bf.version if bf is not None else -1, is_online(pid)
        )
    pview = getattr(node, "pview", None)
    if pview is not None:
        for shard, summary in pview.summaries.items():
            if shard != pview.home:
                gen ^= summary_mix(shard, summary.version, summary.member_count)
    return gen


def mix_rumor_id(rid: int) -> int:
    """SplitMix-style scramble so XOR digests don't cancel structurally.

    One function behind every :class:`RumorKnowledge`, so a simulated
    and a real directory digest are comparable.
    """
    x = (rid + 1) * _MIX & _MASK
    x ^= x >> 31
    x = x * 0xBF58476D1CE4E5B9 & _MASK
    x ^= x >> 29
    return x


def mix_rumor_ids(rids: Sequence[int] | np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix_rumor_id`: scramble a batch of rumor ids.

    uint64 arithmetic wraps modulo 2**64, matching the scalar masks, so
    ``mix_rumor_ids(rids)[i] == mix_rumor_id(rids[i])`` exactly.
    """
    x = (np.asarray(rids, dtype=np.uint64) + np.uint64(1)) * np.uint64(_MIX)
    x ^= x >> np.uint64(31)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(29)
    return x


def digest_of_rids(rids: Sequence[int]) -> int:
    """The XOR digest of a whole rumor-id set, computed from scratch.

    Equivalent to folding :func:`mix_rumor_id` over ``rids`` one at a
    time, but vectorized.  Used when a directory replica is rebuilt
    wholesale — a simulation bootstrap, or a restarting node reloading
    its persisted rumor knowledge from a :mod:`repro.store` checkpoint —
    so the recomputed digest is bit-identical to the incrementally
    maintained one and anti-entropy digest comparisons stay meaningful
    across a restart.
    """
    rid_list = list(rids)
    if not rid_list:
        return 0
    return int(np.bitwise_xor.reduce(mix_rumor_ids(rid_list)))


class RumorKnowledge:
    """The rumor ids a peer has learned, plus their O(1) XOR digest.

    The information state :class:`~repro.gossip.core.GossipCore` reasons
    over (a bare one in both drivers; membership is the member table's).
    """

    __slots__ = ("known", "digest")

    def __init__(self) -> None:
        self.known: set[int] = set()
        self.digest: int = 0

    def learn(self, rid: int) -> bool:
        """Record rumor ``rid`` as known; returns False if already known."""
        if rid in self.known:
            return False
        self.known.add(rid)
        self.digest ^= mix_rumor_id(rid)
        return True

    def learn_many(self, rids: Iterable[int]) -> list[int]:
        """Batch :meth:`learn`; returns the newly-learned ids in order.

        Snapshots and checkpoints deliver whole id sets at once, so the
        digest is updated with one vectorized scramble + XOR-reduce
        instead of one :func:`mix_rumor_id` call per rumor.
        """
        fresh = list(dict.fromkeys(r for r in rids if r not in self.known))
        if not fresh:
            return []
        self.known.update(fresh)
        self.digest ^= digest_of_rids(fresh)
        return fresh

    def knows(self, rid: int) -> bool:
        """Whether this peer knows rumor ``rid``."""
        return rid in self.known

    def missing_from(self, other_known: set[int]) -> set[int]:
        """Rumor ids in ``other_known`` that this peer lacks."""
        return other_known - self.known

    def same_directory(self, other: RumorKnowledge) -> bool:
        """O(1) probabilistic equality via digests."""
        return self.digest == other.digest
