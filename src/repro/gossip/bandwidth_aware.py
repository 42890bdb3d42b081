"""Gossip-target selection policies.

*Flat* selection (the base algorithm) picks uniformly among believed-online
peers.  The *bandwidth-aware* policy (Section 7.2) divides peers into fast
(>= 512 Kb/s) and slow (modem) classes:

* a fast peer rumoring picks a slow target with probability 1%, otherwise
  a fast one; its anti-entropy always targets a fast peer;
* a slow peer rumoring targets slow peers only — unless it is the rumor's
  source, in which case its first push goes to a fast peer so the rumor
  enters the fast tier immediately; its anti-entropy is uniform.

Selection is rejection sampling against the peer's
:class:`~repro.gossip.members.MemberTable` (its on-line slot array; the
simulator never consults contact backoff): draw from the class pool, keep
if believed online, fall back to a scan of the pool when the pool is
mostly offline.  This keeps target choice O(1) in the common case instead
of O(N) per gossip round.
"""

from __future__ import annotations

import numpy as np

from repro.constants import BW_AWARE_FAST_TO_SLOW_PROB, FAST_LINK_THRESHOLD_BPS
from repro.gossip.members import MemberTable

__all__ = ["FlatSelector", "BandwidthAwareSelector"]

_MAX_REJECTS = 24


def _sample_from_pool(
    pool: np.ndarray,
    members: MemberTable,
    rng: np.random.Generator,
) -> int | None:
    """A believed-online member of ``pool`` other than the owner, or None."""
    if pool.size == 0:
        return None
    owner = members.owner
    online = members.online
    for _ in range(_MAX_REJECTS):
        pid = int(pool[rng.integers(0, pool.size)])
        if pid != owner and online[pid]:
            return pid
    # Sparse pool: scan for valid candidates once.
    mask = online[pool]
    candidates = pool[mask]
    candidates = candidates[candidates != owner]
    if candidates.size == 0:
        return None
    return int(candidates[rng.integers(0, candidates.size)])


class FlatSelector:
    """Uniform selection among all believed-online peers."""

    __slots__ = ("_all",)

    def __init__(self, num_peer_slots: int) -> None:
        self._all = np.arange(num_peer_slots)

    def rumor_target(
        self,
        members: MemberTable,
        rng: np.random.Generator,
        is_rumor_source: bool = False,
    ) -> int | None:
        """Target for a rumoring round."""
        return _sample_from_pool(self._all, members, rng)

    def ae_target(
        self, members: MemberTable, rng: np.random.Generator
    ) -> int | None:
        """Target for an anti-entropy round."""
        return _sample_from_pool(self._all, members, rng)


class BandwidthAwareSelector:
    """The Section 7.2 fast/slow tiered policy."""

    __slots__ = ("fast_pool", "slow_pool", "is_fast", "_all")

    def __init__(self, link_speeds: np.ndarray) -> None:
        speeds = np.asarray(link_speeds, dtype=float)
        self.is_fast = speeds >= FAST_LINK_THRESHOLD_BPS
        self.fast_pool = np.flatnonzero(self.is_fast)
        self.slow_pool = np.flatnonzero(~self.is_fast)
        self._all = np.arange(speeds.size)

    def rumor_target(
        self,
        members: MemberTable,
        rng: np.random.Generator,
        is_rumor_source: bool = False,
    ) -> int | None:
        """Tier-aware rumor target (fast->fast with 1% slow; slow->slow
        unless the peer originated the rumor)."""
        owner_fast = bool(self.is_fast[members.owner])
        if owner_fast:
            want_slow = rng.random() < BW_AWARE_FAST_TO_SLOW_PROB
            pool = self.slow_pool if want_slow else self.fast_pool
            target = _sample_from_pool(pool, members, rng)
            if target is None:  # chosen tier empty/offline: try the other
                other = self.fast_pool if want_slow else self.slow_pool
                target = _sample_from_pool(other, members, rng)
            return target
        # Slow peer: push the rumor into the fast tier if it originated it,
        # otherwise stay among slow peers so it cannot throttle fast ones.
        pool = self.fast_pool if is_rumor_source else self.slow_pool
        target = _sample_from_pool(pool, members, rng)
        if target is None:
            target = _sample_from_pool(self._all, members, rng)
        return target

    def ae_target(
        self, members: MemberTable, rng: np.random.Generator
    ) -> int | None:
        """Anti-entropy target: fast peers reconcile with fast peers;
        slow peers pick uniformly."""
        if bool(self.is_fast[members.owner]):
            target = _sample_from_pool(self.fast_pool, members, rng)
            if target is None:
                target = _sample_from_pool(self._all, members, rng)
            return target
        return _sample_from_pool(self._all, members, rng)
