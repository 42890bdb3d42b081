"""Who is in the community and who is believed reachable, written once.

Section 3: a peer's belief that a member is on-line is local and never
gossiped; a failed contact marks the member off-line, and one off-line
for longer than ``t_dead_s`` (T_Dead) is dropped.  :class:`MemberTable`
holds those rules for one peer, sans-IO like
:class:`~repro.gossip.core.GossipCore` (the time is passed in; no clock,
RNG, socket or metrics).  The simulator's
:class:`~repro.gossip.simpeer.GossipPeer` and the socket node
:class:`~repro.net.node.NetworkPeer` both drive it, each turning its
answers into its own counters and trace events.

The owner is always a member.  The on-line belief is a slot array indexed
by peer id, which the simulator's target selectors sample directly; it
grows on demand, since a socket node's ids are sparse.  Only ids below
``max(slots, MAX_PEER_ID + 1)`` are admitted, so an id read off the wire
cannot size the array.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.constants import (
    MAX_PEER_ID,
    NET_CONTACT_BACKOFF_BASE_S,
    NET_CONTACT_BACKOFF_MAX_S,
    GossipConfig,
)

__all__ = ["MemberTable"]


class MemberTable:
    """One peer's members, its on-line beliefs, contact backoff and T_Dead."""

    __slots__ = (
        "owner",
        "config",
        "limit",
        "online",
        "offline_since",
        "contact_failures",
        "contact_backoff_until",
        "_live",
    )

    def __init__(self, owner: int, config: GossipConfig, slots: int = 0) -> None:
        #: admitted ids are 0 <= pid < limit.
        self.limit = max(slots, MAX_PEER_ID + 1)
        if not 0 <= owner < self.limit:
            raise ValueError(f"peer id {owner} is outside 0..{self.limit - 1}")
        self.owner = owner
        self.config = config
        #: online[p] — p is a member believed reachable.
        self.online = np.zeros(max(slots, owner + 1), dtype=bool)
        self.online[owner] = True
        #: the members believed off-line, with the time each was marked so.
        self.offline_since: dict[int, float] = {}
        #: consecutive failed contacts per member, feeding the backoff.
        self.contact_failures: dict[int, int] = {}
        #: when a member becomes a rumor target again after failed contacts.
        self.contact_backoff_until: dict[int, float] = {}
        #: :meth:`live` without backoff, until the online set next changes
        #: (a node asks per query, per RPC reply and per held document).
        self._live: list[int] | None = None

    def __len__(self) -> int:
        """The member count (the owner included)."""
        return int(np.count_nonzero(self.online)) + len(self.offline_since)

    def __contains__(self, pid: int) -> bool:
        return self.is_online(pid) or pid in self.offline_since

    def admits(self, pid: int) -> bool:
        """Whether ``pid`` is an id this table may hold; evidence about any
        other id is ignored."""
        return 0 <= pid < self.limit

    def is_online(self, pid: int) -> bool:
        """Whether ``pid`` is a member believed reachable."""
        return 0 <= pid < self.online.size and bool(self.online[pid])

    def members(self) -> list[int]:
        """Every member id, sorted."""
        return sorted(np.flatnonzero(self.online).tolist() + list(self.offline_since))

    def live(self, now: float | None = None) -> list[int]:
        """Members other than the owner believed reachable, sorted — rumor
        targets, search candidates, replica holders.  Given ``now``, those
        still inside their contact backoff are left out."""
        if self._live is None:
            self._live = [pid for pid in np.flatnonzero(self.online).tolist() if pid != self.owner]
        backoff = self.contact_backoff_until
        if now is None or not backoff:
            return list(self._live)
        return [pid for pid in self._live if backoff.get(pid, 0.0) <= now]

    # -- evidence ----------------------------------------------------------------

    def seen_alive(self, pid: int, *, hearsay: bool = False) -> bool:
        """Evidence ``pid`` is alive: admit it on-line.  First-hand evidence
        (its own JOIN/REJOIN rumor, a successful contact) ends its contact
        backoff; ``hearsay`` (a row another member relayed) leaves the
        backoff running, so rumor rounds still wait it out.  Returns True
        when it was a member believed off-line (it came back)."""
        if not hearsay and pid in self.contact_failures:
            del self.contact_failures[pid], self.contact_backoff_until[pid]
        if self.is_online(pid) or not self.admits(pid):
            return False
        self._fit(pid)
        self.online[pid] = True
        self._live = None
        return self.offline_since.pop(pid, None) is not None

    def seen_dead(self, pid: int, now: float) -> None:
        """A row whose sender believes ``pid`` dead: an unknown member is
        admitted off-line with its T_Dead clock started; a known one is
        left as it is (a running clock keeps running)."""
        if not self.is_online(pid) and self.admits(pid):
            self._fit(pid)
            self.offline_since.setdefault(pid, now)

    def contact_failed(self, pid: int, now: float) -> tuple[bool, int]:
        """A contact with member ``pid`` failed: believe it off-line and
        back off exponentially.  Returns ``(went off-line, consecutive
        failures)``; a non-member is ignored."""
        if pid not in self:
            return False, 0
        failures = self.contact_failures.get(pid, 0) + 1
        self.contact_failures[pid] = failures
        self.contact_backoff_until[pid] = now + min(
            NET_CONTACT_BACKOFF_BASE_S * 2.0 ** (failures - 1),
            NET_CONTACT_BACKOFF_MAX_S,
        )
        went_offline = bool(self.online[pid])
        if went_offline:
            self.online[pid] = False
            self.offline_since[pid] = now
            self._live = None
        return went_offline, failures

    def expire(self, now: float) -> list[int]:
        """Drop the members continuously off-line for more than T_Dead;
        returns their ids."""
        t_dead = self.config.t_dead_s
        dead = [pid for pid, since in self.offline_since.items() if now - since > t_dead]
        for pid in dead:
            del self.offline_since[pid]
            self.contact_failures.pop(pid, None)
            self.contact_backoff_until.pop(pid, None)
        return dead

    # -- bootstrap ---------------------------------------------------------------

    def establish(self, pids: Sequence[int] | np.ndarray) -> None:
        """Bootstrap a fresh table into an established community: every
        one of ``pids`` is a member believed on-line."""
        self._fit(int(max(pids)))
        self.online[pids] = True
        self._live = None

    def adopt(self, donor: MemberTable) -> None:
        """Take on a donor's members and beliefs (a join snapshot); our
        own contact history starts over, and we are a member."""
        self.online = donor.online.copy()
        self._live = None
        self.offline_since = dict(donor.offline_since)
        self.contact_failures.clear()
        self.contact_backoff_until.clear()
        self.seen_alive(self.owner)

    def _fit(self, pid: int) -> None:
        size = self.online.size
        if pid >= size:
            grown = np.zeros(max(pid + 1, 2 * size), dtype=bool)
            grown[:size] = self.online
            self.online = grown
