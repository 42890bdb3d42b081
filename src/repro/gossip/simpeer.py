"""The simulated gossiping peer: the Section 3 protocol over byte counts.

:class:`GossipPeer` is the simulator's *driver* of
:class:`~repro.gossip.core.GossipCore`, which holds the protocol's rules
(rumor mongering with a give-up counter, two-level anti-entropy, the
partial-AE piggyback, the adaptive interval).  The core decides what is
pushed, needed, pulled and retired; this class turns each decision into
a ``world.send`` of the modelled size on the peer's own gossip timer,
picks targets, and feeds its :class:`~repro.gossip.members.MemberTable`
(liveness and T_Dead) what a learned rumor or a failed send says about
membership.

The AE-only baseline (``config.anti_entropy_only``, the paper's LAN-AE
curve) replaces every round with a *push* anti-entropy: the initiator
ships its full summary unconditionally and the target pulls what it lacks.

Implementation notes
--------------------
* Message contents are byte counts (:class:`MessageSizer`); rumor identity
  travels as Python-level ids.
* Per-message CPU cost (Table 2's 5 ms) is folded into the network's
  fixed latency by the simulation builder.
* Summaries/known-sets are read at delivery time rather than deep-copied
  at send time; state grows monotonically during an exchange so this only
  errs toward including a few extra ids, and it keeps N=5000 runs cheap.
* ``_handle_*`` methods run only at online peers: the simulated network
  drops a delivery whose target went offline while it was in flight.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import PEER_SUMMARY_BYTES, GossipConfig, bloom_filter_bytes
from repro.gossip.core import AE_PUSH, RUMOR, GossipCore
from repro.gossip.members import MemberTable
from repro.gossip.messages import MessageSizer
from repro.gossip.rumor import Rumor, RumorKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.gossip.simulation import GossipSimulation

__all__ = ["GossipPeer"]


class GossipPeer:
    """One community member in the gossip simulation."""

    __slots__ = (
        "pid",
        "world",
        "config",
        "sizer",
        "rng",
        "membership",
        "core",
        "online",
        "keys_shared",
        "_timer",
        "_timer_time",
    )

    def __init__(
        self,
        pid: int,
        world: GossipSimulation,
        rng: np.random.Generator,
        keys_shared: int = 0,
    ) -> None:
        self.pid = pid
        self.world = world
        self.config: GossipConfig = world.config
        self.sizer: MessageSizer = world.sizer
        self.rng = rng
        self.core = GossipCore(self.config)
        #: who is a member and who is believed reachable.
        self.membership = MemberTable(pid, self.config, world.num_slots)
        self.online = False
        self.keys_shared = keys_shared
        self._timer = None
        self._timer_time = float("inf")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, initial_delay: float | None = None, stable: bool = False) -> None:
        """Bring the peer online and start its gossip timer.

        ``stable`` starts the interval at the maximum (an established,
        quiescent community); the first round fires after ``initial_delay``
        (default: uniform within one interval, de-synchronizing peers).
        """
        self.online = True
        self.world.network.set_online(self.pid, True)
        if stable:
            self.core.intervals.interval = self.config.max_interval_s
        if initial_delay is None:
            initial_delay = float(self.rng.uniform(0.0, self.core.intervals.interval))
        self._schedule_timer(initial_delay)

    def go_offline(self) -> None:
        """Abrupt departure: stop gossiping, become unreachable."""
        self.online = False
        self.world.network.set_online(self.pid, False)
        self._cancel_timer()
        self.world.notify_offline(self.pid)

    def _mint(self, kind: RumorKind, payload_bytes: int) -> Rumor:
        """Create a rumor of our own and start spreading it."""
        rumor = self.world.registry.create(
            kind, self.pid, payload_bytes, self.world.sim.now
        )
        self.core.learn(rumor.rid, make_hot=True)
        return rumor

    def rejoin(self, new_keys: int = 0) -> Rumor:
        """Come back online, announcing a rejoin rumor.

        ``new_keys`` > 0 adds a Bloom-filter diff of that many keys to the
        rumor payload (the dynamic-scenario "Join" events).  Returns the
        minted rumor so the caller can register it for tracking.
        """
        payload = PEER_SUMMARY_BYTES
        if new_keys > 0:
            payload += bloom_filter_bytes(new_keys)
        self.online = True
        self.world.network.set_online(self.pid, True)
        rumor = self._mint(RumorKind.REJOIN, payload)
        # The returning peer catches up on everything it missed while away
        # before resuming normal rumoring (as the socket node's
        # ``announce_rejoin`` does).
        self.core.force_anti_entropy()
        self._schedule_timer(float(self.rng.uniform(0.0, 2.0)))
        self.world.notify_online(self.pid)
        return rumor

    def originate_update(self, payload_keys: int) -> Rumor:
        """Publish a Bloom filter update rumor of ``payload_keys`` new keys,
        priced by the Table 2 wire-size interpolation."""
        interval = self.core.intervals.interval
        rumor = self._mint(RumorKind.BF_UPDATE, bloom_filter_bytes(payload_keys))
        self._sooner_if_reset(interval)
        return rumor

    # ------------------------------------------------------------------
    # join protocol (new member bootstrap)
    # ------------------------------------------------------------------

    def begin_join(
        self, bootstrap: int, on_complete: Callable[[], None] | None = None
    ) -> Rumor:
        """Join the community via ``bootstrap``: introduce ourselves (our
        join rumor) and download the full directory snapshot.

        Returns the minted join rumor.
        """
        bf_bytes = bloom_filter_bytes(self.keys_shared)
        self.online = True
        self.world.network.set_online(self.pid, True)
        rumor = self._mint(RumorKind.JOIN, PEER_SUMMARY_BYTES + bf_bytes)
        self._send_join_request(bootstrap, rumor, on_complete)
        return rumor

    def _send_join_request(
        self, bootstrap: int, rumor: Rumor, on_complete: Callable[[], None] | None
    ) -> None:
        bf_bytes = bloom_filter_bytes(self.keys_shared)
        self.world.send(
            self.pid,
            bootstrap,
            self.sizer.join_request(bf_bytes),
            lambda: self.world.peers[bootstrap]._handle_join_request(
                self.pid, rumor.rid, on_complete
            ),
            on_failed=lambda: self._join_bootstrap_failed(rumor, on_complete),
        )

    def _join_bootstrap_failed(
        self, rumor: Rumor, on_complete: Callable[[], None] | None
    ) -> None:
        """Bootstrap target was offline: retry with another established peer."""
        candidates = [
            p.pid
            for p in self.world.peers
            if p.online and p.pid != self.pid and len(p.membership) > 1
        ]
        if not candidates:
            return
        bootstrap = int(candidates[int(self.rng.integers(0, len(candidates)))])
        self._send_join_request(bootstrap, rumor, on_complete)

    def _handle_join_request(
        self, joiner: int, join_rid: int, on_complete: Callable[[], None] | None
    ) -> None:
        """Bootstrap side: learn the join rumor, ship the directory snapshot."""
        self._learn([join_rid], make_hot=True)
        per_member_bf = bloom_filter_bytes(
            self.world.established_keys_per_peer
        )
        size = self.sizer.join_snapshot(len(self.membership), per_member_bf)
        self.world.send(
            self.pid,
            joiner,
            size,
            lambda: self.world.peers[joiner]._handle_join_snapshot(
                self.pid, on_complete
            ),
        )

    def _handle_join_snapshot(
        self, bootstrap: int, on_complete: Callable[[], None] | None
    ) -> None:
        """Joiner side: adopt the snapshot and start gossiping."""
        donor = self.world.peers[bootstrap]
        # The simulated snapshot carries the donor's recently-learned
        # window; a wire ``JoinSnapshot`` does not (DESIGN, divergence ii).
        self.core.adopt(donor.core.known, recent=donor.core.recent_learned)
        self.membership.adopt(donor.membership)
        self.world.notify_snapshot(self.pid, self.core.known)
        self._schedule_timer(float(self.rng.uniform(0.0, 2.0)))
        if on_complete is not None:
            on_complete()

    # ------------------------------------------------------------------
    # the gossip round
    # ------------------------------------------------------------------

    def _schedule_timer(self, delay: float) -> None:
        self._cancel_timer()
        self._timer = self.world.sim.schedule(delay, self._on_timer)
        self._timer_time = self.world.sim.now + delay

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.world.sim.cancel(self._timer)
            self._timer = None
            self._timer_time = float("inf")

    def _reschedule_sooner(self) -> None:
        """After an interval reset, pull the next round forward if the
        pending timer would fire later than one (new) interval from now."""
        if not self.online:
            return
        target = self.world.sim.now + self.core.intervals.interval
        if self._timer_time > target:
            self._schedule_timer(self.core.intervals.interval)

    def _sooner_if_reset(self, interval_before: float) -> None:
        """The core reset the interval during the last call: a simulated
        timer can be pulled forward (the socket node's loop sleeps out the
        old interval instead — DESIGN, divergence i)."""
        if self.core.intervals.interval < interval_before:
            self._reschedule_sooner()

    def _on_timer(self) -> None:
        self._timer = None
        self._timer_time = float("inf")
        if not self.online:
            return
        mode, hot_ids = self.core.begin_round()
        self.membership.expire(self.world.sim.now)
        if mode == AE_PUSH:
            self._round_ae_push()
        elif mode == RUMOR:
            self._round_rumor(hot_ids)
        else:
            self._round_ae_pull(had_hot=bool(hot_ids))
        self._schedule_timer(self.core.intervals.interval)

    # -- rumor rounds ------------------------------------------------------

    def _round_rumor(self, hot_ids: list[int]) -> None:
        is_source = any(
            self.world.registry.get(rid).origin == self.pid for rid in hot_ids
        )
        target = self.world.selector.rumor_target(
            self.membership, self.rng, is_rumor_source=is_source
        )
        if target is None:
            return
        self.world.send(
            self.pid,
            target,
            self.sizer.rumor_push(len(hot_ids)),
            lambda: self.world.peers[target]._handle_rumor_push(self.pid, hot_ids),
            on_failed=lambda: self._contact_failed(target),
        )

    def _handle_rumor_push(self, src: int, pushed_ids: list[int]) -> None:
        interval = self.core.intervals.interval
        needed, piggy = self.core.on_rumor_push(pushed_ids)
        self._sooner_if_reset(interval)
        self.world.send(
            self.pid,
            src,
            self.sizer.rumor_reply(len(needed), len(piggy)),
            lambda: self.world.peers[src]._handle_rumor_reply(
                self.pid, pushed_ids, needed, piggy
            ),
        )

    def _handle_rumor_reply(
        self, replier: int, pushed_ids: list[int], needed: list[int], piggy: list[int]
    ) -> None:
        ship, pull = self.core.on_rumor_reply(pushed_ids, needed, piggy)
        if ship:
            payload = self.world.registry.payload_total(ship)
            self.world.send(
                self.pid,
                replier,
                self.sizer.rumor_data(payload),
                lambda: self.world.peers[replier]._learn(ship, make_hot=True),
            )
        if pull:
            self._pull_from(replier, pull)

    def _learn(self, rids: list[int], make_hot: bool) -> None:
        """Learn delivered rumors and apply their membership effects."""
        interval = self.core.intervals.interval
        for rid in rids:
            if not self.core.learn(rid, make_hot):
                continue
            rumor = self.world.registry.get(rid)
            if rumor.kind is not RumorKind.BF_UPDATE:
                # A JOIN/REJOIN is its member's own evidence that it is
                # alive; a BF_UPDATE changes a filter, not membership.
                self.membership.seen_alive(rumor.origin)
            self.world.notify_learned(rid, self.pid)
        self._sooner_if_reset(interval)

    # -- anti-entropy rounds --------------------------------------------------

    def _round_ae_pull(self, had_hot: bool) -> None:
        target = self.world.selector.ae_target(self.membership, self.rng)
        if target is None:
            return
        digest = self.core.digest
        self.world.send(
            self.pid,
            target,
            self.sizer.ae_request(),
            lambda: self.world.peers[target]._handle_ae_request(
                self.pid, digest, had_hot
            ),
            on_failed=lambda: self._contact_failed(target),
        )

    def _handle_ae_request(self, src: int, src_digest: int, src_had_hot: bool) -> None:
        offer = self.core.on_ae_request(src_digest)
        if offer is None:
            self.world.send(
                self.pid,
                src,
                self.sizer.ae_nothing(),
                lambda: self.world.peers[src].core.on_ae_nothing(src_had_hot),
            )
        else:
            recent, count = offer
            self.world.send(
                self.pid,
                src,
                self.sizer.ae_recent(len(recent)),
                lambda: self.world.peers[src]._handle_ae_recent(
                    self.pid, recent, count
                ),
            )

    def _handle_ae_recent(
        self, summarizer: int, recent_ids: list[int], their_count: int
    ) -> None:
        need_summary, missing = self.core.on_ae_recent(recent_ids, their_count)
        if need_summary:
            self.world.send(
                self.pid,
                summarizer,
                self.sizer.pull_request(0),
                lambda: self.world.peers[summarizer]._send_summary(self.pid),
            )
        elif missing:
            self._pull_from(summarizer, missing)

    def _send_summary(
        self, dst: int, on_failed: Callable[[], None] | None = None
    ) -> None:
        """Ship the full directory summary, sized by the community."""
        self.world.send(
            self.pid,
            dst,
            self.sizer.ae_summary(len(self.membership)),
            lambda: self.world.peers[dst]._handle_ae_summary(self.pid),
            on_failed,
        )

    def _handle_ae_summary(self, summarizer: int) -> None:
        """A full summary arrived (pulled, or pushed by the AE-only
        baseline): pull whatever it lists that we lack."""
        missing = self.core.knowledge.missing_from(self.world.peers[summarizer].core.known)
        if missing:
            self._pull_from(summarizer, sorted(missing))
        # Digests differed but we had everything: we know more than the
        # target; pull-only AE leaves it to the target's own rounds.

    def _round_ae_push(self) -> None:
        """AE-only baseline: ship the full summary unconditionally."""
        target = self.world.selector.ae_target(self.membership, self.rng)
        if target is not None:
            self._send_summary(target, lambda: self._contact_failed(target))

    def _pull_from(self, holder: int, rids: list[int]) -> None:
        """Request specific rumor payloads (partial/full AE pull)."""
        self.world.send(
            self.pid,
            holder,
            self.sizer.pull_request(len(rids)),
            lambda: self.world.peers[holder]._handle_pull_request(self.pid, rids),
        )

    def _handle_pull_request(self, requester: int, rids: list[int]) -> None:
        have = [rid for rid in rids if self.core.knowledge.knows(rid)]
        if not have:
            return
        payload = self.world.registry.payload_total(have)
        self.world.send(
            self.pid,
            requester,
            self.sizer.rumor_data(payload),
            lambda: self.world.peers[requester]._learn(have, make_hot=False),
        )

    # -- failures ---------------------------------------------------------------

    def _contact_failed(self, target: int) -> None:
        """A contact attempt failed: believe the target is offline."""
        self.membership.contact_failed(target, self.world.sim.now)

    def __repr__(self) -> str:
        return (
            f"GossipPeer(pid={self.pid}, online={self.online}, "
            f"hot={len(self.core.hot)}, known={len(self.core.known)})"
        )
