"""The Section 3 protocol, written once: what to gossip and when to stop.

:class:`GossipCore` owns a peer's rumor-knowledge state and takes every
rumor-mongering / anti-entropy decision as a plain method call.  It is
sans-IO — no clock, RNG, socket, byte size or membership: it is told what
arrived and answers with the rumor ids to ask for, ship, pull or retire.
:class:`~repro.gossip.simpeer.GossipPeer` turns the answers into
simulated sends of byte *counts* (Figures 2-5);
:class:`~repro.net.node.NetworkPeer` turns them into awaited RPCs with
real payloads.  Each driver keeps target selection, payload storage and
what a learned rumor does to its directory; liveness and T_Dead are
:class:`~repro.gossip.members.MemberTable`'s.

A round is a **rumor round** (push the ids of all hot rumors; the target
says which it needs and piggybacks the ids it recently retired — *partial
anti-entropy*; a rumor retires after ``RUMOR_GIVE_UP_COUNT`` consecutive
targets already knew it, Demers et al.'s counter variant) or, every
``anti_entropy_period``-th round and whenever nothing is hot, an
**anti-entropy round** (compare digests; on mismatch the target offers
the ids it learned recently — "message sizes are mostly proportional to
the number of changes being propagated" — and only a gap wider than that
window escalates to the full directory summary, whose size grows with
the community).  What a pull teaches is not re-spread; what a push
teaches is.  News of either kind snaps the gossip interval back to its
base; quiet anti-entropy contacts stretch it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.constants import (
    AE_RECENT_WINDOW,
    PARTIAL_AE_RECENT_RUMORS,
    RUMOR_GIVE_UP_COUNT,
    GossipConfig,
)
from repro.gossip.directory import RumorKnowledge
from repro.gossip.intervals import IntervalPolicy

__all__ = ["GossipCore", "RUMOR", "AE_PULL", "AE_PUSH"]

#: round modes: push hot rumor ids / pull by digest / push the full
#: summary unconditionally (the ``anti_entropy_only`` LAN-AE baseline).
RUMOR, AE_PULL, AE_PUSH = "rumor", "ae_pull", "ae_push"


class GossipCore:
    """One peer's rumor knowledge and the decisions taken over it."""

    __slots__ = (
        "config",
        "knowledge",
        "hot",
        "recent",
        "recent_learned",
        "intervals",
        "round_counter",
    )

    def __init__(self, config: GossipConfig) -> None:
        self.config = config
        self.knowledge = RumorKnowledge()
        #: actively-spread rumors: rid -> consecutive already-knew count.
        self.hot: dict[int, int] = {}
        #: recently retired rumor ids for the partial-AE piggyback.
        self.recent: deque[int] = deque(maxlen=PARTIAL_AE_RECENT_RUMORS)
        #: recently learned rumor ids, anti-entropy's cheap first level.
        self.recent_learned: deque[int] = deque(maxlen=AE_RECENT_WINDOW)
        self.intervals = IntervalPolicy(config)
        self.round_counter = 0

    @property
    def known(self) -> set[int]:
        """Every rumor id learned so far."""
        return self.knowledge.known

    @property
    def digest(self) -> int:
        """XOR digest of :attr:`known` (the "same directory?" check)."""
        return self.knowledge.digest

    def learn(self, rid: int, make_hot: bool) -> bool:
        """Record one rumor; False if it was already known.  ``make_hot``
        is True for rumors we mint or are pushed, False for pulled ones."""
        if not self.knowledge.learn(rid):
            return False
        self.recent_learned.append(rid)
        if make_hot:
            self.hot[rid] = 0
        self.intervals.reset()
        return True

    def adopt(self, rids: Iterable[int], recent: Iterable[int] | None = None) -> None:
        """Take on a whole id set (join snapshot, restored checkpoint)
        without spreading it.  ``recent`` is what enters the
        recently-learned window: the donor's own window where the snapshot
        carries one, nothing for a checkpoint, and by default every newly
        adopted id in the order given."""
        fresh = self.knowledge.learn_many(rids)
        self.recent_learned.extend(fresh if recent is None else recent)

    def missing(self, rids: Iterable[int]) -> list[int]:
        """The ids among ``rids`` we do not know, in the order given."""
        known = self.knowledge.known
        return [rid for rid in rids if rid not in known]

    def begin_round(self) -> tuple[str, list[int]]:
        """Start the next round: ``(mode, hot ids as it began)``.  The ids
        are what a rumor round pushes; in an anti-entropy round their
        presence vetoes the interval slow-down (:meth:`on_ae_nothing`)."""
        self.round_counter += 1
        hot_ids = list(self.hot)
        if self.config.anti_entropy_only:
            return AE_PUSH, hot_ids
        if hot_ids and self.round_counter % self.config.anti_entropy_period != 0:
            return RUMOR, hot_ids
        return AE_PULL, hot_ids

    def force_anti_entropy(self) -> None:
        """Make the next round anti-entropy whatever is hot (a returning
        peer catches up before it resumes rumoring)."""
        self.round_counter = -1

    def on_rumor_push(self, rids: Sequence[int]) -> tuple[list[int], list[int]]:
        """Target side of a push: ``(needed, piggyback)`` — the pushed ids
        we lack, and the recently retired ids the pusher did not mention."""
        piggyback: list[int] = []
        if self.config.use_partial_ae:
            pushed = set(rids)
            piggyback = [rid for rid in self.recent if rid not in pushed]
        # Receiving a rumor message re-accelerates gossip (Section 3).
        self.intervals.reset()
        return self.missing(rids), piggyback

    def on_rumor_reply(
        self, pushed: Sequence[int], needed: Sequence[int], piggyback: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """Pusher side of the reply: ``(ship, pull)`` — the ids whose
        payloads go to the target, and the piggybacked ids to fetch from
        it.  A pushed rumor the target needed starts its counter over; one
        it already knew counts toward giving up."""
        needed_set = set(needed)
        for rid in pushed:
            count = self.hot.get(rid)
            if count is None:
                continue  # retired while the exchange was in flight
            if rid in needed_set:
                self.hot[rid] = 0
            elif count + 1 >= RUMOR_GIVE_UP_COUNT:
                del self.hot[rid]
                self.recent.append(rid)
            else:
                self.hot[rid] = count + 1
        known = self.knowledge.known
        return [rid for rid in needed if rid in known], self.missing(piggyback)

    def on_ae_request(self, digest: int) -> tuple[list[int], int] | None:
        """Target side of a digest: None when the directories agree, else
        the cheap first level ``(recently learned ids, len(known))``."""
        if digest == self.knowledge.digest:
            return None
        return list(self.recent_learned), len(self.knowledge.known)

    def on_ae_nothing(self, had_hot: bool) -> None:
        """The target's directory matched ours; with nothing to spread
        either, the contact counts toward slowing down."""
        if not had_hot:
            self.intervals.record_no_news_contact()

    def on_ae_recent(
        self, rids: Sequence[int], their_count: int
    ) -> tuple[bool, list[int]]:
        """Initiator side of the first level: ``(need_summary, missing)``.
        If pulling the ``missing`` recent ids explains the whole gap, pull
        them (none missing: we know more than the target, which pull-only
        anti-entropy leaves to the target's own rounds).  Otherwise we
        diverged beyond the window (long offline stretch, fresh join):
        ask for the full summary, whose pull covers the recent ids too."""
        missing = self.missing(rids)
        return their_count > len(self.knowledge.known) + len(missing), missing
