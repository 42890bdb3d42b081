"""The partial-view plane: sharded-directory maintenance and search fan-out.

Under ``--partial-view`` (DESIGN §12) a node keeps full Bloom filters for
its home shard and a bounded sample only; every other shard is known by
one coarse OR-ed summary.  :class:`~repro.gossip.partialview.PartialView`
is that state (``node.pview``); :class:`PartialViewPlane` is everything
the mode does with it over the wire:

* **maintenance** — one step per gossip round, rotating through a summary
  pull (foreign summaries, answered as position diffs against the tokens
  we hold), a membership record trade (``ViewExchange``), and a backfill
  pull of home-shard filters we lack;
* **serving** — ``ShardSummaryRequest``, ``ViewExchange`` and
  ``ShardMatchQuery``, registered on the node's dispatch (a flat node
  still trades view records and answers the other two with "partial-view
  mode is off");
* **search fan-out** — a ranked or exhaustive search asks one member of
  each nominated foreign shard for its peers' term hits, through the
  search client's gated RPC.
"""

from __future__ import annotations

import asyncio
import struct
from collections.abc import Awaitable, Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.bloom.diff import BloomDiff
from repro.bloom.filter import BloomFilter
from repro.gossip.wire import (
    SHARD_MATCH_MAX_TERMS,
    ErrorReply,
    PeerRecord,
    ShardMatchQuery,
    ShardMatchResponse,
    ShardSummaryEntry,
    ShardSummaryReply,
    ShardSummaryRequest,
    SnapshotEntry,
    ViewExchange,
)
from repro.net.codec import CodecError
from repro.net.transport import TransportError

if TYPE_CHECKING:  # the node imports this module
    from repro.net.node import NetworkPeer

__all__ = ["PartialViewPlane", "Rpc"]

#: A caller's RPC to a member: ``(pid, msg) -> reply or None``.
Rpc = Callable[[int, object], Awaitable[object | None]]

#: Membership records traded per ViewExchange message.
_EXCHANGE_RECORDS = 16


class PartialViewPlane:
    """One node's partial-view maintenance, serving and shard fan-out."""

    def __init__(self, node: NetworkPeer) -> None:
        self.node = node
        self.pview = node.pview
        obs = node.obs
        # Directory memory is gauged in both modes so the two compare
        # (the fleet harness's partial-view memory gate reads these).
        self._g_filters_held = obs.gauge(
            "node", "full_filters_held", "Bloom filters stored in full (incl. own)"
        )
        self._g_filter_bytes = obs.gauge(
            "node", "directory_filter_bytes", "bytes pinned by full filters plus shard summaries"
        )
        node.add_handler(ShardSummaryRequest, self.on_shard_summaries)
        node.add_handler(ViewExchange, self.on_view_exchange)
        node.add_handler(ShardMatchQuery, self.on_shard_match)
        node.add_round_hook(self.maintenance_round)
        if self.pview is None:
            return
        self._c_backfills = obs.counter(
            "node", "partialview_backfills_total", "home-shard filter backfill requests"
        )
        self._c_diffs = obs.counter(
            "node", "partialview_summary_diffs_total", "shard summaries answered as position diffs"
        )
        self._c_fulls = obs.counter(
            "node",
            "partialview_summary_fulls_total",
            "shard summaries answered as full compressed blooms",
        )

    def _held_filters(self) -> list[tuple[int, BloomFilter]]:
        """Every full filter we hold, our own first."""
        node = self.node
        return [(node.peer_id, node.peer.store.bloom_filter)] + [
            (pid, entry.bloom_filter)
            for pid, entry in node.peer.directory.items()
            if pid != node.peer_id and entry.bloom_filter is not None
        ]

    def _lacks_full_filter(self, pid: int) -> bool:
        """Whether we hold no full copy of ``pid``'s filter: none at all,
        or only one grown from diffs that overtook it."""
        return self.node.peer.directory[pid].bloom_filter is None or pid in self.pview.diff_only

    def sync(self) -> None:
        """Reconcile the sharded search matrix with the filters we hold."""
        self.pview.sync(self._held_filters())

    # -- maintenance (initiator side) ---------------------------------------

    async def maintenance_round(self) -> None:
        """One step per gossip round, rotating through the three
        exchanges — foreign summary pull, membership record trade, and
        home-shard filter backfill — then the directory-memory gauges
        (a flat node only updates the gauges)."""
        if self.pview is not None:
            step = self.node.core.round_counter % 3
            if step == 1:
                await self.exchange_views()
            else:
                await self.pull_summaries(backfill=step == 2)
        self._update_gauges()

    def _update_gauges(self) -> None:
        """Full filters held (our own included) plus shard-summary bytes."""
        held = len(self._held_filters())
        nbytes = held * (self.node.bloom_config.num_bits // 8)
        if self.pview is not None:
            nbytes += self.pview.summary_bytes()
        self._g_filters_held.set(held)
        self._g_filter_bytes.set(nbytes)

    async def pull_summaries(self, *, backfill: bool = False, address: str | None = None) -> None:
        """One ``ShardSummaryRequest`` to a random member, its reply installed.

        By default it asks for every foreign summary, advertising the
        tokens of those we hold so the answer comes back as position
        diffs.  ``backfill`` asks instead for the home shard's member
        filters, and only while one is missing (a killed home member's
        filters are recoverable from any peer still holding them).
        ``address`` aims the pull at a raw address (the join warm-up);
        that one is best-effort — a bootstrap predating partial-view mode
        answers with an error, and the rotating pulls fill in the rest.
        """
        node, pview = self.node, self.pview
        if backfill:
            home = pview.home
            if not any(
                self._lacks_full_filter(pid) and pview.shard_of(pid) == home
                for pid in node.peer.directory
                if pid != node.peer_id
            ):
                return
            msg = ShardSummaryRequest((home,), True)
        else:
            # The home shard is excluded: its summary is always served full.
            msg = ShardSummaryRequest(
                (),
                False,
                tuple(
                    (shard, summary.token)
                    for shard, summary in sorted(pview.summaries.items())
                    if shard != pview.home and summary.version > 0
                ),
            )
        if address is not None:
            try:
                reply = await node.request_address(address, msg)
            except (TransportError, CodecError):
                return
        else:
            target = node.pick_target()
            if target is None:
                return
            if backfill:
                self._c_backfills.inc()
            reply = await node.request_peer(target, msg)
        if isinstance(reply, ShardSummaryReply):
            self._install_summary_reply(reply)

    async def exchange_views(self) -> None:
        """Trade a bounded sample of membership records with a member."""
        target = self.node.pick_target()
        if target is None:
            return
        want = _EXCHANGE_RECORDS
        reply = await self.node.request_peer(target, ViewExchange(self._sample_records(want), want))
        if isinstance(reply, ViewExchange):
            self.node.install_records(reply.records)

    def _install_summary_reply(self, reply: ShardSummaryReply) -> None:
        node, pview = self.node, self.pview
        num_bits = node.bloom_config.num_bits
        for entry in reply.entries:
            if entry.shard == pview.home:
                continue  # home knowledge is first-class, never coarse
            if entry.diff:
                # A position diff against the summary we advertised; OR'd
                # in monotonically, so applying it is always sound even if
                # our summary moved since the request went out.
                try:
                    diff = BloomDiff.from_bytes(entry.bloom)
                except (ValueError, EOFError, struct.error):
                    continue  # damaged diff: re-learned at the next refresh
                if diff.num_bits != num_bits:
                    continue
                pview.summary_for(entry.shard).install_diff(diff, entry.member_count, entry.version)
                continue
            bf = node.decode_filter(entry.bloom)
            if bf is None:
                continue  # damaged summary: re-learned at the next refresh
            pview.summary_for(entry.shard).install(bf, entry.member_count, entry.version)
        node.install_entries(reply.members)

    def _sample_records(self, limit: int) -> tuple[PeerRecord, ...]:
        """Our own record plus a bounded random sample of directory rows."""
        node = self.node
        records = [node.own_record()]
        pids = [pid for pid in node.peer.directory if pid != node.peer_id]
        take = max(0, limit - 1)
        if len(pids) > take:
            idx = node.rng.permutation(len(pids))[:take]
            pids = [pids[int(i)] for i in idx]
        records.extend(node.record_of(pid) for pid in pids)
        return tuple(records)

    # -- serving ------------------------------------------------------------

    def on_shard_summaries(self, msg: ShardSummaryRequest) -> object:
        """Serve shard summaries (as diffs where the asker's token allows)
        and, on request, the full member entries of the asked shards."""
        if self.pview is None:
            return ErrorReply("partial-view mode is off")
        node, pview = self.node, self.pview
        wanted = set(msg.shards) if msg.shards else None
        entries: list[ShardSummaryEntry] = []
        if wanted is None or pview.home in wanted:
            entries.append(self._home_summary_entry())
        census: dict[int, int] = {}
        for pid in node.peer.directory:
            shard = pview.shard_of(pid)
            census[shard] = census.get(shard, 0) + 1
        known = dict(msg.known)
        for shard, summary in sorted(pview.summaries.items()):
            if shard == pview.home:
                continue
            if wanted is not None and shard not in wanted:
                continue
            if summary.version == 0:
                continue  # nothing folded yet: an empty filter teaches nothing
            count = max(summary.member_count, census.get(shard, 0))
            if shard in known:
                positions = summary.diff_since(known[shard])
                if positions is not None:
                    self._c_diffs.inc()
                    blob = BloomDiff(node.bloom_config.num_bits, positions).to_bytes()
                    entries.append(
                        ShardSummaryEntry(shard, count, summary.version, blob, diff=True)
                    )
                    continue
            self._c_fulls.inc()
            entries.append(
                ShardSummaryEntry(shard, count, summary.version, summary.bloom.to_compressed())
            )
        members: tuple[SnapshotEntry, ...] = ()
        if msg.want_members:
            members = self._member_entries(wanted if wanted is not None else {pview.home})
        return ShardSummaryReply(tuple(entries), members)

    def _home_summary_entry(self) -> ShardSummaryEntry:
        """The home-shard summary, computed fresh from first-class filters.

        The version is a deterministic fold of the members' filter
        versions, so any home member serves a comparable freshness signal
        without coordination (it grows with every member publish)."""
        node, pview = self.node, self.pview
        store = node.peer.store
        bloom = BloomFilter(node.bloom_config.num_bits, node.bloom_config.num_hashes)
        bloom.union_inplace(store.bloom_filter)
        count = 1
        version = max(0, store.filter_version) + 1
        for pid, entry in node.peer.directory.items():
            if pid == node.peer_id or pview.shard_of(pid) != pview.home:
                continue
            count += 1
            version += max(0, entry.filter_version) + 1
            if entry.bloom_filter is not None:
                bloom.union_inplace(entry.bloom_filter)
        return ShardSummaryEntry(pview.home, count, version, bloom.to_compressed())

    def _member_entries(self, shards: set[int]) -> tuple[SnapshotEntry, ...]:
        """Full (record, compressed filter) entries we hold for ``shards``."""
        node, pview = self.node, self.pview
        pids = [node.peer_id] if pview.home in shards else []
        pids += [
            pid
            for pid, entry in sorted(node.peer.directory.items())
            if pid != node.peer_id
            and entry.bloom_filter is not None
            and pid not in pview.diff_only
            and pview.shard_of(pid) in shards
        ]
        return tuple(node.snapshot_entry(pid) for pid in pids)

    def on_view_exchange(self, msg: ViewExchange) -> ViewExchange:
        """Merge the sender's records; answer with a sample of ours."""
        self.node.install_records(msg.records)
        want = min(msg.want, 64)
        if want <= 0:
            return ViewExchange((), 0)
        return ViewExchange(self._sample_records(want), 0)

    def on_shard_match(self, msg: ShardMatchQuery) -> object:
        """Per-peer term-hit bitmasks for one shard's rows we hold.

        Asked about our home shard, a live member whose full filter we
        do not hold yet (a fresh join, pre-backfill) is answered with
        every term: "may hold" keeps the asker's search free of false
        negatives, at the cost of one possibly wasted contact.
        """
        if self.pview is None:
            return ErrorReply("partial-view mode is off")
        self.sync()
        node, pview = self.node, self.pview
        terms = list(msg.terms)
        pids, hits = pview.matrix.hit_matrix(terms, shards=(msg.shard,))
        masks: dict[int, int] = {}
        for i, pid in enumerate(pids):
            mask = 0
            for t in range(len(terms)):
                if hits[i, t]:
                    mask |= 1 << t
            masks[pid] = mask
        if msg.shard == pview.home:
            every = (1 << len(terms)) - 1
            for pid in node.membership.live():
                if pview.shard_of(pid) == pview.home and self._lacks_full_filter(pid):
                    masks[pid] = every
        return ShardMatchResponse(msg.shard, tuple((pid, m) for pid, m in masks.items() if m))

    # -- search fan-out -----------------------------------------------------

    async def term_rows(self, terms: Sequence[str], rpc: Rpc) -> dict[int, np.ndarray]:
        """Per-peer term-hit rows for a ranked search: held rows answer
        locally, shard summaries nominate the foreign shards worth
        asking, and a ``ShardMatchQuery`` per nominated shard (sent with
        ``rpc``) fetches that shard's rows.  A held full filter beats a
        relayed answer; one grown from diffs alone is OR-ed with it."""
        matrix = self.pview.matrix
        self.sync()
        local_ids, local_hits = matrix.hit_matrix(terms)
        rows = {pid: local_hits[i] for i, pid in enumerate(local_ids)}
        shards = self._fanout_shards(matrix.candidate_shards(terms))
        self.node.obs.counter(
            "client", "shard_fanouts_total", "foreign shards asked per search"
        ).inc(len(shards))
        for pid, row in (await self._shard_fanout(shards, terms, rpc)).items():
            held = rows.get(pid)
            if held is None:
                rows[pid] = row
            elif pid in self.pview.diff_only:
                held |= row
        return rows

    async def exhaustive_candidates(self, terms: Sequence[str], rpc: Rpc) -> list[int]:
        """Section 5.1's candidate set: held rows matched locally, plus
        foreign-shard peers whose relayed rows hit every term (summaries
        are false-negative-free, so no candidate whose filter would match
        under the flat directory is ever skipped)."""
        matrix = self.pview.matrix
        self.sync()
        candidates = set(matrix.match_all_terms(terms))
        shards = self._fanout_shards(matrix.candidate_shards(terms, all_terms=True))
        remote = await self._shard_fanout(shards, terms, rpc)
        held = set(matrix.peer_ids) - self.pview.diff_only
        candidates.update(pid for pid, row in remote.items() if pid not in held and row.all())
        return sorted(candidates)

    def _fanout_shards(self, nominated: Sequence[int]) -> list[int]:
        """Which foreign shards a search must actually contact.

        ``nominated`` comes from the summary rows (shards whose OR-ed
        filter may hit).  Two corrections preserve the flat directory's
        no-false-negative guarantee during warm-up:

        * shards we hold no summary for yet are asked unconditionally
          (a missing summary is no evidence the shard is empty), and
        * the home shard — normally answered from first-class local
          rows — is asked like any other shard while some home member's
          full filter has not arrived (fresh join, pre-backfill).
        """
        node, pview = self.node, self.pview
        shards = {s for s in nominated if s != pview.home}
        shards.update(pview.unknown_shards())
        if any(
            self._lacks_full_filter(pid) and pview.shard_of(pid) == pview.home
            for pid in node.membership.live()
        ):
            shards.add(pview.home)
        return sorted(shards)

    async def _shard_fanout(
        self, shards: Sequence[int], terms: Sequence[str], rpc: Rpc
    ) -> dict[int, np.ndarray]:
        """Ask one member of each shard (with a one-member fallback) for
        its peers' term hits; returns ``{pid: bool row over terms}``."""
        node, pview = self.node, self.pview
        members: dict[int, list[int]] = {}
        for pid in node.membership.members():
            if pid != node.peer_id:
                members.setdefault(pview.shard_of(pid), []).append(pid)

        async def ask(shard: int) -> dict[int, np.ndarray]:
            # Online members first; a dead first target falls through to
            # the runner-up instead of losing the whole shard.
            pool = sorted(
                members.get(shard, ()),
                key=lambda pid: (not node.membership.is_online(pid), pid),
            )[:2]
            rows: dict[int, np.ndarray] = {}
            for start in range(0, len(terms), SHARD_MATCH_MAX_TERMS):
                chunk = terms[start : start + SHARD_MATCH_MAX_TERMS]
                for pid in pool:
                    reply = await rpc(pid, ShardMatchQuery(shard, tuple(chunk)))
                    if isinstance(reply, ShardMatchResponse) and reply.shard == shard:
                        for hit_pid, mask in reply.hits:
                            row = rows.get(hit_pid)
                            if row is None:
                                row = rows[hit_pid] = np.zeros(len(terms), dtype=bool)
                            for t in range(len(chunk)):
                                if (mask >> t) & 1:
                                    row[start + t] = True
                        break
            return rows

        merged: dict[int, np.ndarray] = {}
        for shard_rows in await asyncio.gather(*(ask(s) for s in shards)):
            for pid, row in shard_rows.items():
                held = merged.get(pid)
                if held is None:
                    merged[pid] = row
                else:
                    held |= row
        return merged
