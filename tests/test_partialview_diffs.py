"""Summary-refresh diffs: tokens, bounded history, full-bloom fallback.

Satellite of the partial-view mode: a refresh requester advertises a
content-addressed **token** per held summary, and a responder whose
summary extends that bit set replies with just the added positions
instead of the full kilobytes-long bloom.  These tests pin the token
algebra (content-addressed, fold-order independent), the ``diff_since``
contract (empty / accumulated / ``None``-fallback), the monotone
equivalence of diff installs with full installs, and the node-level
serving path end to end over loopback.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.bloom.diff import BloomDiff
from repro.bloom.filter import BloomFilter
from repro.constants import PartialViewConfig
from repro.gossip.partialview import (
    _MAX_DIFF_EVENTS,
    ShardSummary,
)
from repro.gossip.wire import (
    RumorKind,
    ShardMatchQuery,
    ShardSummaryReply,
    ShardSummaryRequest,
    SnapshotEntry,
)
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document

pytestmark = pytest.mark.partialview

NUM_BITS = 4096
NUM_HASHES = 4


def _filter(*positions: int) -> BloomFilter:
    bf = BloomFilter(NUM_BITS, NUM_HASHES)
    bf.set_positions(np.array(positions, dtype=np.int64))
    return bf


def _summary() -> ShardSummary:
    return ShardSummary(3, NUM_BITS, NUM_HASHES)


# -- the token --------------------------------------------------------------


def test_token_is_content_addressed_not_fold_ordered():
    a, b = _summary(), _summary()
    f1, f2, f3 = _filter(1, 5, 9), _filter(5, 100), _filter(2000, 9)
    for bf in (f1, f2, f3):
        a.fold_filter(bf)
    for bf in (f3, f1, f2):
        b.fold_filter(bf)
    assert a.token == b.token != 0
    # version counts local folds — same here, but NOT content-addressed.
    assert a.bloom.bits.to_bytes() == b.bloom.bits.to_bytes()


def test_token_unchanged_by_redundant_folds():
    s = _summary()
    s.fold_filter(_filter(1, 2, 3))
    before = s.token
    s.fold_filter(_filter(2, 3))  # no new bits
    assert s.token == before


def test_empty_summary_token_is_zero():
    assert _summary().token == 0


# -- diff_since -------------------------------------------------------------


def test_diff_since_current_token_is_empty():
    s = _summary()
    s.fold_filter(_filter(1, 2, 3))
    diff = s.diff_since(s.token)
    assert diff is not None and diff.size == 0


def test_diff_since_accumulates_history_events():
    s = _summary()
    s.fold_filter(_filter(10, 20))
    stale = s.token
    s.fold_filter(_filter(30))
    s.fold_diff(BloomDiff(NUM_BITS, np.array([40, 50], dtype=np.int64)))
    diff = s.diff_since(stale)
    assert diff is not None
    assert sorted(diff.tolist()) == [30, 40, 50]


def test_diff_since_unknown_token_falls_back():
    s = _summary()
    s.fold_filter(_filter(1, 2))
    assert s.diff_since(0xDEADBEEF) is None


def test_history_overflow_drops_to_fallback():
    s = _summary()
    s.fold_filter(_filter(0))
    stale = s.token
    for i in range(_MAX_DIFF_EVENTS + 2):  # blow the event bound
        s.fold_filter(_filter(i + 1))
    assert s.diff_since(stale) is None
    # The freshly-cleared history still serves the no-op diff.
    current = s.diff_since(s.token)
    assert current is not None and current.size == 0


def test_install_diff_equals_full_install():
    base = _filter(1, 5, 9)
    extra = _filter(5, 77, 2048)
    # Node A installs full blooms; node B installs base then a diff.
    a, b = _summary(), _summary()
    a.install(base, 4, 7)
    a.install(extra, 5, 8)
    b.install(base, 4, 7)
    added = np.array([77, 2048], dtype=np.int64)
    b.install_diff(BloomDiff(NUM_BITS, added), 5, 8)
    assert a.bloom.bits.to_bytes() == b.bloom.bits.to_bytes()
    assert a.token == b.token
    assert b.member_count == 5 and b.version == 8


def test_foreign_geometry_diff_is_ignored():
    s = _summary()
    s.fold_filter(_filter(1))
    before = (s.token, s.bloom.bits.to_bytes())
    s.fold_diff(BloomDiff(NUM_BITS * 2, np.array([9], dtype=np.int64)))
    assert (s.token, s.bloom.bits.to_bytes()) == before


# -- the node-level serving path --------------------------------------------


class Community:
    """N loopback peers in partial-view mode."""

    def __init__(self, n: int, seed: int = 0) -> None:
        self.net = LoopbackNetwork()
        self.registries = {pid: Registry() for pid in range(n)}
        self.nodes = {
            pid: NetworkPeer(
                pid,
                "peer",
                pid,
                transport=self.net.transport(),
                seed=(seed << 16) | pid,
                registry=self.registries[pid],
                partial_view=PartialViewConfig(num_shards=4),
            )
            for pid in range(n)
        }

    async def boot(self) -> None:
        for node in self.nodes.values():
            await node.start()
        for pid in range(1, len(self.nodes)):
            await self.nodes[pid].join(self.nodes[0].address)
        for _ in range(200):
            if all(
                node.membership.members() == sorted(self.nodes) for node in self.nodes.values()
            ):
                return
            for node in self.nodes.values():
                await node.gossip_round()
        raise AssertionError("loopback community failed to converge")

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()


def test_refresh_serves_diffs_to_a_current_requester():
    async def scenario():
        community = Community(8, seed=3)
        await community.boot()
        for pid, node in community.nodes.items():
            node.publish(Document(f"d{pid}", f"gossip corpus shard {pid}"))
        # Let summaries propagate, then measure steady-state serving.
        for _ in range(20):
            for node in community.nodes.values():
                await node.gossip_round()
        diffs = sum(
            community.registries[pid].value("node", "partialview_summary_diffs_total")
            for pid in community.nodes
        )
        fulls = sum(
            community.registries[pid].value("node", "partialview_summary_fulls_total")
            for pid in community.nodes
        )
        # Warm-up costs fulls; once tokens circulate, diffs must dominate.
        assert diffs > 0
        assert diffs > fulls
        # And the summaries themselves converged to identical tokens.
        for shard in community.nodes[0].pview.shard_map.shards:
            tokens = {
                node.pview.summaries[shard].token
                for node in community.nodes.values()
                if shard in node.pview.summaries and shard != node.pview.home
            }
            assert len(tokens) <= 1
        await community.stop()

    asyncio.run(scenario())


def test_unknown_token_gets_the_full_bloom():
    async def scenario():
        community = Community(6, seed=5)
        await community.boot()
        for pid, node in community.nodes.items():
            node.publish(Document(f"d{pid}", f"bloom corpus shard {pid}"))
        for _ in range(10):
            for node in community.nodes.values():
                await node.gossip_round()
        asker, server = community.nodes[0], community.nodes[1]
        foreign = [
            s for s in server.pview.shard_map.shards if s != server.pview.home
        ]
        # A forged token can't be in any history: every entry comes back
        # as a full bloom, none as a diff.
        reply = await asker.request_peer(
            1,
            ShardSummaryRequest(
                (), False, tuple((shard, 0xBAD70CEB) for shard in foreign)
            ),
        )
        assert isinstance(reply, ShardSummaryReply)
        assert reply.entries and all(not e.diff for e in reply.entries)
        # A current token comes back as an (empty) diff for every shard
        # the server actually holds a summary for.
        known = tuple(
            (shard, server.pview.summaries[shard].token)
            for shard in foreign
            if shard in server.pview.summaries
        )
        reply = await asker.request_peer(1, ShardSummaryRequest((), False, known))
        assert isinstance(reply, ShardSummaryReply)
        served = {e.shard: e for e in reply.entries}
        for shard, _ in known:
            assert served[shard].diff
        await community.stop()

    asyncio.run(scenario())


def test_a_diff_ahead_of_the_full_filter_keeps_the_backfill_asking():
    """A home member's BF_UPDATE can land before its full filter (a fresh
    join, pre-backfill).  The filter it grows is searchable at once but
    lacks the member's older terms, so it must not pass for a full copy:
    backfill and home-shard fan-out go on, and it is not served onward,
    until the full filter arrives and completes it."""
    config = PartialViewConfig(num_shards=4)
    node = NetworkPeer(0, registry=Registry(), partial_view=config)
    plane, home = node.partialview, node.pview.home
    pid = next(p for p in range(1, 64) if node.pview.shard_of(p) == home)
    donor = NetworkPeer(pid, registry=Registry(), partial_view=config)
    donor.publish(Document("old", "archived corpus terms"))
    donor.flush_updates()
    full_then = donor.peer.store.bloom_filter.copy()
    donor.publish(Document("new", "fresh wave terms"))
    update = donor.flush_updates()  # the diff covers only the new terms
    assert update is not None and update.kind is RumorKind.BF_UPDATE
    node.install_records([donor.own_record()])
    assert node._learn_rumor(update, make_hot=False)
    entry = node.peer.directory[pid]
    assert entry.bloom_filter is not None
    assert not entry.bloom_filter.is_superset_of(full_then)
    assert plane._lacks_full_filter(pid)
    assert home in plane._fanout_shards([])
    assert [e.record.peer_id for e in plane._member_entries({home})] == [0]
    # The full filter arrives, older than the diff: the union is complete.
    node.install_entries([SnapshotEntry(donor.own_record(), full_then.to_compressed())])
    assert entry.bloom_filter.is_superset_of(donor.peer.store.bloom_filter)
    assert not plane._lacks_full_filter(pid)
    assert home not in plane._fanout_shards([])


def test_a_home_member_without_a_full_filter_may_hold_every_term():
    """Asked about its home shard, a node answers "may hold" for a live
    home member whose full filter it lacks, so a search relayed through
    it cannot miss that member's documents.  A foreign shard's members
    it knows only by record are not padded."""
    config = PartialViewConfig(num_shards=4)
    node = NetworkPeer(0, registry=Registry(), partial_view=config)
    plane, home = node.partialview, node.pview.home
    mate = next(p for p in range(1, 64) if node.pview.shard_of(p) == home)
    stranger = next(p for p in range(1, 64) if node.pview.shard_of(p) != home)
    peers = {
        pid: NetworkPeer(pid, registry=Registry(), partial_view=config)
        for pid in (mate, stranger)
    }
    node.install_records([peer.own_record() for peer in peers.values()])
    terms = tuple(node.analyzer.analyze_query("gossip filters"))
    assert len(terms) == 2
    reply = plane.on_shard_match(ShardMatchQuery(home, terms))
    assert dict(reply.hits)[mate] == 0b11
    foreign = node.pview.shard_of(stranger)
    assert plane.on_shard_match(ShardMatchQuery(foreign, terms)).hits == ()
    # Once the full filter is held, the answer is the filter's own.
    peers[mate].publish(Document("d", "gossip"))
    node.install_entries([peers[mate].snapshot_entry(mate)])
    reply = plane.on_shard_match(ShardMatchQuery(home, terms))
    assert dict(reply.hits)[mate] == 0b01
