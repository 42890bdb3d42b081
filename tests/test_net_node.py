"""NetworkPeer behaviour: join, publish, rumor spread, liveness, serving.

Everything runs over the deterministic loopback fabric with seeded RNGs,
so each scenario is reproducible without real sockets.  Scenarios that
let time pass (the background gossip loop, T_Dead, contact backoff) run
on :func:`repro.net.vtime.run` and sleep in virtual seconds.
"""

import asyncio
import struct

import pytest

from repro.bloom.diff import BloomDiff, diff_filters
from repro.constants import RUMOR_GIVE_UP_COUNT, GossipConfig
from repro.gossip.rumor import RumorKind
from repro.gossip.wire import (
    ROW_OF,
    AENothing,
    AERecent,
    BrowseRequest,
    JoinSnapshot,
    PeerRecord,
    RumorPush,
    RumorReply,
    ShardMatchQuery,
    ShardSummaryRequest,
    SketchExchange,
    SnapshotEntry,
    TopTermsRequest,
    ViewExchange,
    WireRumor,
)
from repro.net import codec, vtime
from repro.net.codec import ErrorReply, StatsRequest
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document


def _node(net: LoopbackNetwork, pid: int, **kwargs) -> NetworkPeer:
    return NetworkPeer(pid, "peer", pid, transport=net.transport(), seed=pid, **kwargs)


def test_peer_id_must_fit_16_bits():
    with pytest.raises(ValueError, match="16 bits"):
        NetworkPeer(1 << 16)


def test_rumor_ids_are_globally_unique_per_peer():
    net = LoopbackNetwork()
    a, b = _node(net, 3), _node(net, 4)
    rids = [a._mint_rid(), a._mint_rid(), b._mint_rid()]
    assert len(set(rids)) == 3
    assert rids[0] >> 32 == 3 and rids[2] >> 32 == 4


def test_join_exchanges_records_and_filters():
    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        a.publish(Document("d-a", "gossip spreads rumors"))
        b.publish(Document("d-b", "bloom filters compress membership"))
        await b.join(a.address)
        # The bootstrap learned the joiner's rumor; the joiner got the
        # snapshot: both sides now see both members.
        assert a.membership.members() == b.membership.members() == [0, 1]
        # b's pre-join update rumor still needs one push to reach a.
        await b.gossip_round()
        assert a.core.digest == b.core.digest
        replica = a.replica_of(1)
        assert replica is not None
        assert replica == b.peer.store.bloom_filter
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_flush_updates_mints_only_on_growth():
    net = LoopbackNetwork()
    a = _node(net, 0)
    assert a.flush_updates() is None  # nothing published yet
    a.publish(Document("d", "some fresh terms here"))
    assert a.flush_updates() is not None  # the announcement of this growth
    assert a.flush_updates() is None  # already announced
    a.publish(Document("d2", "some fresh terms here"))
    assert a.flush_updates() is None  # identical terms set no new bits


def test_publish_after_a_removal_gossips_only_growth():
    """A removal rebuilds a smaller filter; the next publish must still
    mint a plain growth diff (replicas keep the removed bits)."""
    net = LoopbackNetwork()
    a = _node(net, 0)
    a.publish(Document("d1", "zanzibar gossip"))
    a.flush_updates()
    gossiped = a._last_gossiped.copy()
    a.peer.remove("d1")
    a.publish(Document("d2", "gossip bloom"))
    assert a.flush_updates() is not None
    assert a._last_gossiped.is_superset_of(gossiped)
    assert a._last_gossiped.contains_all(["zanzibar", "bloom"])
    a.peer.remove("d2")
    assert a.flush_updates() is None  # shrinking alone gossips nothing


def test_publishes_between_rounds_leave_as_one_announcement():
    """A round announces every publish since the last one as one BF_UPDATE
    whose diff is the union of their growth, as the paper's per-interval
    filter diff; one rumor round brings a peer's replica level."""

    async def scenario():
        registry = Registry()
        net = LoopbackNetwork()
        a = _node(net, 0, registry=registry)
        b = _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        before = a.peer.store.bloom_filter.copy()
        for i, text in enumerate(["gossip rumors", "bloom filters", "golomb diffs"]):
            a.publish(Document(f"d{i}", text))
        after = a.peer.store.bloom_filter.copy()
        minted = set(a.rumors)
        await a.gossip_round()  # b is a's only target
        (update,) = (r for rid, r in a.rumors.items() if rid not in minted)
        assert update.kind is RumorKind.BF_UPDATE
        _version, blob = codec.decode_update_payload(update.payload)
        want = diff_filters(before, after).positions
        assert BloomDiff.from_bytes(blob).positions.tolist() == want.tolist()
        assert registry.value("node", "filter_announcements_total") == 1
        assert b.replica_of(0) == a.peer.store.bloom_filter
        await a.gossip_round()
        assert registry.value("node", "filter_announcements_total") == 1  # no growth
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_a_corpus_published_before_join_leaves_two_own_rumors():
    """A node that loads its corpus and then joins spreads its JOIN and,
    in its first round, one diff: not a rumor per document."""

    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        for i in range(20):
            b.publish(Document(f"d{i}", f"corpus term{i}"))
        await b.join(a.address)
        await b.gossip_round()
        own = [b.rumors[rid].kind for rid in sorted(b.rumors) if rid >> 32 == 1]
        assert own == [RumorKind.JOIN, RumorKind.BF_UPDATE]
        assert a.replica_of(1) == b.peer.store.bloom_filter
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_the_gossip_loop_survives_a_failing_round():
    """A round that raises something other than a network error is
    counted and traced, and the loop goes on to the next round."""

    async def scenario():
        registry = Registry()
        node = _node(LoopbackNetwork(), 0, registry=registry)
        rounds = []

        async def hook():
            rounds.append(len(rounds))
            if len(rounds) == 1:
                raise OSError("disk full")

        node.add_round_hook(hook)
        await node.start()
        node.run()
        async with asyncio.timeout(600):
            while len(rounds) < 3:
                await asyncio.sleep(1.0)
        await node.stop()
        assert registry.value("node", "round_failures_total") == 1
        (failed,) = registry.trace.events("round_failed")
        assert failed.fields["peer"] == 0
        assert failed.fields["error"] == "OSError: disk full"
        assert failed.fields["where"].startswith("test_net_node.py:")
        assert failed.fields["where"].endswith(" in hook")

    vtime.run(scenario())


def test_rumor_round_spreads_update_and_retires_rumor():
    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        a.publish(Document("d", "unique gossip terminology"))
        a.flush_updates()  # what the round below would do first
        # a's hot set holds b's JOIN rumor too; pick a's own update rumor.
        hot_rid = next(rid for rid in a.core.hot if rid >> 32 == 0)
        await a.gossip_round()
        assert hot_rid in b.core.known
        assert b.replica_of(0) == a.peer.store.bloom_filter
        # Keep pushing to the only peer until the rumor goes cold.
        for _ in range(RUMOR_GIVE_UP_COUNT + 1):
            await a.gossip_round()
        assert hot_rid not in a.core.hot
        assert hot_rid in a.core.recent  # retired into the partial-AE window
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_anti_entropy_reconciles_a_cold_gap():
    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        # Give b knowledge a lacks, without rumoring: learn quietly.
        b.publish(Document("d", "anti entropy repairs gaps"))
        b.flush_updates()
        b.core.hot.clear()  # b will never push it
        assert a.core.digest != b.core.digest
        # Force a's next round to be anti-entropy (no hot rumors at a).
        a.core.hot.clear()
        await a.gossip_round()
        assert a.core.digest == b.core.digest
        assert a.replica_of(1) == b.peer.store.bloom_filter
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_failed_contacts_mark_offline_and_t_dead_drops():
    async def scenario():
        config = GossipConfig(t_dead_s=100.0)
        net = LoopbackNetwork()
        a = _node(net, 0, gossip_config=config)
        b = _node(net, 1, gossip_config=config)
        await a.start()
        await b.start()
        await b.join(a.address)
        await b.stop()  # silent departure: no announcement
        a.core.hot.clear()
        await a.gossip_round()  # contact fails
        assert not a.membership.is_online(1)
        assert 1 in a.membership.offline_since
        await asyncio.sleep(50.0)
        await a.gossip_round()  # still within T_Dead
        assert 1 in a.peer.directory
        await asyncio.sleep(51.0)
        await a.gossip_round()  # past T_Dead: dropped
        assert 1 not in a.peer.directory
        await a.stop()

    vtime.run(scenario())


def test_a_row_sent_as_dead_admits_an_unknown_member_offline():
    """A row its sender believes dead — an anti-entropy summary row, a
    JoinSnapshot entry — never makes an unknown member a rumor target:
    it is admitted offline, with its T_Dead clock running."""

    async def scenario():
        node = NetworkPeer(1, registry=Registry())
        await asyncio.sleep(5.0)
        node.install_records([PeerRecord(9, "127.0.0.1:9", False, 0)])
        node.install_entries([SnapshotEntry(PeerRecord(8, "127.0.0.1:8", False, 0), b"")])
        for pid in (8, 9):
            assert pid in node.membership and not node.membership.is_online(pid)
            assert node.membership.offline_since[pid] == 5.0
            assert not node.record_of(pid).online  # and is relayed as dead
        assert node.pick_target() is None
        assert node.pick_target(include_offline=True) in (8, 9)  # AE still probes

    vtime.run(scenario())


def test_a_row_or_rumor_naming_an_out_of_range_id_is_dropped():
    """Peer ids are U32 on the wire but a community's ids stop at
    MAX_PEER_ID: a row or rumor naming a larger one neither sizes the
    member table nor raises — it is counted and dropped."""
    registry = Registry()
    node = NetworkPeer(1, registry=registry)
    slots = node.membership.online.size
    big = 2**32 - 1
    node.install_records([PeerRecord(big, "127.0.0.1:9", True, 0)])
    node.install_entries([SnapshotEntry(PeerRecord(big, "127.0.0.1:9", False, 0), b"")])
    assert node.membership.online.size == slots
    assert big not in node.membership and big not in node.peer.directory
    assert registry.value("node", "rows_rejected_total") == 2
    join = codec.encode_member_payload(PeerRecord(big, "127.0.0.1:9", True, 0), b"")
    assert not node._learn_rumor(WireRumor(8 << 32, RumorKind.JOIN, 8, 0.0, join), True)
    donor = NetworkPeer(2, registry=Registry())
    donor.publish(Document("d", "a well formed filter diff"))
    donor.flush_updates()
    update = next(r for r in donor.rumors.values() if r.kind is RumorKind.BF_UPDATE)
    forged = WireRumor(big << 32, RumorKind.BF_UPDATE, big, 0.0, update.payload)
    assert node._decode_rumor(update) is not None  # the payload itself is sound
    assert not node._learn_rumor(forged, True)
    assert registry.value("node", "rumors_rejected_total") == 2
    assert node.membership.online.size == slots and node.membership.members() == [1]


def test_a_relayed_online_row_readmits_but_keeps_the_failure_history():
    """A relayed online row re-admits a member a failed contact marked
    offline, but it is hearsay: its failure count and backoff stand, so
    the next failed contact doubles the backoff instead of restarting it
    (only the member's own rumor or a successful contact clears them)."""

    async def scenario():
        registry = Registry()
        net = LoopbackNetwork()
        a = _node(net, 0, registry=registry)
        b = _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        await b.stop()
        a.core.hot.clear()  # anti-entropy rounds: they probe b whatever we believe
        await a.gossip_round()
        assert a.membership.contact_failures[1] == 1
        assert a.membership.contact_backoff_until[1] == 30.0
        a.install_records([PeerRecord(1, b.address, True, 0)])
        assert a.membership.is_online(1)
        assert a.pick_target() is None  # rumor rounds still wait out the backoff
        await asyncio.sleep(40.0)
        assert a.pick_target() == 1
        await a.gossip_round()
        assert not a.membership.is_online(1)
        assert a.membership.contact_failures[1] == 2
        assert a.membership.contact_backoff_until[1] == 100.0  # 60 s, doubled
        assert registry.value("node", "contact_failures_total") == 2
        await a.stop()

    vtime.run(scenario())


def test_rejoin_refreshes_address():
    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        old = a.peer.directory[1].address
        # b comes back at a new address and announces a REJOIN.
        b.address = "peer:99"
        b.peer.address = "peer:99"
        b.announce_rejoin()
        # The first round after a rejoin is anti-entropy (catch up, as the
        # simulator's rejoin does); the next one pushes the REJOIN rumor.
        await b.gossip_round()
        assert b.core.round_counter == 0 and a.peer.directory[1].address == old
        await b.gossip_round()
        assert a.peer.directory[1].address == "peer:99" != old
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_server_replies_error_on_garbage_and_unexpected_messages():
    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0)
        address = await a.start()
        client = net.transport()
        assert isinstance(codec.decode(await client.request(address, b"\xff\xff")), ErrorReply)
        body = await client.request(address, codec.encode(RumorReply((), ())))
        assert isinstance(codec.decode(body), ErrorReply)
        await a.stop()

    asyncio.run(scenario())


def test_unencodable_reply_is_answered_with_an_error_not_a_dead_socket():
    # A handler whose reply does not fit its wire fields (here a negative
    # u32) used to raise out of _serve after dispatch; the caller must
    # get an ErrorReply instead.
    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0)
        address = await a.start()
        a._dispatch_table[StatsRequest] = lambda msg: AERecent((), -1)
        body = await net.transport().request(address, codec.encode(StatsRequest()))
        reply = codec.decode(body)
        assert isinstance(reply, ErrorReply)
        assert "CodecError" in reply.message and "does not fit" in reply.message
        await a.stop()

    asyncio.run(scenario())


def test_dispatch_table_covers_requests_and_gates_analytics():
    async def scenario():
        a = _node(LoopbackNetwork(), 0)
        assert set(a._dispatch_table) <= set(ROW_OF)
        # Replies are never dispatched: they answer "unexpected message".
        reply = await a._dispatch(RumorReply((), ()))
        assert reply == ErrorReply("unexpected message RumorReply")
        assert not a.analytics.enabled
        for request in (SketchExchange((), ()), TopTermsRequest(5), BrowseRequest("/", 5)):
            assert await a._dispatch(request) == ErrorReply("analytics plane is off")
        # The partial-view plane serves a flat node too: it trades view
        # records and refuses the two shard queries.
        reply = await a._dispatch(ViewExchange((PeerRecord(5, "peer:5", True, 2),), 8))
        assert a.membership.members() == [0, 5] and a.peer.directory[5].address == "peer:5"
        assert reply.want == 0 and {r.peer_id for r in reply.records} == {0, 5}
        off = ErrorReply("partial-view mode is off")
        assert await a._dispatch(ShardSummaryRequest((), False)) == off
        assert await a._dispatch(ShardMatchQuery(0, ("gossip",))) == off
        with pytest.raises(ValueError, match="already has a handler"):
            a.add_handler(ViewExchange, lambda msg: msg)

    asyncio.run(scenario())


def test_push_reply_reports_needed_and_piggyback():
    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0)
        address = await a.start()
        a.core.known.update({111, 222})  # known and retired: in the AE window
        a.core.recent.extend([111, 222])
        client = net.transport()
        unknown = (5 << 32) | 1
        body = await client.request(address, codec.encode(RumorPush((unknown, 111))))
        reply = codec.decode(body)
        assert isinstance(reply, RumorReply)
        assert reply.needed == (unknown,)
        assert set(reply.piggyback) == {222}  # pushed ids are excluded
        await a.stop()

    asyncio.run(scenario())


def test_background_loop_converges_two_nodes():
    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        a.publish(Document("d", "looped gossip convergence"))
        await b.join(a.address)
        a.run()
        b.run()
        for _ in range(100):
            if a.core.digest == b.core.digest and b.replica_of(0) is not None:
                break
            await asyncio.sleep(1.0)
        assert a.core.digest == b.core.digest
        await a.stop()
        await b.stop()
        assert a._gossip_task is None and b._gossip_task is None

    vtime.run(scenario())


def test_ack_for_rumor_data_is_nothing():
    net = LoopbackNetwork()
    a = _node(net, 0)

    async def scenario():
        address = await a.start()
        client = net.transport()
        from repro.gossip.wire import RumorData

        body = await client.request(address, codec.encode(RumorData(())))
        assert codec.decode(body) == AENothing()
        await a.stop()

    asyncio.run(scenario())


def test_stop_cancels_inflight_gossip_cleanly():
    """Start/stop 20 peers with the background loop running: no "Task was
    destroyed but it is pending!" warnings, no stray tasks, no loop
    exception-handler callbacks."""
    import gc

    problems = []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: problems.append(context["message"])
        )
        config = GossipConfig(base_interval_s=0.005)
        net = LoopbackNetwork()
        bootstrap = _node(net, 0, gossip_config=config)
        await bootstrap.start()
        bootstrap.run()
        for i in range(1, 21):
            node = _node(net, i, gossip_config=config)
            await node.start()
            node.publish(Document(f"d{i}", f"churn start stop {i}"))
            await node.join(bootstrap.address)
            node.run()
            if i % 2:
                await asyncio.sleep(0.01)  # let a gossip round get in flight
            await node.stop()
            assert node._gossip_task is None
            await node.stop()  # idempotent
        await bootstrap.stop()
        current = asyncio.current_task()
        leftovers = [t for t in asyncio.all_tasks() if t is not current]
        assert leftovers == [], f"tasks survived stop(): {leftovers}"

    vtime.run(scenario())
    gc.collect()  # would emit "Task was destroyed" through the handler
    assert problems == []


def test_anti_entropy_only_is_a_simulator_baseline():
    with pytest.raises(ValueError, match="simulator baseline"):
        NetworkPeer(0, gossip_config=GossipConfig(anti_entropy_only=True))


def _undecodable_update(origin: int, rid: int) -> WireRumor:
    """A BF_UPDATE whose frame decodes but whose diff does not: Golomb
    parameter 0."""
    diff = struct.pack(">III", 3, 0, 1 << 16) + b"\x00"
    return WireRumor(
        rid, RumorKind.BF_UPDATE, origin, 0.0, codec.encode_update_payload(1, diff)
    )


def test_undecodable_rumor_is_dropped_not_stored_and_gossip_goes_on():
    async def scenario():
        net = LoopbackNetwork()
        registry = Registry()
        a, b = _node(net, 0), _node(net, 1, registry=registry)
        await a.start()
        await b.start()
        await b.join(a.address)
        # A never decodes a rumor it claims to have minted itself, so this
        # is how a poisoned rumor sits in a community: stored and served.
        bad = _undecodable_update(a.peer_id, (a.peer_id << 32) | 999)
        assert a._learn_rumor(bad, make_hot=False)
        for _ in range(6):
            await b.gossip_round()  # anti-entropy with A pulls the bad rumor
        assert bad.rid not in b.core.known and bad.rid not in b.rumors
        assert registry.value("node", "rumors_rejected_total") >= 1
        # Pushed rather than pulled, it is rejected just the same.
        assert not b._learn_rumor(bad, make_hot=True)
        assert bad.rid not in b.core.hot
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_damaged_filter_from_a_peer_installs_the_member_filterless():
    async def scenario():
        net = LoopbackNetwork()
        b = _node(net, 1)
        await b.start()
        snapshot = JoinSnapshot(
            (SnapshotEntry(PeerRecord(9, "peer:9", True, 1), b"\x00\x01damaged"),), ()
        )

        async def bootstrap(body: bytes) -> bytes:
            return codec.encode(snapshot)

        address = await net.transport().serve("bootstrap:0", bootstrap)
        await b.join(address)  # the damaged replica is re-learned over gossip
        assert b.membership.members() == [1, 9] and b.replica_of(9) is None
        # The same blob inside a JOIN rumor: member installed, no filter.
        payload = codec.encode_member_payload(PeerRecord(8, "peer:8", True, 1), b"\x07")
        assert b._learn_rumor(WireRumor(8 << 32, RumorKind.JOIN, 8, 0.0, payload), True)
        assert b.membership.members() == [1, 8, 9] and b.replica_of(8) is None
        await b.stop()

    asyncio.run(scenario())
