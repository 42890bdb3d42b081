"""Persistent queries over the wire (repro.serve.subscriptions).

Loopback communities drive the full path: a :class:`SubscriptionClient`
posts a standing query at one node, a document published on a *different*
node travels by gossip to the serving node's replicated directory, and
the subscriber receives exactly one ``Notify`` upcall for it.  Around
that spine: baseline silencing, dedup across re-probes, unsubscribe,
reattach after a client restart, unacked-notify retries, durable
checkpoints across a server restart, and checkpoint-file robustness.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.constants import StoreConfig
from repro.net.codec import ExhaustiveQuery
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork, TransportError
from repro.obs import Registry
from repro.serve.subscriptions import Subscription, SubscriptionClient
from repro.text.document import Document

FAST_STORE = StoreConfig(fsync=False)

#: The ``PPSUB001`` file node 0 writes for subscriptions 3 and 5 with
#: ``next_sub_id`` 6 at ``written_at`` 1234.5 (delivered ids sorted).
PPSUB001_GOLDEN = bytes.fromhex(
    "5050535542303031d4872a3f00000000000000de7b22706565725f6964223a30"
    "2c227772697474656e5f6174223a313233342e352c226e6578745f7375625f69"
    "64223a362c2273756273223a5b7b226964223a332c227465726d73223a5b2267"
    "6f73736970222c22626c6f6f6d225d2c2261646472223a22636c69656e743a39"
    "222c226174223a312e302c2264656c697665726564223a5b226431222c226431"
    "30222c226432225d7d2c7b226964223a352c227465726d73223a5b2272756d6f"
    "72225d2c2261646472223a22636c69656e743a3130222c226174223a322e3235"
    "2c2264656c697665726564223a5b5d7d5d7d"
)


def _node(net: LoopbackNetwork, pid: int, port: int | None = None, **kwargs) -> NetworkPeer:
    kwargs.setdefault("registry", Registry())
    return NetworkPeer(
        pid, "peer", port if port is not None else pid,
        transport=net.transport(), seed=pid, **kwargs,
    )


async def _boot(net: LoopbackNetwork, n: int) -> list[NetworkPeer]:
    nodes = [_node(net, pid) for pid in range(n)]
    for node in nodes:
        await node.start()
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    await _spread(nodes)
    return nodes


async def _spread(nodes: list[NetworkPeer], rounds: int = 15) -> None:
    """Drive gossip rounds, letting the subscription workers run between
    them, then settle any remaining dirty marks deterministically."""
    for _ in range(rounds):
        for node in nodes:
            await node.gossip_round()
    for node in nodes:
        while await node.subscriptions.drain():
            pass


async def _client(net: LoopbackNetwork, port: int = 9000) -> SubscriptionClient:
    client = SubscriptionClient(
        "client", port, transport=net.transport(), registry=Registry()
    )
    await client.start()
    return client


def test_remote_publish_reaches_the_subscriber_once():
    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 3)
        client = await _client(net)
        events = []
        sub_id = await client.subscribe(nodes[0].address, "gossip", events.append)
        assert len(nodes[0].subscriptions) == 1

        nodes[2].publish(Document("d-new", "gossip spreads epidemically"))
        await _spread(nodes)
        assert [e.doc_id for e in events] == ["d-new"]
        notify = events[0]
        assert notify.sub_id == sub_id
        assert notify.origin == 2
        assert "gossip" in notify.text
        reg = nodes[0].obs
        assert reg.value("serve", "notifies_sent_total") == 1
        assert reg.value("serve", "subscriptions_active") == 1

        # Re-probing the same content must not re-deliver.
        nodes[0].subscriptions.mark_all_dirty()
        await _spread(nodes, rounds=3)
        assert len(events) == 1

        for node in nodes:
            await node.stop()
        await client.close()

    asyncio.run(scenario())


def test_baseline_documents_are_silent():
    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 3)
        nodes[1].publish(Document("d-old", "gossip existed before anyone asked"))
        await _spread(nodes)

        client = await _client(net)
        events = []
        await client.subscribe(nodes[0].address, "gossip", events.append)
        nodes[0].subscriptions.mark_all_dirty()
        await _spread(nodes, rounds=3)
        assert events == []  # pre-existing matches were baselined

        nodes[1].publish(Document("d-new", "gossip published after subscribing"))
        await _spread(nodes)
        assert [e.doc_id for e in events] == ["d-new"]

        for node in nodes:
            await node.stop()
        await client.close()

    asyncio.run(scenario())


def test_publish_during_baseline_is_delivered():
    """A document published while a subscription's baseline RPCs are in
    flight is neither baselined nor lost: the gossip mark it raised
    before the row existed is replayed once the row is registered."""

    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 3)
        nodes[1].publish(Document("d-old", "gossip existed before anyone asked"))
        await _spread(nodes)
        terms = nodes[0].analyzer.analyze_query("gossip")
        request_peer = nodes[0].request_peer
        raced: list[int] = []

        async def race_the_baseline(pid, msg, **kwargs):
            if pid == 1 and isinstance(msg, ExhaustiveQuery) and not raced:
                raced.append(pid)
                nodes[2].publish(Document("d-race", "gossip during baseline"))
                for _ in range(30):
                    if nodes[0].replica_of(2).contains_all(terms):
                        break
                    for node in nodes:
                        await node.gossip_round()
                assert nodes[0].replica_of(2).contains_all(terms)
            return await request_peer(pid, msg, **kwargs)

        nodes[0].request_peer = race_the_baseline
        client = await _client(net)
        events = []
        await client.subscribe(nodes[0].address, "gossip", events.append)
        assert raced == [1]
        await _spread(nodes)
        assert [e.doc_id for e in events] == ["d-race"]
        for node in nodes:
            await node.stop()
        await client.close()

    asyncio.run(scenario())


def test_publish_on_the_serving_node_itself_fires():
    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 2)
        client = await _client(net)
        events = []
        await client.subscribe(nodes[0].address, "bloom", events.append)
        nodes[0].publish(Document("d-local", "bloom filters grown locally"))
        await _spread(nodes, rounds=3)
        assert [e.doc_id for e in events] == ["d-local"]
        assert events[0].origin == 0
        for node in nodes:
            await node.stop()
        await client.close()

    asyncio.run(scenario())


def test_unsubscribe_stops_delivery():
    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 2)
        client = await _client(net)
        events = []
        sub_id = await client.subscribe(nodes[0].address, "gossip", events.append)
        assert await client.unsubscribe(nodes[0].address, sub_id) is True
        assert len(nodes[0].subscriptions) == 0
        nodes[1].publish(Document("d", "gossip into the void"))
        await _spread(nodes)
        assert events == []
        # Idempotent: the second cancel reports the id as unknown.
        assert await client.unsubscribe(nodes[0].address, sub_id) is False
        for node in nodes:
            await node.stop()
        await client.close()

    asyncio.run(scenario())


def test_zero_term_subscription_is_declined():
    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 1)
        client = await _client(net)
        with pytest.raises(TransportError, match="declined"):
            await client.subscribe(nodes[0].address, "", lambda n: None)
        assert len(nodes[0].subscriptions) == 0
        await nodes[0].stop()
        await client.close()

    asyncio.run(scenario())


def test_subscribe_before_start_is_refused():
    async def scenario():
        net = LoopbackNetwork()
        client = SubscriptionClient(
            "client", 1, transport=net.transport(), registry=Registry()
        )
        with pytest.raises(RuntimeError, match="start"):
            await client.subscribe("peer:0", "gossip", lambda n: None)

    asyncio.run(scenario())


def test_client_restart_reattaches_and_keeps_dedup():
    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 2)
        first = await _client(net, port=9000)
        events_old = []
        sub_id = await first.subscribe(
            nodes[0].address, "gossip", events_old.append
        )
        nodes[1].publish(Document("d1", "gossip round one"))
        await _spread(nodes)
        assert [e.doc_id for e in events_old] == ["d1"]
        await first.close()  # the client dies; its address goes away

        # A new incarnation at a different address reattaches by sub id.
        second = await _client(net, port=9001)
        events_new = []
        reattached = await second.subscribe(
            nodes[0].address, "gossip", events_new.append, sub_id=sub_id
        )
        assert reattached == sub_id
        assert len(nodes[0].subscriptions) == 1  # no duplicate registration
        nodes[1].publish(Document("d2", "gossip round two"))
        await _spread(nodes)
        # Only the new document arrives: d1 stayed in the delivered set.
        assert [e.doc_id for e in events_new] == ["d2"]
        for node in nodes:
            await node.stop()
        await second.close()

    asyncio.run(scenario())


def test_unacked_notify_is_retried_until_the_client_returns():
    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 2)
        client = await _client(net, port=9000)
        events = []
        sub_id = await client.subscribe(nodes[0].address, "gossip", events.append)
        await client.close()  # gone before anything is published

        nodes[1].publish(Document("d", "gossip with nobody listening"))
        await _spread(nodes)
        assert events == []
        reg = nodes[0].obs
        assert reg.value("serve", "notify_failures_total") >= 1
        assert reg.value("serve", "notifies_sent_total") == 0

        # The client comes back at the same address and reattaches; the
        # retried probe delivers the queued document.
        revived = await _client(net, port=9000)
        await revived.subscribe(
            nodes[0].address, "gossip", events.append, sub_id=sub_id
        )
        nodes[0].subscriptions.mark_dirty(1)
        await _spread(nodes, rounds=3)
        assert [e.doc_id for e in events] == ["d"]
        assert reg.value("serve", "notifies_sent_total") == 1
        for node in nodes:
            await node.stop()
        await revived.close()

    asyncio.run(scenario())


def test_unacked_notify_is_retried_without_new_gossip():
    async def quiet_rounds(nodes, rounds):
        # Only gossip rounds and the real worker: no drain(), no mark_dirty().
        for _ in range(rounds):
            for node in nodes:
                await node.gossip_round()
            for _ in range(10):
                await asyncio.sleep(0)

    async def scenario():
        net = LoopbackNetwork()
        nodes = await _boot(net, 2)
        client = await _client(net, port=9000)
        events = []
        sub_id = await client.subscribe(nodes[0].address, "gossip", events.append)
        await client.close()  # gone before anything is published

        nodes[1].publish(Document("d", "gossip with nobody listening"))
        await quiet_rounds(nodes, 10)
        reg = nodes[0].obs
        assert events == []
        assert reg.value("serve", "notify_failures_total") >= 1

        # The client returns; nothing new is published, so only the
        # manager's own per-round retry can deliver the queued document.
        revived = await _client(net, port=9000)
        await revived.subscribe(
            nodes[0].address, "gossip", events.append, sub_id=sub_id
        )
        await quiet_rounds(nodes, 10)
        assert [e.doc_id for e in events] == ["d"]
        assert reg.value("serve", "notifies_sent_total") == 1
        for node in nodes:
            await node.stop()
        await revived.close()

    asyncio.run(scenario())


def test_subscriptions_survive_a_server_restart(tmp_path):
    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0, data_dir=tmp_path, store_config=FAST_STORE)
        b = _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        await _spread([a, b])

        client = await _client(net)
        events = []
        sub_id = await client.subscribe(a.address, "gossip", events.append)
        b.publish(Document("d1", "gossip before the crash"))
        await _spread([a, b])
        assert [e.doc_id for e in events] == ["d1"]
        await a.stop()  # writes directory + subscription checkpoints

        # Published while the serving node is down: no rumor will ever
        # re-apply for it after the restart — only the start()-time
        # directory sweep can catch it.
        b.publish(Document("d2", "gossip during the outage"))

        a2 = _node(net, 0, port=100, data_dir=tmp_path, store_config=FAST_STORE)
        restored = a2.subscriptions.subscriptions
        assert a2.subscriptions.restored_subscriptions == 1
        assert restored[sub_id].delivered == {"d1"}
        assert restored[sub_id].notify_address == client.address
        await a2.start()
        await _spread([a2, b])
        # Exactly the outage document arrives; d1 is not re-delivered.
        assert [e.doc_id for e in events] == ["d1", "d2"]
        await a2.stop()
        await b.stop()
        await client.close()

    asyncio.run(scenario())


# -- checkpoint file robustness ----------------------------------------------


def test_subscription_checkpoint_matches_the_ppsub001_golden(tmp_path, monkeypatch):
    path = tmp_path / "subscriptions.ckpt"
    path.write_bytes(PPSUB001_GOLDEN)
    node = _node(LoopbackNetwork(), 0, data_dir=tmp_path, store_config=FAST_STORE)
    manager = node.subscriptions
    assert manager.restored_subscriptions == 2
    assert manager.subscriptions == {
        3: Subscription(3, ("gossip", "bloom"), "client:9", 1.0, {"d1", "d10", "d2"}),
        5: Subscription(5, ("rumor",), "client:10", 2.25),
    }
    path.unlink()
    monkeypatch.setattr(time, "time", lambda: 1234.5)
    assert manager.checkpoint() == len(PPSUB001_GOLDEN)
    assert path.read_bytes() == PPSUB001_GOLDEN
    node.persistence.close()


def test_subscription_checkpoint_roundtrip(tmp_path):
    writer = _node(LoopbackNetwork(), 7, data_dir=tmp_path, store_config=FAST_STORE)
    rows = {3: Subscription(3, ("gossip", "bloom"), "client:9", 1.0, {"d1", "d2"})}
    writer.subscriptions.queries.rows = rows
    assert writer.subscriptions.checkpoint() > 0
    writer.persistence.close()

    reader = _node(LoopbackNetwork(), 7, data_dir=tmp_path, store_config=FAST_STORE)
    assert reader.subscriptions.restored_subscriptions == 1
    assert reader.subscriptions.subscriptions == rows
    reader.persistence.close()


def test_corrupt_subscription_checkpoint_is_a_cold_start(tmp_path):
    path = tmp_path / "subscriptions.ckpt"
    writer = _node(LoopbackNetwork(), 7, data_dir=tmp_path, store_config=FAST_STORE)
    writer.subscriptions.queries.rows = {1: Subscription(1, ("t",), "x:1", 0.0)}
    writer.subscriptions.checkpoint()
    writer.persistence.close()
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # torn write
    torn = _node(LoopbackNetwork(), 7, data_dir=tmp_path, store_config=FAST_STORE)
    assert torn.subscriptions.restored_subscriptions == 0
    assert len(torn.subscriptions) == 0
    torn.persistence.close()
    path.unlink()
    absent = _node(LoopbackNetwork(), 7, data_dir=tmp_path, store_config=FAST_STORE)
    assert absent.subscriptions.restored_subscriptions == 0
    absent.persistence.close()


def test_checkpoint_for_another_peer_is_ignored(tmp_path):
    # The golden file was written by peer 0; peer 9 must not adopt it.
    (tmp_path / "subscriptions.ckpt").write_bytes(PPSUB001_GOLDEN)
    node = _node(LoopbackNetwork(), 9, data_dir=tmp_path, store_config=FAST_STORE)
    assert node.subscriptions.restored_subscriptions == 0
    assert len(node.subscriptions) == 0
    node.persistence.close()
