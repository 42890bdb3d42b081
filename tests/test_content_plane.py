"""ContentPlane over loopback: k-way replication, handoff, orphan GC.

Every scenario boots real :class:`~repro.net.node.NetworkPeer` instances
on the deterministic loopback fabric with an active content config and
drives :meth:`~repro.content.plane.ContentPlane.maintenance_round` explicitly,
so replication outcomes are reproducible without sockets or timers.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.constants import ContentConfig
from repro.content.plane import replica_ring
from repro.gossip.wire import ChunkPush, ManifestPush
from repro.net.chaos import EdgeFaults, FaultPlan, FaultyTransport
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document

pytestmark = pytest.mark.content

DOC_TEXT = "planetp replicates chunked content across ring successors " * 20


class Community:
    """N loopback peers with an active content plane; every RPC goes
    through one seeded :class:`FaultPlan`, fault-free until a test sets
    its default."""

    def __init__(self, n: int, config: ContentConfig, seed: int = 0) -> None:
        self.net = LoopbackNetwork()
        self.plan = FaultPlan(seed=seed)
        self.registries = {pid: Registry() for pid in range(n)}
        self.nodes = {
            pid: NetworkPeer(
                pid,
                "peer",
                pid,
                transport=FaultyTransport(self.net.transport(), self.plan),
                seed=(seed << 16) | pid,
                registry=self.registries[pid],
                content_config=config,
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

    async def mark_offline(self, dead: int, via: int, max_rounds: int = 50) -> None:
        """Run gossip at ``via`` until it notices ``dead`` stopped
        answering (the same failed-contact evidence a deployment uses)."""
        node = self.nodes[via]
        for _ in range(max_rounds):
            if dead in node.membership and not node.membership.is_online(dead):
                return
            await node.gossip_round()
        raise AssertionError(f"peer {via} never marked {dead} offline")

    def complete_holders(self, doc_id: str) -> list[int]:
        return [
            pid
            for pid, node in self.nodes.items()
            if node.content.store.is_complete(doc_id)
        ]


def _run(coro):
    return asyncio.run(coro)


def test_replica_ring_is_deterministic_and_order_insensitive():
    a = replica_ring([5, 1, 9, 1, 3])
    b = replica_ring([1, 3, 5, 9])
    for key in ("doc-a", "doc-b", "n0001-d2"):
        assert a.successors_for(key, 3) == b.successors_for(key, 3)
    assert sorted(set(a.brokers())) == [1, 3, 5, 9]


def test_publish_replicates_to_k_ring_successors():
    async def scenario():
        community = Community(5, ContentConfig(replicas=2, chunk_size=128))
        await community.boot()
        origin = community.nodes[0]
        origin.publish(Document("doc-a", DOC_TEXT))
        for _ in range(5):
            await origin.content.maintenance_round()
        targets = origin.content.replica_targets("doc-a", origin=0)
        assert len(targets) == 2 and 0 not in targets
        # Exactly the origin plus its two ring successors hold the bytes.
        assert community.complete_holders("doc-a") == sorted([0, *targets])
        for pid in targets:
            replica = community.nodes[pid].content.store
            assert replica.read_doc("doc-a") == DOC_TEXT.encode("utf-8")
        # The fixed point: everything held is fully replicated, and the
        # push traffic was accounted as content bytes, not gossip.
        assert origin.content.fully_replicated_docs() == len(
            origin.content.store.doc_ids()
        )
        assert community.registries[0].value("node", "content_real_bytes_total") > 0
        await community.stop()

    _run(scenario())


def test_gossip_round_drives_replication():
    async def scenario():
        community = Community(4, ContentConfig(replicas=1, chunk_size=256))
        await community.boot()
        community.nodes[2].publish(Document("doc-g", DOC_TEXT))
        for _ in range(6):
            for node in community.nodes.values():
                await node.gossip_round()
        assert len(community.complete_holders("doc-g")) == 2
        await community.stop()

    _run(scenario())


def test_holder_death_triggers_handoff_to_next_successor():
    async def scenario():
        community = Community(4, ContentConfig(replicas=1, chunk_size=128))
        await community.boot()
        origin = community.nodes[0]
        origin.publish(Document("doc-h", DOC_TEXT))
        for _ in range(3):
            await origin.content.maintenance_round()
        (first_target,) = origin.content.replica_targets("doc-h", origin=0)
        await community.nodes[first_target].stop()
        await community.mark_offline(first_target, via=0)
        for _ in range(5):
            await origin.content.maintenance_round()
        (new_target,) = origin.content.replica_targets("doc-h", origin=0)
        assert new_target != first_target
        assert community.nodes[new_target].content.store.is_complete("doc-h")
        assert community.registries[0].value("content", "handoff_repushes_total") >= 1
        await community.stop()

    _run(scenario())


def test_orphan_copy_dropped_only_after_targets_confirm():
    async def scenario():
        community = Community(4, ContentConfig(replicas=1, chunk_size=128))
        await community.boot()
        origin = community.nodes[0]
        origin.publish(Document("doc-o", DOC_TEXT))
        manifest = origin.content.store.get_manifest("doc-o")
        (target,) = origin.content.replica_targets("doc-o", origin=0)
        stray = next(
            pid for pid in community.nodes if pid not in (0, target)
        )
        # Hand a complete copy to a peer the ring never chose (as if
        # membership shifted after an earlier replication round).
        plane = community.nodes[stray].content
        plane.on_manifest_push(ManifestPush(manifest))
        for index in range(manifest.num_chunks):
            plane.store.put_chunk(
                "doc-o", index, origin.content.store.get_chunk("doc-o", index)
            )
        assert plane.orphan_bytes() > 0
        # One maintenance round: the stray pushes its copy to the real
        # target (the ring tells it who that is), sees it confirm, and
        # only then garbage-collects itself.
        for _ in range(3):
            await plane.maintenance_round()
        assert not plane.store.has_manifest("doc-o")
        assert plane.orphan_bytes() == 0
        assert community.nodes[target].content.store.is_complete("doc-o")
        reg = community.registries[stray]
        assert reg.value("content", "orphans_dropped_total") == 1
        assert reg.value("content", "orphan_bytes_freed_total") > 0
        await community.stop()

    _run(scenario())


def test_incomplete_copy_on_non_target_is_dropped_immediately():
    async def scenario():
        community = Community(4, ContentConfig(replicas=1, chunk_size=128))
        await community.boot()
        origin = community.nodes[0]
        origin.publish(Document("doc-i", DOC_TEXT))
        manifest = origin.content.store.get_manifest("doc-i")
        (target,) = origin.content.replica_targets("doc-i", origin=0)
        stray = next(pid for pid in community.nodes if pid not in (0, target))
        plane = community.nodes[stray].content
        plane.on_manifest_push(ManifestPush(manifest))
        # Only the manifest landed (interrupted push): a non-target can
        # never complete it, so maintenance drops it at once.
        await plane.maintenance_round()
        assert not plane.store.has_manifest("doc-i")
        await community.stop()

    _run(scenario())


def test_replication_completes_under_lossy_transport():
    async def scenario():
        community = Community(5, ContentConfig(replicas=2, chunk_size=128), seed=3)
        await community.boot()
        community.plan.set_default(EdgeFaults(drop_rate=0.25))  # every RPC fails 1-in-4
        origin = community.nodes[0]
        origin.publish(Document("doc-l", DOC_TEXT))
        for _ in range(120):
            # Full gossip rounds, not bare maintenance: successful gossip
            # contacts are what heal drop-induced offline marks, and the
            # maintenance step rides along on each round.
            for node in community.nodes.values():
                await node.gossip_round()
            if len(community.complete_holders("doc-l")) >= 3:
                break
        community.plan.set_default(EdgeFaults())  # the latest default wins
        assert len(community.complete_holders("doc-l")) >= 3
        assert community.registries[0].value("content", "push_failures_total") > 0
        await community.stop()

    _run(scenario())


def test_inactive_plane_stores_locally_but_never_pushes():
    async def scenario():
        community = Community(3, ContentConfig(replicas=0))
        await community.boot()
        origin = community.nodes[0]
        origin.publish(Document("doc-p", DOC_TEXT))
        assert not origin.content.active
        assert origin.content.replica_targets("doc-p", origin=0) == []
        for node in community.nodes.values():
            await node.gossip_round()
        assert community.complete_holders("doc-p") == [0]
        assert community.registries[0].value("content", "manifest_pushes_total") == 0
        # The local copy still serves chunk requests (the CLI get path).
        assert origin.content.store.read_doc("doc-p") == DOC_TEXT.encode("utf-8")
        await community.stop()

    _run(scenario())


def _recount(node: NetworkPeer) -> dict[str, float]:
    """The four content gauges recomputed from scratch: chunks read
    back through the store, targets from a freshly built ring."""
    plane, store, k = node.content, node.content.store, node.content.config.replicas
    ring = replica_ring([node.peer_id, *node.membership.live()])
    docs = bytes_held = orphan = replicated = 0
    for doc_id in store.doc_ids():
        manifest = store.get_manifest(doc_id)
        docs += 1
        held = 0
        for index in range(manifest.num_chunks):
            try:
                held += len(store.get_chunk(doc_id, index))
            except LookupError:
                pass
        bytes_held += held
        targets = [pid for pid in ring.successors_for(doc_id, k + 1) if pid != manifest.origin][:k]
        if manifest.origin != node.peer_id and node.peer_id not in targets:
            orphan += held
        confirmed = plane._confirmed.get(doc_id, ())
        replicated += all(pid == node.peer_id or pid in confirmed for pid in targets)
    return {
        "planetp_content_docs_held": docs,
        "planetp_content_bytes_held": bytes_held,
        "planetp_content_orphan_chunk_bytes": orphan,
        "planetp_content_docs_fully_replicated": replicated,
    }


def test_content_gauges_equal_a_recount_after_every_step():
    """The content gauges are computed when read: after each publish,
    ManifestPush, ChunkPush, removal and membership change, what
    ``stats_response()`` carries equals a brute-force recount."""

    async def scenario():
        community = Community(4, ContentConfig(replicas=1, chunk_size=128))
        await community.boot()
        nodes = community.nodes

        def check() -> None:
            for node in nodes.values():
                samples = dict(node.stats_response().samples)
                expect = _recount(node)
                assert {name: samples[name] for name in expect} == expect, node.peer_id

        check()
        # The flat directory's memory gauges are read the same way.
        samples = dict(nodes[0].stats_response().samples)
        assert samples["planetp_node_full_filters_held"] == len(nodes)
        filter_bytes = len(nodes) * nodes[0].bloom_config.num_bits // 8
        assert samples["planetp_node_directory_filter_bytes"] == filter_bytes
        for i in range(3):
            nodes[i % 2].publish(Document(f"doc-{i}", DOC_TEXT))
            check()
        origin = nodes[0]
        manifest = origin.content.store.get_manifest("doc-0")
        (target,) = origin.content.replica_targets("doc-0", origin=0)
        stray = next(pid for pid in nodes if pid not in (0, target))
        plane = nodes[stray].content
        plane.on_manifest_push(ManifestPush(manifest))  # an orphan in the making
        check()
        for index in range(manifest.num_chunks):
            data = origin.content.store.get_chunk("doc-0", index)
            plane.on_chunk_push(ChunkPush("doc-0", index, data))
            check()
        assert dict(nodes[stray].stats_response().samples)[
            "planetp_content_orphan_chunk_bytes"
        ] == len(DOC_TEXT)
        for node in nodes.values():
            await node.content.maintenance_round()
            check()
        nodes[1].content.remove_local("doc-1")
        check()
        await nodes[target].stop()
        await community.mark_offline(target, via=0)
        check()
        for _ in range(3):
            await origin.content.maintenance_round()
            check()
        await community.stop()

    _run(scenario())


def test_publishes_make_no_placement_rescans():
    """Fifty publishes cost O(50) ring placements, not O(50²): the write
    path places nothing, and one scrape places each document at most
    twice."""

    async def scenario():
        community = Community(3, ContentConfig(replicas=1, chunk_size=128))
        await community.boot()
        node = community.nodes[0]
        plane = node.content
        calls = 0
        place = plane.replica_targets

        def counted(doc_id: str, origin: int) -> list[int]:
            nonlocal calls
            calls += 1
            return place(doc_id, origin)

        plane.replica_targets = counted
        for i in range(50):
            node.publish(Document(f"doc-{i}", DOC_TEXT))
        assert calls == 0
        node.stats_response()
        assert 50 <= calls <= 2 * 50
        await community.stop()

    _run(scenario())


def test_a_quiet_round_places_no_document():
    """At the replication fixed point a round visits no document; after a
    member goes offline, each node places a held document at most once
    in the round that notices."""

    async def scenario():
        community = Community(4, ContentConfig(replicas=1, chunk_size=4096))
        await community.boot()
        for i in range(200):
            community.nodes[0].publish(Document(f"doc-{i:03d}", DOC_TEXT))
        calls = dict.fromkeys(community.nodes, 0)
        for pid, node in community.nodes.items():
            place = node.content.replica_targets

            def counted(doc_id: str, origin: int, pid=pid, place=place) -> list[int]:
                calls[pid] += 1
                return place(doc_id, origin)

            node.content.replica_targets = counted
        for _ in range(40):
            for node in community.nodes.values():
                await node.content.maintenance_round()
        for pid, node in community.nodes.items():
            held = node.content.store.doc_ids()
            assert node.content.fully_replicated_docs() == len(held)
        assert len(community.nodes[0].content.store.doc_ids()) == 200
        calls.update(dict.fromkeys(calls, 0))
        for node in community.nodes.values():
            await node.content.maintenance_round()
        assert calls == dict.fromkeys(community.nodes, 0)

        await community.nodes[3].stop()
        for pid in (0, 1, 2):
            node = community.nodes[pid]
            node.membership.contact_failed(3, node.clock())
            calls[pid] = 0
            await node.content.maintenance_round()
            assert 0 < calls[pid] <= len(node.content.store.doc_ids())
        await community.stop()

    _run(scenario())
