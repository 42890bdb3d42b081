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
from repro.gossip.wire import ManifestPush
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
