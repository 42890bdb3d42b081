"""ContentClient behaviour: resolve hops, resume, fallback, verification.

The servers are real :class:`~repro.net.node.NetworkPeer` content planes
on the loopback fabric; the client is the same directory-less
:class:`~repro.content.retrieval.ContentClient` the ``python -m repro.net get``
subcommand uses, pointed at loopback addresses.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.constants import ContentConfig
from repro.content.retrieval import ContentClient
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.store.chunkstore import ContentNotFound
from repro.text.document import Document

pytestmark = pytest.mark.content

DOC_TEXT = "resumable chunked retrieval with replica fallback " * 30
DOC_BYTES = DOC_TEXT.encode("utf-8")


class Fixture:
    def __init__(self, n: int, config: ContentConfig, seed: int = 0) -> None:
        self.net = LoopbackNetwork(seed=seed)
        self.nodes = {
            pid: NetworkPeer(
                pid,
                "peer",
                pid,
                transport=self.net.transport(),
                seed=pid,
                registry=Registry(),
                content_config=config,
            )
            for pid in range(n)
        }
        self.registry = Registry()
        self.client = ContentClient(
            self.net.transport(), request_timeout_s=2.0, registry=self.registry
        )

    async def boot(self) -> None:
        for node in self.nodes.values():
            await node.start()
        for pid in range(1, len(self.nodes)):
            await self.nodes[pid].join(self.nodes[0].address)
        for _ in range(100):
            if all(
                node.membership.members() == sorted(self.nodes) for node in self.nodes.values()
            ):
                break
            for node in self.nodes.values():
                await node.gossip_round()

    async def replicate(self, origin: int, doc_id: str) -> None:
        self.nodes[origin].publish(Document(doc_id, DOC_TEXT))
        for _ in range(5):
            await self.nodes[origin].content.maintenance_round()

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()


def test_fetch_resumes_when_replies_are_windowed():
    """chunk_size 4x the reply cap: every chunk needs 4 resumed slices."""

    async def scenario():
        config = ContentConfig(replicas=1, chunk_size=256, max_reply_bytes=64)
        fx = Fixture(3, config)
        await fx.boot()
        await fx.replicate(0, "doc-r")
        data = await fx.client.fetch(["peer:0"], "doc-r")
        assert data == DOC_BYTES
        resumes = fx.registry.value("content_client", "chunk_resumes_total")
        assert resumes >= 3 * (len(DOC_BYTES) // 256)
        await fx.stop()

    asyncio.run(scenario())


def test_resolve_hops_through_advertised_holders():
    """Ask a member that holds nothing: its ManifestReply names the ring
    successors, and the fetch completes through the hop."""

    async def scenario():
        config = ContentConfig(replicas=1, chunk_size=256)
        fx = Fixture(4, config)
        await fx.boot()
        await fx.replicate(0, "doc-hop")
        holders = {
            pid
            for pid, node in fx.nodes.items()
            if node.content.store.is_complete("doc-hop")
        }
        empty = next(pid for pid in fx.nodes if pid not in holders)
        data = await fx.client.fetch([f"peer:{empty}"], "doc-hop")
        assert data == DOC_BYTES
        await fx.stop()

    asyncio.run(scenario())


def test_fetch_falls_back_to_surviving_replica():
    async def scenario():
        config = ContentConfig(replicas=2, chunk_size=128)
        fx = Fixture(4, config)
        await fx.boot()
        await fx.replicate(0, "doc-f")
        await fx.nodes[0].stop()  # the origin dies post-replication
        live = [f"peer:{pid}" for pid in (1, 2, 3)]
        data = await fx.client.fetch(["peer:0", *live], "doc-f")
        assert data == DOC_BYTES
        await fx.stop()

    asyncio.run(scenario())


def test_chunk_source_rotation_spreads_load():
    async def scenario():
        config = ContentConfig(replicas=2, chunk_size=64)
        fx = Fixture(4, config)
        await fx.boot()
        await fx.replicate(0, "doc-s")
        manifest = fx.nodes[0].content.store.get_manifest("doc-s")
        holders = [
            pid
            for pid, node in fx.nodes.items()
            if node.content.store.is_complete("doc-s")
        ]
        served_before = {
            pid: fx.nodes[pid].obs.value("content", "chunk_serves_total")
            for pid in holders
        }
        data = await fx.client.fetch([f"peer:{holders[0]}"], "doc-s")
        assert data == DOC_BYTES and manifest.num_chunks > len(holders)
        served = [
            fx.nodes[pid].obs.value("content", "chunk_serves_total")
            - served_before[pid]
            for pid in holders
        ]
        # Index-rotated source order: no single replica served everything.
        assert sum(served) >= manifest.num_chunks
        assert sum(1 for s in served if s > 0) >= 2
        await fx.stop()

    asyncio.run(scenario())


def test_corrupt_replica_is_rejected_and_routed_around():
    async def scenario():
        config = ContentConfig(replicas=2, chunk_size=256)
        fx = Fixture(4, config)
        await fx.boot()
        await fx.replicate(0, "doc-c")
        # Poison one replica's cached chunk 0 behind the CRC check (as a
        # bit-flip after verification would): it now serves bad bytes.
        holders = [
            pid
            for pid, node in fx.nodes.items()
            if pid != 0 and node.content.store.is_complete("doc-c")
        ]
        bad = fx.nodes[holders[0]].content.store
        bad._chunks["doc-c"][0] = b"\x00" * 256
        data = await fx.client.fetch([f"peer:{holders[0]}"], "doc-c")
        assert data == DOC_BYTES
        assert fx.registry.value("content_client", "crc_rejects_total") >= 1
        await fx.stop()

    asyncio.run(scenario())


def test_unknown_doc_exhausts_holders_with_typed_error():
    async def scenario():
        fx = Fixture(3, ContentConfig(replicas=1))
        await fx.boot()
        with pytest.raises(ContentNotFound, match="no reachable holder"):
            await fx.client.fetch(["peer:0", "peer:1"], "ghost-doc")
        with pytest.raises(ContentNotFound, match="no addresses"):
            await fx.client.fetch([], "ghost-doc")
        await fx.stop()

    asyncio.run(scenario())


def test_all_holders_dead_raises_not_hangs():
    async def scenario():
        fx = Fixture(2, ContentConfig(replicas=1))
        await fx.boot()
        await fx.replicate(0, "doc-d")
        await fx.nodes[0].stop()
        await fx.nodes[1].stop()
        with pytest.raises(ContentNotFound):
            await fx.client.fetch(["peer:0", "peer:1"], "doc-d")
        await fx.stop()

    asyncio.run(scenario())


def test_client_parameter_validation():
    net = LoopbackNetwork()
    with pytest.raises(ValueError, match="request_timeout_s"):
        ContentClient(net.transport(), request_timeout_s=0.0)
    with pytest.raises(ValueError, match="max_parallel_chunks"):
        ContentClient(net.transport(), max_parallel_chunks=0)
    with pytest.raises(ValueError, match="max_resolve_hops"):
        ContentClient(net.transport(), max_resolve_hops=0)
