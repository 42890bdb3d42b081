"""ContentClient behaviour: resolve hops, resume, fallback, verification.

The servers are real :class:`~repro.net.node.NetworkPeer` content planes
on the loopback fabric; the client is the same directory-less
:class:`~repro.content.retrieval.ContentClient` the ``python -m repro.net get``
subcommand uses, pointed at loopback addresses.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.constants import CONTENT_MAX_REPLY_BYTES, ContentConfig
from repro.content.retrieval import MAX_PARALLEL_CHUNKS, ContentClient
from repro.gossip.wire import ChunkReply, ChunkRequest, ManifestReply, ManifestRequest
from repro.net import codec
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.store.chunkstore import ContentNotFound, build_manifest
from repro.text.document import Document

pytestmark = pytest.mark.content

DOC_TEXT = "resumable chunked retrieval with replica fallback " * 30
DOC_BYTES = DOC_TEXT.encode("utf-8")


class Fixture:
    def __init__(self, n: int, config: ContentConfig) -> None:
        self.net = LoopbackNetwork()
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

    async def replicate(self, origin: int, doc_id: str, text: str = DOC_TEXT) -> None:
        self.nodes[origin].publish(Document(doc_id, text))
        for _ in range(5):
            await self.nodes[origin].content.maintenance_round()

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()


def test_fetch_resumes_when_replies_are_windowed():
    """chunk_size 4x the reply cap: every full chunk arrives in 4 slices."""

    async def scenario():
        chunk_size = 4 * CONTENT_MAX_REPLY_BYTES
        text = DOC_TEXT * (chunk_size // len(DOC_BYTES) + 1)  # one full chunk and a tail
        fx = Fixture(3, ContentConfig(replicas=1, chunk_size=chunk_size))
        await fx.boot()
        await fx.replicate(0, "doc-r", text)
        data = await fx.client.fetch(["peer:0"], "doc-r")
        assert data == text.encode("utf-8")
        resumes = fx.registry.value("content_client", "chunk_resumes_total")
        assert resumes >= 3 * (len(data) // chunk_size) >= 3
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


# -- a scripted transport: replies chosen per message, no nodes -----------------


class ScriptedTransport:
    """Answers each frame with ``reply(address, msg)``; a None reply
    blocks forever (a peer that never answers)."""

    def __init__(self, reply) -> None:
        self.reply = reply
        self.requests: list[tuple[str, object]] = []

    async def request(self, address: str, body: bytes) -> bytes:
        msg = codec.decode(body)
        self.requests.append((address, msg))
        answer = self.reply(address, msg)
        if answer is None:
            await asyncio.Event().wait()
        return codec.encode(answer)


def test_a_failed_chunk_cancels_its_siblings():
    """Chunk 0 is found nowhere while chunks 1 and 2 hang: the fetch
    fails, and by the time it has raised no sibling download is still
    running, holding a permit or about to send another ChunkRequest."""
    data = b"x" * 300
    manifest = build_manifest("doc-o", 0, data, 100)

    def reply(address, msg):
        if isinstance(msg, ManifestRequest):
            return ManifestReply(True, manifest, ())
        if msg.index == 0:
            return ChunkReply(False, msg.doc_id, 0, msg.offset, 0, b"")
        return None

    async def scenario():
        transport = ScriptedTransport(reply)
        client = ContentClient(transport, request_timeout_s=60.0, registry=Registry())
        with pytest.raises(ContentNotFound, match="chunk 0"):
            await client.fetch(["peer:0"], "doc-o")
        assert asyncio.all_tasks() == {asyncio.current_task()}
        assert client._parallel._value == MAX_PARALLEL_CHUNKS
        sent = len(transport.requests)
        await asyncio.sleep(0)
        assert len(transport.requests) == sent

    asyncio.run(scenario())


def test_fallback_holders_keep_discovery_order():
    """Unconfirmed holders follow the confirmed ones in the order they
    were found, whatever the string hash seed."""
    manifest = build_manifest("doc-h", 0, b"y" * 10, 10)
    advertised = {
        "seed:0": ("h:1", "h:2", "h:3", "h:4", "h:5", "h:6", "h:7", "h:8", "h:9", "h:10")
    }

    def reply(address, msg):
        if address == "h:5":
            return ManifestReply(True, manifest, ())
        return ManifestReply(False, None, advertised.get(address, ()))

    async def scenario():
        client = ContentClient(ScriptedTransport(reply), registry=Registry())
        found, holders = await client.resolve(["seed:0"], "doc-h")
        assert found == manifest
        frontier = ["seed:0", *(f"h:{i}" for i in range(1, 11))]
        assert holders == ["h:5", *(a for a in frontier if a != "h:5")]

    asyncio.run(scenario())
