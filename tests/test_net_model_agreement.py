"""Satellite cross-check: real encodings vs the Table-2 byte model.

The simulator prices gossip messages with ``MessageSizer`` while the
network layer actually encodes them.  Both work from the shared inventory
in :mod:`repro.gossip.wire`, and this suite holds them honest twice over:
for every inventory type, a realistically-populated instance's real
encoded length must stay within a factor of two of the model's
prediction; and a live loopback community's *measured* transport traffic
must stay within the same envelope of the model's aggregate prediction
for the messages it actually exchanged.
"""

import asyncio

import numpy as np
import pytest

from repro.bloom.diff import BloomDiff
from repro.bloom.filter import BloomFilter
from repro.constants import BloomConfig, PartialViewConfig
from repro.gossip.messages import MessageSizer
from repro.gossip.rumor import RumorKind
from repro.gossip.wire import (
    ANALYTICS,
    CONTENT,
    GOSSIP,
    PARTIALVIEW,
    ROWS,
    SERVE,
    AENothing,
    AERecent,
    AERequest,
    AESummary,
    ChunkPush,
    ChunkReply,
    ChunkRequest,
    ContentManifest,
    JoinRequest,
    JoinSnapshot,
    ManifestAck,
    ManifestPush,
    ManifestReply,
    ManifestRequest,
    Notify,
    PeerRecord,
    PullRequest,
    RumorData,
    RumorPush,
    RumorReply,
    ShardMatchQuery,
    ShardMatchResponse,
    BrowseRequest,
    BrowseResponse,
    ShardSummaryEntry,
    ShardSummaryReply,
    ShardSummaryRequest,
    SketchEntry,
    SketchExchange,
    SketchReply,
    SnapshotEntry,
    SubscribeAck,
    SubscribeRequest,
    TopTermsReply,
    TopTermsRequest,
    Unsubscribe,
    ViewExchange,
    WireRumor,
)
from repro.net.codec import (
    ErrorReply,
    ExhaustiveQuery,
    ExhaustiveResponse,
    PublishAck,
    PublishRequest,
    RankedQuery,
    RankedResponse,
    SnippetFetch,
    SnippetResponse,
    StatsRequest,
    StatsResponse,
    encode,
    encode_member_payload,
)
from repro.net.client import NetworkSearchClient
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document
from tests.chaos_harness import ChaosCommunity


def _bloom_bytes(terms) -> bytes:
    bf = BloomFilter(4096, 2)
    bf.add_many(terms)
    return bf.to_compressed()


def _records(n: int) -> tuple[PeerRecord, ...]:
    return tuple(
        PeerRecord(pid, f"192.168.1.{pid}:9301", pid % 2 == 0, pid) for pid in range(n)
    )


def _rumors(n: int) -> tuple[WireRumor, ...]:
    # Realistic payloads: a member record + small compressed filter each,
    # just as JOIN rumors carry on the wire.
    out = []
    for pid in range(n):
        payload = encode_member_payload(
            PeerRecord(pid, f"192.168.1.{pid}:9301", True, 1),
            _bloom_bytes([f"term-{pid}-{j}" for j in range(4)]),
        )
        out.append(WireRumor((pid << 32) | 1, RumorKind.JOIN, pid, 1.0, payload))
    return tuple(out)


_RIDS = tuple((pid << 32) | seq for pid in range(4) for seq in range(3))
_BLOOM = _bloom_bytes([f"word-{i}" for i in range(12)])

INSTANCES = [
    RumorPush(_RIDS),
    RumorReply(_RIDS[:5], _RIDS[5:9]),
    RumorData(_rumors(3)),
    AERequest(0x0123456789ABCDEF),
    AENothing(),
    AERecent(_RIDS, 40),
    AESummary(_records(8), _RIDS),
    PullRequest(_RIDS[:6]),
    JoinRequest(_records(1)[0], _BLOOM, 7, 3.5),
    JoinSnapshot(
        tuple(SnapshotEntry(rec, _BLOOM) for rec in _records(6)), _RIDS
    ),
]

#: The serve inventory gets the same 2x treatment but stays out of the
#: gossip coverage check — it is not part of the Table-2 model.
SERVE_INSTANCES = [
    SubscribeRequest(0, ("gossip", "bloom", "filters"), "192.168.1.9:9400", 42.5),
    SubscribeAck(12, True, "subscribed"),
    Notify(12, 7, "doc-a", "peer 7 shares gossip corpus shard with bloom filters"),
    Unsubscribe(12),
]

#: The partial-view inventory, likewise priced outside Table 2 (the
#: paper's model predates sharded directories).  Instances are sized the
#: way the protocol actually uses them: summary replies carry compressed
#: shard-OR filters, view exchanges trade a dozen-odd records.
PARTIALVIEW_INSTANCES = [
    ShardSummaryRequest(
        (0, 2, 5), True, tuple((shard, 0xABCD << shard) for shard in range(3))
    ),
    ShardSummaryReply(
        tuple(
            ShardSummaryEntry(shard, 60, 12, _BLOOM) for shard in range(4)
        )
        + (
            ShardSummaryEntry(
                4,
                60,
                13,
                BloomDiff(
                    4096, np.array([7, 99, 1024, 4000], dtype=np.int64)
                ).to_bytes(),
                True,
            ),
        ),
        tuple(SnapshotEntry(rec, _BLOOM) for rec in _records(3)),
    ),
    ViewExchange(_records(12), 16),
    ShardMatchQuery(3, ("gossip", "bloom", "filters", "peers")),
    ShardMatchResponse(3, tuple((pid, 0b1011) for pid in range(10))),
]

#: A realistic transfer contract: a ~150 KB document in 64 KB chunks.
_MANIFEST = ContentManifest(
    "n0007-d1",
    7,
    150_000,
    65536,
    b"\xab" * 32,
    (0xDEADBEEF, 0xCAFEF00D, 0x0BADF00D),
)

#: The content inventory, priced outside Table 2 like serve/partial-view
#: (chunked transfers are PlanetP Section-6 machinery, not gossip).
#: Payload-bearing replies carry data sized the way the protocol sends
#: it — a reply-window slice, a whole chunk push.
#: Realistic sketch entries: a few dozen space-saving term counters plus
#: a handful of document access counters per origin, as a converged
#: community's exchanges actually carry them.
def _sketch_entries(n: int) -> tuple[SketchEntry, ...]:
    return tuple(
        SketchEntry(
            origin,
            3 + origin,
            tuple((f"term{origin:02d}{j:02d}", 40 - j) for j in range(24)),
            tuple((f"n{origin:04d}-d{j}", 9 - j) for j in range(4)),
        )
        for origin in range(n)
    )


#: The analytics inventory, priced outside Table 2 like serve/content
#: (frequent-term mining is new machinery, not the paper's gossip).
ANALYTICS_INSTANCES = [
    SketchExchange(_sketch_entries(2), tuple((pid, 3 + pid) for pid in range(20))),
    SketchReply(_sketch_entries(3), tuple((pid, 3 + pid) for pid in range(20))),
    TopTermsRequest(10),
    TopTermsReply(25, tuple((f"term{j:04d}", 900 - j) for j in range(10))),
    BrowseRequest("/gossip/protocols", 20),
    BrowseResponse(
        True,
        "/gossip/protocols",
        0xDEADBEEFCAFEF00D,
        tuple((f"n{j:04d}-d0", f"planetp://n{j:04d}-d0", 40 - j) for j in range(12)),
    ),
]

CONTENT_INSTANCES = [
    ManifestRequest("n0007-d1"),
    ManifestReply(
        True, _MANIFEST, tuple(f"192.168.1.{pid}:9301" for pid in range(4))
    ),
    ChunkRequest("n0007-d1", 2, 4096),
    ChunkReply(True, "n0007-d1", 2, 4096, 65536, b"\x5a" * 8192),
    ManifestPush(_MANIFEST),
    ManifestAck("n0007-d1", True, (0, 1, 2)),
    ChunkPush("n0007-d1", 1, b"\xa5" * 65536),
]


SEARCH_INSTANCES = [
    RankedQuery(
        ("gossip", "bloom", "filter"),
        (("gossip", 2.31), ("bloom", 1.07), ("filter", 0.44)),
        10,
    ),
    RankedResponse(tuple((f"n{j:04d}-d{j}", 9.5 - j) for j in range(10))),
    ExhaustiveQuery(("gossip", "bloom")),
    ExhaustiveResponse(tuple(f"n{j:04d}-d0" for j in range(6))),
    SnippetFetch("n0007-d1"),
    SnippetResponse(True, "n0007-d1", "gossip spreads rumors " * 40),
    StatsRequest(),
    StatsResponse(
        7, 120.5, tuple((f"planetp_node_metric_{j}_total", float(j)) for j in range(40))
    ),
    PublishRequest("n0007-d1", "gossip spreads rumors " * 40),
    PublishAck(True, "n0007-d1", 4),
    ErrorReply("KeyError: 'n0007-d1'"),
]

#: Realistically-populated instances of every row, by the table's family.
FAMILY_INSTANCES = {
    GOSSIP: INSTANCES,
    SERVE: SERVE_INSTANCES,
    PARTIALVIEW: PARTIALVIEW_INSTANCES,
    CONTENT: CONTENT_INSTANCES,
    ANALYTICS: ANALYTICS_INSTANCES,
    None: SEARCH_INSTANCES,
}


@pytest.fixture(scope="module")
def sizer() -> MessageSizer:
    """The Table-2 model."""
    return MessageSizer()


def _within_2x_of_model(family):
    @pytest.mark.parametrize(
        "msg", FAMILY_INSTANCES[family], ids=lambda m: type(m).__name__
    )
    def test(msg, sizer):
        real = len(encode(msg))
        model = sizer.model_size(msg)
        assert model > 0
        ratio = real / model
        assert 0.5 <= ratio <= 2.0, (
            f"{type(msg).__name__}: real={real}B model={model}B ratio={ratio:.2f}"
        )

    return test


def _fully_covered(family):
    def test():
        instance_types = {type(m) for m in FAMILY_INSTANCES[family]}
        assert instance_types == {row.cls for row in ROWS if row.family == family}

    return test


# One body each, instantiated per family of the table; the names are the
# ones the suite has always reported these checks under.
test_real_encoding_within_2x_of_model = _within_2x_of_model(GOSSIP)
test_inventory_fully_covered = _fully_covered(GOSSIP)
test_serve_encoding_within_2x_of_model = _within_2x_of_model(SERVE)
test_serve_inventory_fully_covered = _fully_covered(SERVE)
test_partialview_encoding_within_2x_of_model = _within_2x_of_model(PARTIALVIEW)
test_partialview_inventory_fully_covered = _fully_covered(PARTIALVIEW)
test_content_encoding_within_2x_of_model = _within_2x_of_model(CONTENT)
test_content_inventory_fully_covered = _fully_covered(CONTENT)
test_analytics_encoding_within_2x_of_model = _within_2x_of_model(ANALYTICS)
test_analytics_inventory_fully_covered = _fully_covered(ANALYTICS)
test_search_encoding_within_2x_of_model = _within_2x_of_model(None)
test_search_inventory_fully_covered = _fully_covered(None)


def test_every_family_of_the_table_has_instances():
    assert set(FAMILY_INSTANCES) == {row.family for row in ROWS}


def test_table2_model_sizes_are_the_papers(sizer):
    # The ten Table-2 types go through the by-count methods the simulator
    # runs on; these are the numbers from before model_size read the table.
    assert [sizer.model_size(m) for m in INSTANCES] == [
        75, 57, 164, 11, 3, 75, 387, 39, 90, 525,
    ]  # fmt: skip


def test_model_rejects_non_gossip_messages(sizer):
    # Every row is priced; a component (not a message) or a stranger is not.
    for stranger in (_records(1)[0], {"not": "a message"}):
        with pytest.raises(TypeError, match="not a gossip wire message"):
            sizer.model_size(stranger)


# ---------------------------------------------------------------------------
# live traffic: measured transport bytes vs the model, same 2x envelope
# ---------------------------------------------------------------------------


def test_live_community_traffic_within_2x_of_model():
    """Boot 6 loopback peers, gossip to convergence, and compare what the
    transports *measured* (``transport.bytes_sent_total``) against what
    the Table-2 model *predicted* for the exact messages exchanged
    (``node.gossip_model_bytes_total``)."""

    async def scenario() -> ChaosCommunity:
        community = ChaosCommunity(6, seed=99)  # no faults scripted
        await community.boot()
        for pid in range(6):
            community.publish(
                pid,
                Document(f"doc-{pid}", f"peer {pid} shares gossip corpus shard {pid}"),
            )
        await community.run_rounds(30)
        await community.converge()
        for pid in community.nodes:
            await community.nodes[pid].stop()
        return community

    community = asyncio.run(scenario())
    measured = community.metric_sum("transport", "bytes_sent_total")
    accounted = community.metric_sum("node", "gossip_real_bytes_total")
    model = community.metric_sum("node", "gossip_model_bytes_total")
    assert measured > 0 and model > 0
    # This run was pure gossip, so every byte the transports sent must
    # have been accounted as a gossip frame by some node.
    assert accounted == measured
    ratio = measured / model
    assert 0.5 <= ratio <= 2.0, (
        f"live traffic {measured:.0f}B vs model {model:.0f}B "
        f"(ratio {ratio:.2f}) escaped the 2x envelope"
    )


def test_partialview_search_traffic_accounted_within_2x_of_model():
    """A partial-view search asks foreign shards with ``ShardMatchQuery``
    through the node's one member-RPC path, so the searcher now counts its
    requests in the partial-view byte totals (the answering peers always
    counted their replies), and the search's measured/model ratio stays
    inside the same envelope."""

    def totals(registries) -> tuple[list[float], list[float]]:
        return (
            [r.value("node", "partialview_real_bytes_total") for r in registries],
            [r.value("node", "partialview_model_bytes_total") for r in registries],
        )

    async def scenario():
        net = LoopbackNetwork()
        registries = [Registry() for _ in range(8)]
        nodes = [
            NetworkPeer(
                pid,
                "peer",
                pid,
                transport=net.transport(),
                seed=pid,
                registry=registries[pid],
                bloom_config=BloomConfig(num_bits=4096, num_hashes=2),
                partial_view=PartialViewConfig(num_shards=3, sample_size=2),
            )
            for pid in range(8)
        ]
        for node in nodes:
            await node.start()
            node.publish(Document(f"doc-{node.peer_id}", f"topic{node.peer_id} shared corpus"))
        for node in nodes[1:]:
            await node.join(nodes[0].address)
        for _ in range(40):
            for node in nodes:
                await node.gossip_round()
        before = totals(registries)
        result = await NetworkSearchClient(nodes[2]).ranked_search("shared corpus", k=8)
        after = totals(registries)
        assert len(result.results) == 8
        for node in nodes:
            await node.stop()
        return registries[2], before, after

    searcher, (real0, model0), (real1, model1) = asyncio.run(scenario())
    assert searcher.value("client", "shard_fanouts_total") > 0
    assert searcher.value("wire", "shard_match_query_messages_total") > 0
    assert real1[2] > real0[2]  # the searcher's own requests
    real, model = sum(real1) - sum(real0), sum(model1) - sum(model0)
    assert 0.5 <= real / model <= 2.0, f"search real {real:.0f}B vs model {model:.0f}B"
