"""The wire codec round-trips the whole message inventory and rejects junk."""

import struct

import pytest

from repro.constants import NET_CODEC_VERSION
from repro.gossip.rumor import RumorKind
from repro.gossip.wire import (
    ROWS,
    AENothing,
    AERecent,
    AERequest,
    AESummary,
    BrowseRequest,
    BrowseResponse,
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
    CodecError,
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
    decode,
    decode_member_payload,
    decode_update_payload,
    encode,
    encode_member_payload,
    encode_update_payload,
)

RECORD = PeerRecord(7, "10.0.0.7:9301", True, 3)
RUMOR = WireRumor((7 << 32) | 1, RumorKind.BF_UPDATE, 7, 12.5, b"\x01\x02\x03")
MANIFEST = ContentManifest(
    "n0007-d1", 7, 150_000, 65536, b"\xab" * 32, (0xDEADBEEF, 0xCAFEF00D, 0x0BADF00D)
)
SKETCH = SketchEntry(
    7, 3, (("gossip", 42), ("bloom", 17), ("épidémie", 1)), (("n0007-d1", 9),)
)

MESSAGES = [
    RumorPush(((7 << 32) | 1, (8 << 32) | 2)),
    RumorReply(((7 << 32) | 1,), ((9 << 32) | 5, (9 << 32) | 6)),
    RumorData((RUMOR, WireRumor(42, RumorKind.JOIN, 2, 0.0, b"payload"))),
    AERequest(0xDEADBEEFCAFEF00D),
    AENothing(),
    AERecent(((7 << 32) | 1, 42), 17),
    AESummary((RECORD, PeerRecord(8, "10.0.0.8:9301", False, 0)), (42,)),
    PullRequest(((7 << 32) | 1,)),
    PullRequest(()),
    JoinRequest(RECORD, b"compressed-bloom", (7 << 32) | 9, 99.25),
    JoinSnapshot(
        (SnapshotEntry(RECORD, b"bloom-bytes"), SnapshotEntry(PeerRecord(8, "h:1", True, 0), b"")),
        ((7 << 32) | 1, 42),
    ),
    RankedQuery(("gossip", "peers"), (("gossip", 1.5), ("peers", 0.25)), 10),
    RankedResponse((("doc-a", 3.5), ("doc-b", 1.0))),
    ExhaustiveQuery(("bloom", "filter")),
    ExhaustiveResponse(("doc-a", "doc-b", "doc-c")),
    SnippetFetch("doc-a"),
    SnippetResponse(True, "doc-a", "the full text éè"),
    SnippetResponse(False, "missing", ""),
    PublishRequest("doc-a", "the injected document text éè"),
    PublishRequest("empty", ""),
    PublishAck(True, "doc-a", 4),
    PublishAck(False, "doc-a", 0),
    StatsRequest(),
    StatsResponse(
        7,
        120.5,
        (
            ("planetp_node_gossip_rounds_total", 42.0),
            ("planetp_transport_bytes_sent_total", 18231.0),
        ),
    ),
    StatsResponse(0, 0.0, ()),
    SubscribeRequest(0, ("gossip", "bloom"), "10.0.0.9:9400", 42.5),
    SubscribeRequest(12, (), "h:1", 0.0),
    SubscribeAck(12, True, ""),
    SubscribeAck(0, False, "queue full"),
    Notify(12, 7, "doc-a", "the matching document text éè"),
    Unsubscribe(12),
    ShardSummaryRequest((0, 3, 7), True),
    ShardSummaryRequest((), False),
    ShardSummaryRequest((), False, ((0, 0xDEADBEEF), (3, 0xCAFEF00D))),
    ShardSummaryReply(
        (
            ShardSummaryEntry(0, 12, 5, b"summary-bloom"),
            ShardSummaryEntry(3, 0, 0, b""),
            ShardSummaryEntry(5, 20, 9, b"encoded-bloom-diff", True),
        ),
        (SnapshotEntry(RECORD, b"bloom-bytes"),),
    ),
    ShardSummaryReply((), ()),
    ViewExchange((RECORD, PeerRecord(8, "10.0.0.8:9301", False, 0)), 16),
    ViewExchange((), 0),
    ShardMatchQuery(3, ("gossip", "peers")),
    ShardMatchResponse(3, ((7, 0b11), (8, 0b01))),
    ShardMatchResponse(0, ()),
    ManifestRequest("n0007-d1"),
    ManifestReply(True, MANIFEST, ("10.0.0.7:9301", "10.0.0.8:9301")),
    ManifestReply(False, None, ("10.0.0.9:9301",)),
    ManifestReply(False, None, ()),
    ChunkRequest("n0007-d1", 2, 4096),
    ChunkReply(True, "n0007-d1", 2, 4096, 65536, b"\x5a" * 512),
    ChunkReply(False, "n0007-d1", 2, 0, 0, b""),
    ManifestPush(MANIFEST),
    ManifestAck("n0007-d1", True, (0, 2)),
    ManifestAck("n0007-d1", True, ()),
    ManifestAck("n0007-d1", False, ()),
    ChunkPush("n0007-d1", 1, b"\xa5" * 256),
    SketchExchange(
        (SKETCH, SketchEntry(8, 1, (), ())),
        ((7, 3), (8, 1), (9, 12)),
    ),
    SketchExchange((), ((7, 3),)),
    SketchReply((SKETCH,), ((7, 3), (8, 1))),
    SketchReply((), ()),
    TopTermsRequest(10),
    TopTermsReply(25, (("gossip", 412), ("bloom", 230), ("épidémie", 8))),
    TopTermsReply(0, ()),
    BrowseRequest("/gossip/protocols", 20),
    BrowseResponse(
        True,
        "/gossip/protocols",
        42,
        (
            ("n0007-d1", "planetp://n0007-d1", 17),
            ("n0008-d2", "planetp://n0008-d2", 3),
        ),
    ),
    BrowseResponse(False, "/no/such", 0, ()),
    ErrorReply("bad frame: truncated"),
]


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_roundtrip(msg):
    body = encode(msg)
    assert body[0] == NET_CODEC_VERSION
    assert decode(body) == msg


def test_every_row_is_covered():
    assert {type(m) for m in MESSAGES} == {row.cls for row in ROWS}


def _family_is_covered(family):
    def test():
        tested = {type(m) for m in MESSAGES}
        assert {row.cls for row in ROWS if row.family == family} <= tested

    return test


# One test per family the table names (test_every_gossip_type_is_covered,
# ...), so a failure says which inventory lost its canonical instance.
for _family in sorted({row.family for row in ROWS} - {None}):
    globals()[f"test_every_{_family}_type_is_covered"] = _family_is_covered(_family)


def test_found_manifest_reply_requires_a_manifest():
    with pytest.raises(CodecError, match="carries no manifest"):
        encode(ManifestReply(True, None, ()))


def test_oversized_shard_match_query_rejected():
    # The hit bitmask is a u64, so both sides refuse >64 terms outright:
    # the encoder won't emit such a frame ...
    terms = tuple(f"term{i}" for i in range(65))
    with pytest.raises(CodecError, match="exceeds"):
        encode(ShardMatchQuery(1, terms))
    # ... and the decoder rejects a forged one before reading any term.
    frame = bytes([NET_CODEC_VERSION, 35]) + struct.pack(">IH", 1, 65)
    with pytest.raises(CodecError, match="exceeds"):
        decode(frame)


def test_notify_carries_large_documents():
    # doc text travels as a u32 blob, not a u16 string, so >64 KiB works
    msg = Notify(1, 2, "big-doc", "x" * 70_000)
    assert decode(encode(msg)) == msg


def test_unknown_version_rejected():
    body = bytes([NET_CODEC_VERSION + 1]) + encode(AENothing())[1:]
    with pytest.raises(CodecError, match="version"):
        decode(body)


def test_unknown_type_byte_rejected():
    body = bytes([NET_CODEC_VERSION, 255])
    with pytest.raises(CodecError, match="type byte"):
        decode(body)


def test_trailing_bytes_rejected():
    with pytest.raises(CodecError, match="trailing"):
        decode(encode(AENothing()) + b"\x00")


def test_truncated_frame_rejected():
    body = encode(RumorData((RUMOR,)))
    with pytest.raises(CodecError, match="truncated"):
        decode(body[:-2])


def test_non_message_rejected():
    with pytest.raises(CodecError, match="not a wire message"):
        encode({"not": "a message"})


def test_oversized_rumor_id_rejected():
    with pytest.raises(CodecError, match="6 bytes"):
        encode(RumorPush((1 << 48,)))


def test_oversized_string_rejected():
    with pytest.raises(CodecError, match="64 KiB"):
        encode(SnippetFetch("x" * 70_000))


def test_unknown_rumor_kind_rejected():
    body = bytearray(encode(RumorData((RUMOR,))))
    # kind byte sits after version, type, count (u32), and rid (6 bytes)
    kind_at = 1 + 1 + 4 + 6
    body[kind_at] = 200
    with pytest.raises(CodecError, match="kind"):
        decode(bytes(body))


def test_member_payload_roundtrip():
    payload = encode_member_payload(RECORD, b"bloom")
    assert decode_member_payload(payload) == (RECORD, b"bloom")


def test_update_payload_roundtrip():
    payload = encode_update_payload(5, b"golomb-diff")
    assert decode_update_payload(payload) == (5, b"golomb-diff")
