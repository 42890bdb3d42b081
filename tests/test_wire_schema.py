"""The wire-schema table: one row per message, everything else derived."""

import dataclasses
import struct

import pytest

from repro.gossip import wire
from repro.gossip.schema import U32, record
from repro.gossip.wire import (
    ROW_AT,
    ROW_OF,
    ROWS,
    AERecent,
    PeerRecord,
    RankedQuery,
    ViewExchange,
)
from repro.net.codec import CodecError, encode, encode_update_payload

#: Dataclasses the inventory exports that are parts of messages, not
#: messages: they appear inside row layouts and have no type byte.
COMPONENTS = {
    wire.PeerRecord,
    wire.WireRumor,
    wire.SnapshotEntry,
    wire.ShardSummaryEntry,
    wire.ContentManifest,
    wire.SketchEntry,
}


def test_type_bytes_and_classes_are_unique():
    assert len(ROW_AT) == len(ROW_OF) == len(ROWS) == 43
    assert all(0 <= row.type_byte <= 0xFF for row in ROWS)
    assert [row.type_byte for row in ROWS] == sorted(ROW_AT)


def test_every_exported_dataclass_has_exactly_one_row():
    exported = {
        obj
        for obj in (getattr(wire, name) for name in wire.__all__)
        if dataclasses.is_dataclass(obj)
    }
    assert COMPONENTS < exported
    for cls in exported:
        rows = [row for row in ROWS if row.cls is cls]
        assert len(rows) == (0 if cls in COMPONENTS else 1), cls.__name__
    assert {row.cls for row in ROWS} == exported - COMPONENTS


def test_family_tuples_are_the_rows_in_type_byte_order():
    families = {
        wire.GOSSIP: (wire.GOSSIP_MESSAGES, range(1, 11)),
        wire.SERVE: (wire.SERVE_MESSAGES, range(24, 28)),
        wire.PARTIALVIEW: (wire.PARTIALVIEW_MESSAGES, range(32, 37)),
        wire.CONTENT: (wire.CONTENT_MESSAGES, range(37, 44)),
        wire.ANALYTICS: (wire.ANALYTICS_MESSAGES, range(44, 50)),
    }
    assert {row.family for row in ROWS} == set(families) | {None}
    for family, (classes, type_bytes) in families.items():
        assert classes == tuple(ROW_AT[t].cls for t in type_bytes), family
    # Exactly the ten Table-2 types are priced by count, not by width.
    assert {row.cls for row in ROWS if row.table2} == set(wire.GOSSIP_MESSAGES)


def test_counter_names_are_the_ones_the_stats_export_has_always_used():
    # benchmarks/e2e and the fleet invariants read these by name (yes,
    # ``a_e_``): what re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower() gave.
    assert [row.counter for row in ROWS] == [
        "rumor_push", "rumor_reply", "rumor_data", "a_e_request", "a_e_nothing",
        "a_e_recent", "a_e_summary", "pull_request", "join_request",
        "join_snapshot", "ranked_query", "ranked_response", "exhaustive_query",
        "exhaustive_response", "snippet_fetch", "snippet_response",
        "stats_request", "stats_response", "subscribe_request", "subscribe_ack",
        "notify", "unsubscribe", "publish_request", "publish_ack", "error_reply",
        "shard_summary_request", "shard_summary_reply", "view_exchange",
        "shard_match_query", "shard_match_response", "manifest_request",
        "manifest_reply", "chunk_request", "chunk_reply", "manifest_push",
        "manifest_ack", "chunk_push", "sketch_exchange", "sketch_reply",
        "top_terms_request", "top_terms_reply", "browse_request",
        "browse_response",
    ]  # fmt: skip


def test_a_layout_must_name_exactly_the_dataclass_fields():
    with pytest.raises(TypeError, match="PeerRecord layout"):
        record(PeerRecord, peer_id=U32)


@pytest.mark.parametrize(
    "msg",
    [
        AERecent((), -1),
        ViewExchange((PeerRecord(1, "a:1", True, -1),), 0),
        RankedQuery(("a",), (("a", 1.0),), 70000),
        RankedQuery(("a",), (("a", "heavy"),), 5),
        AERecent((), 1 << 32),
    ],
    ids=["negative-u32", "negative-in-record", "u16-overflow", "non-float", "u32-overflow"],
)
def test_out_of_range_fields_raise_codec_error_not_struct_error(msg):
    # The contract is "bytes or CodecError": struct.error must not escape.
    assert not issubclass(CodecError, struct.error)
    with pytest.raises(CodecError, match="does not fit"):
        encode(msg)


def test_out_of_range_payload_field_raises_codec_error():
    with pytest.raises(CodecError, match="does not fit a u32 field"):
        encode_update_payload(-1, b"diff")
