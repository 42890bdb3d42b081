"""Versioned binary wire format for PlanetP messages.

Every frame body is ``version byte + type byte + the message's fields``
(big-endian throughout, no external serializer).  The transport layer
adds a 4-byte length prefix; this module deals only in frame bodies
(:func:`call` is the one exchange over a transport built from them).

What the fields are is not written here: each message type is one
dataclass and one row of :data:`repro.gossip.wire.ROWS`, and
:func:`encode` / :func:`decode` walk that row's layout.  The same rows
give :class:`~repro.gossip.messages.MessageSizer` its model sizes, so
the cost model and the real encoding can be cross-checked.  The search,
stats, publish and error dataclasses are re-exported here for the
callers that speak the wire.

Field conventions: rumor ids travel as 6-byte big-endian integers
(Table 2's id-digest size), short strings as ``u16`` length + UTF-8,
document text and byte blobs as ``u32`` length + raw bytes.
"""

from __future__ import annotations

from typing import Protocol

from repro.constants import NET_CODEC_VERSION
from repro.gossip.schema import CodecError, pack, unpack
from repro.gossip.wire import (
    MEMBER_PAYLOAD,
    ROW_AT,
    ROW_OF,
    SHARD_MATCH_MAX_TERMS,
    UPDATE_PAYLOAD,
    ErrorReply,
    ExhaustiveQuery,
    ExhaustiveResponse,
    PeerRecord,
    PublishAck,
    PublishRequest,
    RankedQuery,
    RankedResponse,
    SnippetFetch,
    SnippetResponse,
    StatsRequest,
    StatsResponse,
)

__all__ = [
    "CodecError",
    "SHARD_MATCH_MAX_TERMS",
    "RankedQuery",
    "RankedResponse",
    "ExhaustiveQuery",
    "ExhaustiveResponse",
    "SnippetFetch",
    "SnippetResponse",
    "StatsRequest",
    "StatsResponse",
    "PublishRequest",
    "PublishAck",
    "ErrorReply",
    "encode",
    "decode",
    "call",
    "TransportLike",
    "encode_member_payload",
    "decode_member_payload",
    "encode_update_payload",
    "decode_update_payload",
]


def encode(msg: object, version: int = NET_CODEC_VERSION) -> bytes:
    """Encode any inventory message into a frame body."""
    row = ROW_OF.get(type(msg))
    if row is None:
        raise CodecError(f"not a wire message: {type(msg).__name__}")
    return pack(row.body, msg, bytes((version, row.type_byte)))


def decode(body: bytes) -> object:
    """Decode a frame body into its inventory message."""
    if not body:
        raise CodecError("truncated frame")
    if body[0] != NET_CODEC_VERSION:
        raise CodecError(f"unsupported wire version {body[0]}")
    if len(body) < 2:
        raise CodecError("truncated frame")
    row = ROW_AT.get(body[1])
    if row is None:
        raise CodecError(f"unknown message type byte {body[1]}")
    return unpack(row.body, body, 2)


class TransportLike(Protocol):
    """Anything that can round-trip a frame body to an address."""

    async def request(self, address: str, body: bytes) -> bytes:
        """Send ``body`` to ``address``; return the reply frame."""
        ...


async def call(transport: TransportLike, address: str, msg: object) -> object:
    """One exchange with a raw address: ``msg`` encoded, carried, and the
    reply decoded.  Raises ``TransportError`` / :class:`CodecError`.

    For endpoints that are not members (a node's own RPCs go through
    :meth:`~repro.net.node.NetworkPeer.request_peer`, which also accounts
    bytes and records liveness)."""
    return decode(await transport.request(address, encode(msg)))


# ---------------------------------------------------------------------------
# rumor payload encodings (what WireRumor.payload contains, per kind)
# ---------------------------------------------------------------------------


def encode_member_payload(record: PeerRecord, bloom: bytes) -> bytes:
    """JOIN/REJOIN payload: the member's record + compressed Bloom filter."""
    return pack(MEMBER_PAYLOAD, (record, bloom))


def decode_member_payload(payload: bytes) -> tuple[PeerRecord, bytes]:
    """Inverse of :func:`encode_member_payload`."""
    return unpack(MEMBER_PAYLOAD, payload)


def encode_update_payload(filter_version: int, diff: bytes) -> bytes:
    """BF_UPDATE payload: new filter version + Golomb-coded bit diff."""
    return pack(UPDATE_PAYLOAD, (filter_version, diff))


def decode_update_payload(payload: bytes) -> tuple[int, bytes]:
    """Inverse of :func:`encode_update_payload`."""
    return unpack(UPDATE_PAYLOAD, payload)
