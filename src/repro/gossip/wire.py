"""The wire inventory: every message's dataclass and its one schema row.

The simulator costs messages with :class:`~repro.gossip.messages.MessageSizer`
(Table 2's byte model) while the real network layer (:mod:`repro.net`)
encodes them into actual frames.  Both views work from this module, so
the inventory exists exactly once: each message type is one dataclass
plus one row of :data:`ROWS` — ``type byte, class, family, Table-2
pricing, body layout`` in the field specs of :mod:`repro.gossip.schema`.
Everything else is derived from the rows: :func:`repro.net.codec.encode`
and ``decode``, the minimum sizes that guard every ``u32`` count, the
``*_MESSAGES`` family tuples, the per-type byte-counter names of
:class:`~repro.net.node.NetworkPeer`, ``MessageSizer.model_size`` for the
types outside Table 2 (a width walk over the layout), and the random
instances the round-trip and fuzz suites generate.
``tests/test_net_model_agreement.py`` asserts the real encodings stay
within 2x of the model for the whole inventory, and
``tests/test_net_codec_golden.py`` pins every byte of them.

The protocol exchanges (paper Section 3, mirrored from
:mod:`repro.gossip.simpeer`) map onto request/response pairs:

=================  =====================================================
``RumorPush``      x announces its active rumor ids; answered by
``RumorReply``     which ids y needs + the partial-AE piggyback
``RumorData``      x ships the needed rumor payloads (answered by an ack)
``AERequest``      x sends its directory digest; answered by
``AENothing``      digests matched, or
``AERecent``       y's recently-learned rumor ids (cheap first level)
``PullRequest``    request payloads by id — or, with no ids, the full
``AESummary``      directory summary (proportional to community size)
``JoinRequest``    a joiner introduces itself (record + Bloom filter)
``JoinSnapshot``   the bootstrap's full directory download
=================  =====================================================

Beyond the gossip exchanges, the **serve inventory** carries persistent
queries (paper Section 5.1) over the wire — a standing conjunctive query
a remote client posts once, then receives upcalls for as matching
documents are published anywhere in the community:

====================  =================================================
``SubscribeRequest``  post a standing query, naming the address the
                      upcalls should be delivered to
``SubscribeAck``      the serving node's verdict + assigned id
``Notify``            one upcall: a newly published matching document
``Unsubscribe``       deregister a standing query by id
====================  =================================================

Serve messages are priced by ``MessageSizer.model_size`` too (held to
the same 2x envelope), but they live in :data:`SERVE_MESSAGES`, not
:data:`GOSSIP_MESSAGES` — the Table-2 gossip cost model stays exactly
the paper's inventory.

The **partial-view inventory** (:mod:`repro.gossip.partialview`) carries
the sharded-directory mode's maintenance and query fan-out:

=======================  ==============================================
``ShardSummaryRequest``  ask a peer for shard summary filters (and,
                         optionally, full member entries per shard)
``ShardSummaryReply``    per-shard OR-summaries + requested members
``ViewExchange``         trade bounded random membership-record samples
``ShardMatchQuery``      ask a shard member which of its peers hit terms
``ShardMatchResponse``   per-peer term-hit bitmasks for that shard
=======================  ==============================================

Like serve messages these are priced to the same 2x envelope but live in
:data:`PARTIALVIEW_MESSAGES`, outside the Table-2 gossip model.

The **content inventory** (:mod:`repro.content`) moves document *bytes*
peer to peer — chunked transfers with per-chunk CRCs plus the k-way
replication push that keeps content retrievable through churn:

=====================  ================================================
``ManifestRequest``    ask a peer for a document's manifest
``ManifestReply``      the manifest (chunk CRCs + whole-document
                       digest) plus the replica addresses to fetch from
``ChunkRequest``       fetch one chunk, resumable from a byte offset
``ChunkReply``         the chunk bytes from that offset (possibly a
                       prefix — the requester re-asks from where the
                       last reply stopped)
``ManifestPush``       a holder offers a document to a ring successor
``ManifestAck``        the successor's verdict + which chunks it still
                       needs (empty = complete, replica confirmed)
``ChunkPush``          ship one chunk to a successor (``ManifestAck``'d)
=====================  ================================================

Same 2x pricing envelope, grouped in :data:`CONTENT_MESSAGES`, outside
the Table-2 gossip model.

The **analytics inventory** (:mod:`repro.analytics`) piggybacks mergeable
term/access sketches on gossip rounds and serves the popularity-ranked
browse plane built on them:

=====================  ================================================
``SketchExchange``     push sketch entries + advertise the sender's
                       per-origin epoch digest (anti-entropy for the
                       community-wide frequent-term estimate)
``SketchReply``        entries the responder believes the sender lacks,
                       plus the responder's own epoch digest
``TopTermsRequest``    ask a node for its converged top-k term estimate
``TopTermsReply``      the estimate: (term, community count) pairs
``BrowseRequest``      popularity-ranked listing of one query-named
                       namespace directory, from the node's local index
``BrowseResponse``     the listing + the directory generation it was
                       computed against
=====================  ================================================

Same 2x pricing envelope, grouped in :data:`ANALYTICS_MESSAGES`, outside
the Table-2 gossip model.

The remaining rows belong to no family and no byte counter: the
**search RPCs** (exhaustive and ranked TF×IPF query, snippet fetch), the
stats poll, the fleet control plane's publish injection, and the
generic ``ErrorReply``.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.constants import MESSAGE_HEADER_BYTES, PEER_SUMMARY_BYTES
from repro.gossip.rumor import RumorKind
from repro.gossip.schema import (
    BLOB,
    BOOL,
    DOC_TEXT,
    F64,
    RID,
    TEXT,
    U16,
    U32,
    U64,
    Spec,
    enum,
    priced_as_summary,
    record,
    seq,
    tup,
    when,
)

__all__ = [
    "PeerRecord",
    "WireRumor",
    "SnapshotEntry",
    "RumorPush",
    "RumorReply",
    "RumorData",
    "AERequest",
    "AENothing",
    "AERecent",
    "AESummary",
    "PullRequest",
    "JoinRequest",
    "JoinSnapshot",
    "GOSSIP_MESSAGES",
    "SubscribeRequest",
    "SubscribeAck",
    "Notify",
    "Unsubscribe",
    "SERVE_MESSAGES",
    "ShardSummaryEntry",
    "ShardSummaryRequest",
    "ShardSummaryReply",
    "ViewExchange",
    "ShardMatchQuery",
    "ShardMatchResponse",
    "PARTIALVIEW_MESSAGES",
    "ContentManifest",
    "ManifestRequest",
    "ManifestReply",
    "ChunkRequest",
    "ChunkReply",
    "ManifestPush",
    "ManifestAck",
    "ChunkPush",
    "CONTENT_MESSAGES",
    "SketchEntry",
    "SketchExchange",
    "SketchReply",
    "TopTermsRequest",
    "TopTermsReply",
    "BrowseRequest",
    "BrowseResponse",
    "ANALYTICS_MESSAGES",
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
    "SHARD_MATCH_MAX_TERMS",
    "PEER_RECORD",
    "SKETCH_ENTRY",
    "MEMBER_PAYLOAD",
    "UPDATE_PAYLOAD",
    "GOSSIP",
    "SERVE",
    "PARTIALVIEW",
    "CONTENT",
    "ANALYTICS",
    "Row",
    "ROWS",
    "ROW_OF",
    "ROW_AT",
]


@dataclass(frozen=True)
class PeerRecord:
    """One member's row of the replicated directory, as gossiped.

    The paper budgets :data:`~repro.constants.PEER_SUMMARY_BYTES` (48 B)
    per record; the codec packs it as id, flags, filter version, and a
    length-prefixed ``host:port`` address.
    """

    peer_id: int
    address: str
    online: bool
    filter_version: int


@dataclass(frozen=True)
class WireRumor:
    """One gossiped event with its real payload bytes.

    The simulation's :class:`~repro.gossip.rumor.Rumor` carries a payload
    *size*; on the wire the payload is the actual data — a member record
    plus compressed Bloom filter for JOIN/REJOIN, a Golomb-coded filter
    diff for BF_UPDATE.
    """

    rid: int
    kind: RumorKind
    origin: int
    created_at: float
    payload: bytes


@dataclass(frozen=True)
class SnapshotEntry:
    """One member in a join snapshot: its record plus compressed filter."""

    record: PeerRecord
    bloom: bytes


@dataclass(frozen=True)
class RumorPush:
    """x announces the ids of its actively-spread rumors."""

    rids: tuple[int, ...]


@dataclass(frozen=True)
class RumorReply:
    """y answers which ids it needs, piggybacking partial-AE ids."""

    needed: tuple[int, ...]
    piggyback: tuple[int, ...]


@dataclass(frozen=True)
class RumorData:
    """x ships the needed rumor payloads."""

    rumors: tuple[WireRumor, ...]


@dataclass(frozen=True)
class AERequest:
    """x asks y for reconciliation, sending its own directory digest."""

    digest: int


@dataclass(frozen=True)
class AENothing:
    """Digests matched (also used as the bare acknowledgement frame)."""


@dataclass(frozen=True)
class AERecent:
    """Cheap reconciliation: y's recently-learned rumor ids, plus how many
    rumors y knows in total so x can detect divergence beyond the window."""

    rids: tuple[int, ...]
    known_count: int


@dataclass(frozen=True)
class AESummary:
    """y's full directory summary: member records plus every known rumor id
    (proportional to community size — the costly fallback level)."""

    entries: tuple[PeerRecord, ...]
    rids: tuple[int, ...]


@dataclass(frozen=True)
class PullRequest:
    """Request specific rumor payloads by id; an empty id list requests
    the full directory summary instead (the sim's ``pull_request(0)``)."""

    rids: tuple[int, ...]


@dataclass(frozen=True)
class JoinRequest:
    """A new member introduces itself to its bootstrap peer.

    Carries everything the bootstrap needs to mint the joiner's JOIN
    rumor: the joiner-assigned rumor id, its record, and its compressed
    Bloom filter.
    """

    record: PeerRecord
    bloom: bytes
    rid: int
    created_at: float


@dataclass(frozen=True)
class JoinSnapshot:
    """Full directory download for a new member: every member's record and
    filter (the 16 MB-for-1000-peers case of Section 7.2) plus the known
    rumor-id set so the joiner's digest converges."""

    entries: tuple[SnapshotEntry, ...]
    rids: tuple[int, ...]



# ---------------------------------------------------------------------------
# serve inventory: persistent queries over the wire (paper Section 5.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubscribeRequest:
    """A client posts a standing conjunctive query to a serving node.

    ``sub_id`` 0 asks the server to assign a fresh id; a nonzero id
    reattaches to (or updates) an existing subscription — the client's
    handle after a reconnect, carrying a possibly-new notify address.
    """

    sub_id: int
    terms: tuple[str, ...]
    #: ``host:port`` the client is serving upcalls on.
    notify_address: str
    created_at: float


@dataclass(frozen=True)
class SubscribeAck:
    """The serving node's verdict: the (possibly freshly assigned) id,
    whether the subscription was accepted, and a reason when not."""

    sub_id: int
    accepted: bool
    message: str


@dataclass(frozen=True)
class Notify:
    """One upcall: a newly published document matching a standing query.

    Sent from the serving node to the subscriber's notify address;
    acknowledged with a bare ``AENothing`` frame.  ``origin`` is the
    publishing peer's id; ``text`` travels as a u32 blob so documents
    larger than 64 KiB survive the trip.
    """

    sub_id: int
    origin: int
    doc_id: str
    text: str


@dataclass(frozen=True)
class Unsubscribe:
    """Deregister a standing query by id (acknowledged with ``SubscribeAck``)."""

    sub_id: int



# ---------------------------------------------------------------------------
# partial-view inventory: sharded-directory maintenance and query fan-out
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSummaryEntry:
    """One shard's coarse summary: the compressed OR of its member
    filters, the responder's census of the shard, and a freshness
    version (component of :class:`ShardSummaryReply`, not a message).

    With ``diff=True`` the ``bloom`` field carries a serialized
    :class:`~repro.bloom.diff.BloomDiff` — only the positions set since
    the summary token the requester advertised — instead of the full
    compressed filter.  Diffs are monotone position sets, so a receiver
    OR-ing one in can never lose bits.
    """

    shard: int
    member_count: int
    version: int
    bloom: bytes
    diff: bool = False


@dataclass(frozen=True)
class ShardSummaryRequest:
    """Ask a peer for shard summaries.

    An empty ``shards`` tuple requests every shard the responder can
    speak for.  ``want_members=True`` additionally requests the full
    member entries (record + compressed filter) the responder holds for
    the named shards — the bootstrap/backfill path a joiner (or the
    survivor of a shard member's death) uses to learn its home shard's
    full filters.

    ``known`` advertises the requester's current ``(shard, token)``
    summary fingerprints.  A token is a content hash of the summary's
    set-bit positions; when the responder's recent history contains the
    advertised token it answers with a position *diff* instead of the
    full compressed bloom, and falls back to the full bloom on any
    mismatch.
    """

    shards: tuple[int, ...]
    want_members: bool
    known: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ShardSummaryReply:
    """Per-shard summaries plus any requested full member entries."""

    entries: tuple[ShardSummaryEntry, ...]
    members: tuple[SnapshotEntry, ...]


@dataclass(frozen=True)
class ViewExchange:
    """Trade bounded random samples of membership records.

    Serves as both request and reply: the initiator sends a sample of
    its directory records and asks for up to ``want`` in return; the
    responder answers with its own sample and ``want=0``.  Keeps every
    node's *record* view complete under partial filters, cheaply —
    records are ~30 bytes against a filter's kilobytes.
    """

    records: tuple[PeerRecord, ...]
    want: int


@dataclass(frozen=True)
class ShardMatchQuery:
    """Ask a member of ``shard`` which of that shard's peers may hold
    the query terms — the fine-grained second hop after shard summaries
    nominated the shard."""

    shard: int
    terms: tuple[str, ...]


@dataclass(frozen=True)
class ShardMatchResponse:
    """Per-peer term-hit bitmasks for one shard: ``hits[i] = (pid,
    mask)`` where bit ``t`` of ``mask`` is set iff the responder's copy
    of ``pid``'s filter may contain query term ``t``."""

    shard: int
    hits: tuple[tuple[int, int], ...]



# ---------------------------------------------------------------------------
# content inventory: chunked transfers and k-way replication pushes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ContentManifest:
    """A document's transfer contract (component, not a message).

    ``digest`` is the SHA-256 of the whole document; ``chunk_crcs[i]``
    is the CRC-32 of chunk ``i`` (every chunk is ``chunk_size`` bytes
    except a possibly-shorter final one), so a receiver can verify each
    chunk on arrival and the assembled bytes at the end.  ``origin`` is
    the publishing peer — the one node that never garbage-collects its
    copy during replica handoff.
    """

    doc_id: str
    origin: int
    total_size: int
    chunk_size: int
    digest: bytes
    chunk_crcs: tuple[int, ...]

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_crcs)


@dataclass(frozen=True)
class ManifestRequest:
    """Ask a peer for ``doc_id``'s manifest (and where its replicas live)."""

    doc_id: str


@dataclass(frozen=True)
class ManifestReply:
    """The manifest when the responder can resolve the id.

    ``holders`` are ``host:port`` addresses the responder believes hold
    the chunks (the ring replica set, plus the origin when known) — what
    lets a directory-less client (the CLI ``get`` subcommand) reach the
    replica set through any single live member.
    """

    found: bool
    manifest: ContentManifest | None
    holders: tuple[str, ...]


@dataclass(frozen=True)
class ChunkRequest:
    """Fetch chunk ``index`` of ``doc_id`` starting at byte ``offset``.

    ``offset`` is what makes transfers resumable: after a dropped
    connection (or a responder that capped its reply) the client re-asks
    from the first byte it has not yet verified instead of refetching
    the whole chunk.
    """

    doc_id: str
    index: int
    offset: int


@dataclass(frozen=True)
class ChunkReply:
    """Bytes of one chunk from ``offset``; ``total`` is the chunk's full
    length so the requester knows whether ``data`` completes it or it
    must re-ask from ``offset + len(data)``."""

    found: bool
    doc_id: str
    index: int
    offset: int
    total: int
    data: bytes


@dataclass(frozen=True)
class ManifestPush:
    """A holder offers ``manifest`` to a ring successor for replication."""

    manifest: ContentManifest


@dataclass(frozen=True)
class ManifestAck:
    """The successor's verdict on a push.

    ``missing`` lists the chunk indices the acker still needs —
    empty-and-accepted means the replica holds a complete, CRC-verified
    copy (the pusher's signal to mark it confirmed).  ``accepted=False``
    means the acker has no manifest for ``doc_id`` (the pusher must
    (re)send ``ManifestPush`` before chunks).
    """

    doc_id: str
    accepted: bool
    missing: tuple[int, ...]


@dataclass(frozen=True)
class ChunkPush:
    """Ship one chunk to a successor (acknowledged with ``ManifestAck``)."""

    doc_id: str
    index: int
    data: bytes



# ---------------------------------------------------------------------------
# analytics inventory: gossiped term/access sketches and the browse plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SketchEntry:
    """One origin's contribution to the community term/access sketch
    (component of the sketch messages, not a message itself).

    ``terms`` is the origin's space-saving summary of its local term
    frequencies — ``(term, estimated count)`` pairs; ``docs`` is its
    per-document access counters fed by the serve and content planes.
    ``epoch`` makes the entry a last-writer-wins register: an origin
    bumps it whenever its local summary changes (including document
    removals), so stale counts age out of every replica as the newer
    epoch spreads.  Replicas keep, per origin, the entry with the
    largest ``(epoch, terms, docs)`` — a total order, so the merge is
    commutative, associative, and idempotent.
    """

    origin: int
    epoch: int
    terms: tuple[tuple[str, int], ...]
    docs: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class SketchExchange:
    """Anti-entropy push for the analytics sketch.

    ``entries`` are sketch entries the sender pushes outright (its own
    fresh entry, plus any it believes the target lacks); ``versions`` is
    the sender's ``(origin, epoch)`` digest, which lets the responder
    answer with exactly the entries the sender is behind on.  An empty
    ``versions`` tuple means "no digest — just merge the pushed entries"
    (the cheap second half of a push-pull round).
    """

    entries: tuple[SketchEntry, ...]
    versions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SketchReply:
    """The responder's half of a sketch exchange: entries the requester's
    digest showed it lacks, plus the responder's own digest so the
    requester can push back anything *it* is ahead on."""

    entries: tuple[SketchEntry, ...]
    versions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TopTermsRequest:
    """Ask a node for its current community-wide top-``k`` term estimate."""

    k: int


@dataclass(frozen=True)
class TopTermsReply:
    """The node's estimate: ``(term, estimated community count)`` pairs,
    most frequent first.  ``origin_count`` is how many distinct origins
    the node's merged sketch covers — a convergence signal."""

    origin_count: int
    entries: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class BrowseRequest:
    """Popularity-ranked listing of one query-named namespace directory,
    computed from the responder's local index and merged sketch."""

    path: str
    k: int


@dataclass(frozen=True)
class BrowseResponse:
    """One directory listing: ``(doc_id, link, popularity)`` entries,
    most popular first.  ``generation`` is the responder's directory
    generation at listing time, so a poller can detect staleness, and
    ``found=False`` means the path was invalid or analytics is off."""

    found: bool
    path: str
    generation: int
    entries: tuple[tuple[str, str, int], ...]




# ---------------------------------------------------------------------------
# search, stats, publish and error RPCs (no family, no byte counters)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankedQuery:
    """Ask a peer for its local top-``k`` under eq. 2.

    Carries the querier's IPF weights (computed from its replicated
    directory) so the contacted peer scores with the *querier's* view —
    exactly the Section 5.2 contract.
    """

    terms: tuple[str, ...]
    ipf: tuple[tuple[str, float], ...]
    k: int


@dataclass(frozen=True)
class RankedResponse:
    """A peer's local top-k: ``(doc_id, score)`` pairs, best first."""

    results: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class ExhaustiveQuery:
    """Section 5.1 conjunctive search: all local docs containing every term."""

    terms: tuple[str, ...]


@dataclass(frozen=True)
class ExhaustiveResponse:
    """Sorted ids of the contacted peer's matching documents."""

    doc_ids: tuple[str, ...]


@dataclass(frozen=True)
class SnippetFetch:
    """Retrieve one document's content from its owner."""

    doc_id: str


@dataclass(frozen=True)
class SnippetResponse:
    """The fetched document (``found`` is False if the owner lacks it)."""

    found: bool
    doc_id: str
    text: str


@dataclass(frozen=True)
class StatsRequest:
    """Poll a peer's runtime metrics (the :mod:`repro.obs` registry)."""


@dataclass(frozen=True)
class StatsResponse:
    """A peer's flattened metric samples.

    ``samples`` is the registry's :meth:`~repro.obs.Registry.samples`
    output — Prometheus-style ``(name, value)`` pairs, with histograms
    flattened into their cumulative ``_bucket{le=...}``/``_sum``/
    ``_count`` series — plus the responder's id and uptime so a remote
    poller can rate-normalise counters.
    """

    peer_id: int
    uptime_s: float
    samples: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class PublishRequest:
    """Inject one document into a live node (the fleet control plane).

    The node publishes ``Document(doc_id, text)`` exactly as a local
    publish would: WAL'd when durable, indexed, filter growth flushed as
    a BF_UPDATE rumor.  Orchestrators use it to drive scripted publish
    waves at exact scenario moments instead of guessing with timers.
    """

    doc_id: str
    text: str


@dataclass(frozen=True)
class PublishAck:
    """Outcome of a :class:`PublishRequest` at the publishing node."""

    accepted: bool
    doc_id: str
    filter_version: int


@dataclass(frozen=True)
class ErrorReply:
    """Remote-side failure report (malformed frame, unknown document...)."""

    message: str


# ---------------------------------------------------------------------------
# the schema table: one row per message type
# ---------------------------------------------------------------------------

#: A shard-match response packs per-term hits into a u64 bitmask, so a
#: shard-match query carries at most this many terms.
SHARD_MATCH_MAX_TERMS = 64

# Layouts shared between rows (components, not messages).  A member
# record is modelled at Table 2's flat 48 B wherever it appears.
PEER_RECORD = priced_as_summary(
    record(PeerRecord, peer_id=U32, online=BOOL, filter_version=U32, address=TEXT)
)
_KIND = enum({RumorKind.JOIN: 1, RumorKind.REJOIN: 2, RumorKind.BF_UPDATE: 3}, "rumor kind")
_RUMOR = record(WireRumor, rid=RID, kind=_KIND, origin=U32, created_at=F64, payload=BLOB)
_SNAPSHOT_ENTRY = record(SnapshotEntry, record=PEER_RECORD, bloom=BLOB)
_SUMMARY_ENTRY = record(
    ShardSummaryEntry, shard=U32, member_count=U32, version=U64, bloom=BLOB, diff=BOOL
)
_MANIFEST = record(
    ContentManifest,
    doc_id=TEXT,
    origin=U32,
    total_size=U64,
    chunk_size=U32,
    digest=BLOB,
    chunk_crcs=seq(U32),
)
_COUNTERS = seq(tup(TEXT, U64), U16)
SKETCH_ENTRY = record(SketchEntry, origin=U32, epoch=U64, terms=_COUNTERS, docs=_COUNTERS)
_RIDS = seq(RID)
_RECORDS = seq(PEER_RECORD)
_TERMS = seq(TEXT, U16)
_SCORED = tup(TEXT, F64)  # (term, weight), (doc id, score), (metric, value)
_VERSIONS = seq(tup(U32, U64))  # (origin, epoch), (shard, token), (pid, mask)

#: What a ``WireRumor.payload`` holds, per kind: a JOIN/REJOIN carries the
#: member's record + compressed Bloom filter, a BF_UPDATE the new filter
#: version + Golomb-coded bit diff.
MEMBER_PAYLOAD = tup(PEER_RECORD, BLOB)
UPDATE_PAYLOAD = tup(U32, BLOB)

GOSSIP = "gossip"
SERVE = "serve"
PARTIALVIEW = "partialview"
CONTENT = "content"
ANALYTICS = "analytics"


class Row(NamedTuple):
    """One message type, spelled once."""

    type_byte: int
    cls: type
    #: which inventory (and which pair of node byte counters) the type
    #: belongs to; ``None`` for the search/stats/publish/error RPCs.
    family: str | None
    #: the type's body layout — a :func:`~repro.gossip.schema.record`.
    body: Spec
    #: ``table2(sizer, msg)`` prices the ten types of the paper's Table 2
    #: through the sizer's by-count methods (the model the simulator
    #: runs on); ``None`` means "header + a width walk over ``body``".
    table2: Callable[[Any, Any], int] | None
    #: snake-cased class name, the stem of the per-type ``wire`` counters.
    counter: str


def _row(
    type_byte: int,
    cls: type,
    family: str | None = None,
    table2: Callable[[Any, Any], int] | None = None,
    **layout: Spec,
) -> Row:
    counter = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()
    return Row(type_byte, cls, family, record(cls, **layout), table2, counter)


# fmt: off
# A table, so one message per row: type byte, class, family, Table-2
# pricing (gossip rows only); then the body layout in wire order.
ROWS: tuple[Row, ...] = (
    _row(1, RumorPush, GOSSIP, lambda s, m: s.rumor_push(len(m.rids)), rids=_RIDS),
    _row(2, RumorReply, GOSSIP, lambda s, m: s.rumor_reply(len(m.needed), len(m.piggyback)),
         needed=_RIDS, piggyback=_RIDS),
    _row(3, RumorData, GOSSIP, lambda s, m: s.rumor_data(sum(len(r.payload) for r in m.rumors)),
         rumors=seq(_RUMOR)),
    _row(4, AERequest, GOSSIP, lambda s, m: s.ae_request(), digest=U64),
    _row(5, AENothing, GOSSIP, lambda s, m: s.ae_nothing()),
    _row(6, AERecent, GOSSIP, lambda s, m: s.ae_recent(len(m.rids)), rids=_RIDS, known_count=U32),
    _row(7, AESummary, GOSSIP, lambda s, m: s.ae_summary(len(m.entries)),
         entries=_RECORDS, rids=_RIDS),
    _row(8, PullRequest, GOSSIP, lambda s, m: s.pull_request(len(m.rids)), rids=_RIDS),
    _row(9, JoinRequest, GOSSIP, lambda s, m: s.join_request(len(m.bloom)),
         record=PEER_RECORD, bloom=BLOB, rid=RID, created_at=F64),
    # Per-member filters may differ in size: sum them exactly rather than
    # assuming join_snapshot's uniform-size special case.
    _row(10, JoinSnapshot, GOSSIP,
         lambda s, m: MESSAGE_HEADER_BYTES
         + sum(PEER_SUMMARY_BYTES + len(e.bloom) for e in m.entries),
         entries=seq(_SNAPSHOT_ENTRY), rids=_RIDS),
    _row(16, RankedQuery, terms=_TERMS, ipf=seq(_SCORED, U16), k=U16),
    _row(17, RankedResponse, results=seq(_SCORED)),
    _row(18, ExhaustiveQuery, terms=_TERMS),
    _row(19, ExhaustiveResponse, doc_ids=seq(TEXT)),
    _row(20, SnippetFetch, doc_id=TEXT),
    _row(21, SnippetResponse, found=BOOL, doc_id=TEXT, text=DOC_TEXT),
    _row(22, StatsRequest),
    _row(23, StatsResponse, peer_id=U32, uptime_s=F64, samples=seq(_SCORED)),
    _row(24, SubscribeRequest, SERVE,
         sub_id=U64, terms=_TERMS, notify_address=TEXT, created_at=F64),
    _row(25, SubscribeAck, SERVE, sub_id=U64, accepted=BOOL, message=TEXT),
    _row(26, Notify, SERVE, sub_id=U64, origin=U32, doc_id=TEXT, text=DOC_TEXT),
    _row(27, Unsubscribe, SERVE, sub_id=U64),
    _row(28, PublishRequest, doc_id=TEXT, text=DOC_TEXT),
    _row(29, PublishAck, accepted=BOOL, doc_id=TEXT, filter_version=U32),
    _row(31, ErrorReply, message=TEXT),
    _row(32, ShardSummaryRequest, PARTIALVIEW, shards=seq(U32), want_members=BOOL, known=_VERSIONS),
    _row(33, ShardSummaryReply, PARTIALVIEW,
         entries=seq(_SUMMARY_ENTRY), members=seq(_SNAPSHOT_ENTRY)),
    _row(34, ViewExchange, PARTIALVIEW, records=_RECORDS, want=U16),
    _row(35, ShardMatchQuery, PARTIALVIEW,
         shard=U32, terms=seq(TEXT, U16, max_items=SHARD_MATCH_MAX_TERMS, what="shard-match")),
    _row(36, ShardMatchResponse, PARTIALVIEW, shard=U32, hits=_VERSIONS),
    _row(37, ManifestRequest, CONTENT, doc_id=TEXT),
    _row(38, ManifestReply, CONTENT, found=BOOL,
         manifest=when("found", _MANIFEST, "found ManifestReply carries no manifest"),
         holders=seq(TEXT)),
    _row(39, ChunkRequest, CONTENT, doc_id=TEXT, index=U32, offset=U32),
    _row(40, ChunkReply, CONTENT,
         found=BOOL, doc_id=TEXT, index=U32, offset=U32, total=U32, data=BLOB),
    _row(41, ManifestPush, CONTENT, manifest=_MANIFEST),
    _row(42, ManifestAck, CONTENT, doc_id=TEXT, accepted=BOOL, missing=seq(U32)),
    _row(43, ChunkPush, CONTENT, doc_id=TEXT, index=U32, data=BLOB),
    _row(44, SketchExchange, ANALYTICS, entries=seq(SKETCH_ENTRY), versions=_VERSIONS),
    _row(45, SketchReply, ANALYTICS, entries=seq(SKETCH_ENTRY), versions=_VERSIONS),
    _row(46, TopTermsRequest, ANALYTICS, k=U16),
    _row(47, TopTermsReply, ANALYTICS, origin_count=U32, entries=seq(tup(TEXT, U64))),
    _row(48, BrowseRequest, ANALYTICS, path=TEXT, k=U16),
    _row(49, BrowseResponse, ANALYTICS,
         found=BOOL, path=TEXT, generation=U64, entries=seq(tup(TEXT, TEXT, U64))),
)
# fmt: on

#: The two lookups the codec, the sizer and the node dispatch through.
ROW_OF: dict[type, Row] = {row.cls: row for row in ROWS}
ROW_AT: dict[int, Row] = {row.type_byte: row for row in ROWS}


def _family(family: str) -> tuple[type, ...]:
    return tuple(row.cls for row in ROWS if row.family == family)


#: The full gossip inventory, in protocol order — exactly the paper's
#: Table 2, what the simulator's cost model covers.
GOSSIP_MESSAGES = _family(GOSSIP)
#: The other inventories are priced by the sizer (to the same 2x
#: envelope) but deliberately NOT part of the Table-2 gossip model.
SERVE_MESSAGES = _family(SERVE)
PARTIALVIEW_MESSAGES = _family(PARTIALVIEW)
CONTENT_MESSAGES = _family(CONTENT)
ANALYTICS_MESSAGES = _family(ANALYTICS)
