"""The node-side content plane: replicate published bytes, serve chunks.

Placement is the brokerage's consistent-hash ring carried over sockets
(paper Section 4): every *member* sits at ``points_per_member`` virtual
ring positions derived purely from its peer id, so any two nodes with
the same membership view compute the same ring — no coordination, no
placement gossip.  A document's replica set is the first ``k`` distinct
successors of ``H(doc_id)`` that are not its origin.

Replication is a push protocol driven from :meth:`ContentPlane.
maintenance_round`, one bounded step per gossip round:

1. For every locally-held document, compute today's replica targets
   from the members currently believed online (the same liveness
   evidence — failed contacts, T_Dead expiry, heal-on-success — the
   query plane maintains; nothing new is tracked).
2. Push ``ManifestPush`` to each unconfirmed target; its ``ManifestAck``
   lists the chunk indices it still needs, which are shipped with
   ``ChunkPush`` (each re-acked with the shrinking missing set).  An
   empty missing set confirms the replica.
3. Confirmations are remembered per (doc, holder) and *invalidated when
   the holder goes offline or drops out of the directory* — so a killed
   replica's share is automatically re-pushed to the next successor
   (the join/leave handoff).
4. A node holding a copy of a document it is no longer a target for
   (membership changed under it) drops the copy — but only after every
   current target has confirmed a complete copy, so handoff never
   passes through a window with fewer replicas.  The
   ``content.orphan_chunk_bytes`` gauge is the acceptance check: it
   must return to zero after churn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bloom.hashing import fnv1a_64
from repro.brokerage.ring import ConsistentHashRing
from repro.constants import CONTENT_MAX_REPLY_BYTES, CONTENT_PUSH_DOCS_PER_ROUND, ContentConfig
from repro.gossip.wire import (
    ChunkPush,
    ChunkReply,
    ChunkRequest,
    ContentManifest,
    ManifestAck,
    ManifestPush,
    ManifestReply,
    ManifestRequest,
)
from repro.store.chunkstore import ChunkStore, ContentNotFound

if TYPE_CHECKING:  # pragma: no cover - the node imports this module
    from repro.net.node import NetworkPeer

__all__ = ["ContentPlane", "replica_ring"]

_RING_SEED = 17

#: Replica addresses advertised in a ManifestReply.
_MAX_ADVERTISED_HOLDERS = 8


def replica_ring(member_ids: list[int], points_per_member: int = 32) -> ConsistentHashRing:
    """The content ring for a membership view.

    Deterministic across processes: positions depend only on the member
    id and point index (hash collisions are linear-probed in sorted
    member order), so every node that agrees on *who is alive* also
    agrees on *where every document's replicas live*.
    """
    ring = ConsistentHashRing()
    for member_id in sorted(set(member_ids)):
        for point in range(points_per_member):
            label = f"content:{member_id}:{point}".encode()
            pos = fnv1a_64(label, seed=_RING_SEED) % ring.max_id
            while True:  # linear-probe the (astronomically rare) collision
                try:
                    ring.add_broker(member_id, pos)
                    break
                except ValueError:
                    pos = (pos + 1) % ring.max_id
    return ring


class ContentPlane:
    """One node's half of the content protocol (see module docstring).

    Registers its four request types on the node's dispatch, and — when
    replicating (k > 0) — :meth:`maintenance_round` as a round hook.
    """

    def __init__(self, node: NetworkPeer, config: ContentConfig, store: ChunkStore) -> None:
        self.node = node
        self.config = config
        self.store = store
        #: doc id -> holder pids that have confirmed a complete copy.
        self._confirmed: dict[str, set[int]] = {}
        #: rotation cursor so bounded maintenance visits every doc fairly.
        self._cursor = 0
        #: memoised ring, keyed by the membership view that built it.
        self._ring_key: tuple[int, ...] = ()
        self._ring: ConsistentHashRing | None = None
        obs = node.obs
        self._c_pushes = obs.counter("content", "manifest_pushes_total", "ManifestPush RPCs sent")
        self._c_chunk_pushes = obs.counter("content", "chunk_pushes_total", "ChunkPush RPCs sent")
        self._c_push_failures = obs.counter(
            "content", "push_failures_total", "replication RPCs that failed"
        )
        self._c_confirmed = obs.counter(
            "content", "replicas_confirmed_total", "holders confirmed complete"
        )
        self._c_handoffs = obs.counter(
            "content",
            "handoff_repushes_total",
            "confirmations invalidated by churn (re-replication triggers)",
        )
        self._c_orphans = obs.counter(
            "content", "orphans_dropped_total", "orphaned copies garbage-collected"
        )
        self._c_orphan_bytes = obs.counter(
            "content", "orphan_bytes_freed_total", "chunk bytes freed by orphan GC"
        )
        self._c_serve_manifest = obs.counter(
            "content", "manifest_serves_total", "ManifestRequests answered"
        )
        self._c_serve_chunks = obs.counter(
            "content", "chunk_serves_total", "ChunkRequests answered with data"
        )
        self._c_recv_chunks = obs.counter(
            "content", "chunks_received_total", "chunks accepted from pushes"
        )
        self._c_chunk_rejects = obs.counter(
            "content", "chunk_rejects_total", "pushed chunks failing manifest CRC"
        )
        self._g_docs = obs.gauge("content", "docs_held", "documents with chunks held")
        self._g_bytes = obs.gauge("content", "bytes_held", "chunk bytes held")
        self._g_orphan_bytes = obs.gauge(
            "content",
            "orphan_chunk_bytes",
            "bytes held for docs this node no longer replicates (pre-GC)",
        )
        self._g_replicated = obs.gauge(
            "content",
            "docs_fully_replicated",
            "held docs whose current replica targets have all confirmed "
            "(== docs_held at the replication fixed point)",
        )
        self._update_gauges()
        node.add_handler(ManifestRequest, self.on_manifest_request)
        node.add_handler(ChunkRequest, self.on_chunk_request)
        node.add_handler(ManifestPush, self.on_manifest_push)
        node.add_handler(ChunkPush, self.on_chunk_push)
        if self.active:
            node.add_round_hook(self.maintenance_round)

    # -- placement ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether this node pushes replicas (k > 0)."""
        return self.config.replicas > 0

    def _live_members(self) -> list[int]:
        """Members eligible to hold replicas: ourselves and the live
        members — the query plane's liveness view."""
        return [self.node.peer_id, *self.node.membership.live()]

    def ring(self) -> ConsistentHashRing:
        """The ring for the current liveness view (memoised per view)."""
        key = tuple(sorted(self._live_members()))
        if self._ring is None or key != self._ring_key:
            self._ring = replica_ring(list(key))
            self._ring_key = key
        return self._ring

    def replica_targets(self, doc_id: str, origin: int) -> list[int]:
        """The first k distinct live successors of ``doc_id``, origin
        excluded — who must hold the document right now."""
        k = self.config.replicas
        if k <= 0:
            return []
        ring = self.ring()
        successors = ring.successors_for(doc_id, k + 1)
        targets = [pid for pid in successors if pid != origin]
        return targets[:k]

    def candidate_addresses(self, doc_id: str) -> list[str]:
        """Addresses worth asking for ``doc_id``, best guesses first:
        the k+1 ring successors (a superset of any origin-excluded
        replica set), then the origin's address when we can name it."""
        node = self.node
        ring = self.ring()
        pids = ring.successors_for(doc_id, self.config.replicas + 1)
        try:
            origin = self.store.get_manifest(doc_id).origin
        except ContentNotFound:
            origin = None
        if origin is not None and origin not in pids:
            pids.append(origin)
        addresses = []
        for pid in pids:
            if pid == node.peer_id:
                if node.address:
                    addresses.append(node.address)
                continue
            entry = node.peer.directory.get(pid)
            if entry is not None and entry.address:
                addresses.append(entry.address)
        return addresses

    def holder_addresses(self, doc_id: str) -> tuple[str, ...]:
        """What a ManifestReply advertises (capped candidate list)."""
        return tuple(self.candidate_addresses(doc_id)[:_MAX_ADVERTISED_HOLDERS])

    # -- local publishes ----------------------------------------------------

    def add_local(self, doc_id: str, data: bytes) -> ContentManifest:
        """Chunk a locally-published document (the publish hook)."""
        manifest = self.store.ingest(doc_id, self.node.peer_id, data, self.config.chunk_size)
        self._confirmed[doc_id] = set()
        self._update_gauges()
        return manifest

    def remove_local(self, doc_id: str) -> None:
        """Forget a document (unpublish path)."""
        self.store.remove_doc(doc_id)
        self._confirmed.pop(doc_id, None)
        self._update_gauges()

    # -- replication (initiator side) ---------------------------------------

    async def maintenance_round(self) -> None:
        """One bounded replication/handoff/GC step (per gossip round)."""
        if not self.active:
            self._update_gauges()
            return
        self._invalidate_confirmations()
        doc_ids = self.store.doc_ids()
        if doc_ids:
            start = self._cursor % len(doc_ids)
            rotation = doc_ids[start:] + doc_ids[:start]
            self._cursor += 1
            budget = CONTENT_PUSH_DOCS_PER_ROUND
            for doc_id in rotation:
                if budget <= 0:
                    break
                if await self._maintain_doc(doc_id):
                    budget -= 1
        self._update_gauges()

    def _invalidate_confirmations(self) -> None:
        """Drop confirmations for holders no longer alive — the handoff
        trigger.  Reuses the member table's liveness evidence directly."""
        node = self.node
        for doc_id, holders in self._confirmed.items():
            gone = {pid for pid in holders if not node.membership.is_online(pid)}
            if gone:
                holders -= gone
                self._c_handoffs.inc(len(gone))
                node.obs.emit("content_handoff", peer=node.peer_id, doc=doc_id, lost=len(gone))

    async def _maintain_doc(self, doc_id: str) -> bool:
        """Bring one document's replica set up to date.  Returns True if
        any RPC work was done (it counted against the round budget)."""
        try:
            manifest = self.store.get_manifest(doc_id)
        except ContentNotFound:
            return False
        targets = self.replica_targets(doc_id, manifest.origin)
        if not self.store.is_complete(doc_id):
            # Only targets receive pushes, so an incomplete copy held by
            # a non-target can never be completed — drop it immediately
            # (it was never a countable replica; nothing is lost).
            if manifest.origin != self.node.peer_id and self.node.peer_id not in targets:
                self._drop_copy(manifest.doc_id)
            return False
        confirmed = self._confirmed.setdefault(doc_id, set())
        worked = False
        for pid in targets:
            if pid == self.node.peer_id or pid in confirmed:
                continue
            worked = True
            if await self.replicate_to(pid, manifest):
                confirmed.add(pid)
        self._maybe_drop_orphan(manifest, targets, confirmed)
        return worked

    async def replicate_to(self, pid: int, manifest: ContentManifest) -> bool:
        """Push one document to one holder until it confirms completeness."""
        node = self.node
        doc_id = manifest.doc_id
        self._c_pushes.inc()
        ack = await node.request_peer(pid, ManifestPush(manifest))
        if not isinstance(ack, ManifestAck) or not ack.accepted:
            self._c_push_failures.inc()
            return False
        missing = ack.missing
        for index in missing:
            try:
                data = self.store.get_chunk(doc_id, index)
            except ContentNotFound:
                self._c_push_failures.inc()
                return False
            self._c_chunk_pushes.inc()
            ack = await node.request_peer(pid, ChunkPush(doc_id, index, data))
            if not isinstance(ack, ManifestAck) or not ack.accepted:
                self._c_push_failures.inc()
                return False
        if isinstance(ack, ManifestAck) and not ack.missing:
            self._c_confirmed.inc()
            node.obs.emit("replica_confirmed", peer=node.peer_id, doc=doc_id, holder=pid)
            return True
        self._c_push_failures.inc()
        return False

    def _maybe_drop_orphan(
        self, manifest: ContentManifest, targets: list[int], confirmed: set[int]
    ) -> None:
        """GC our copy once we are neither origin nor target — but only
        after every *current* target confirmed a complete copy, so a
        handoff never dips below k replicas."""
        node = self.node
        doc_id = manifest.doc_id
        if manifest.origin == node.peer_id or node.peer_id in targets:
            return
        others = [pid for pid in targets if pid != node.peer_id]
        if not others or any(pid not in confirmed for pid in others):
            return
        self._drop_copy(doc_id)

    def _drop_copy(self, doc_id: str) -> None:
        freed = self.store.remove_doc(doc_id)
        self._confirmed.pop(doc_id, None)
        self._c_orphans.inc()
        self._c_orphan_bytes.inc(freed)
        self.node.obs.emit(
            "content_orphan_dropped", peer=self.node.peer_id, doc=doc_id, bytes=freed
        )

    # -- server side --------------------------------------------------------

    def on_manifest_request(self, msg: ManifestRequest) -> ManifestReply:
        """Serve a manifest lookup; advertises known holders either way."""
        holders = self.holder_addresses(msg.doc_id)
        try:
            manifest = self.store.get_manifest(msg.doc_id)
        except ContentNotFound:
            # Still advertise where the doc *would* live: a directory-less
            # client can hop to the replica set through any member.
            return ManifestReply(False, None, holders)
        self._c_serve_manifest.inc()
        # A manifest fetch is the start of a content retrieval — count it
        # as one community read of the document.
        self.node.analytics.record_access(msg.doc_id)
        return ManifestReply(True, manifest, holders)

    def on_chunk_request(self, msg: ChunkRequest) -> ChunkReply:
        """Serve one chunk from ``msg.offset``, capped at CONTENT_MAX_REPLY_BYTES."""
        try:
            data = self.store.get_chunk(msg.doc_id, msg.index)
        except ContentNotFound:
            return ChunkReply(False, msg.doc_id, msg.index, msg.offset, 0, b"")
        total = len(data)
        offset = min(max(msg.offset, 0), total)
        window = data[offset : offset + CONTENT_MAX_REPLY_BYTES]
        self._c_serve_chunks.inc()
        return ChunkReply(True, msg.doc_id, msg.index, offset, total, window)

    def on_manifest_push(self, msg: ManifestPush) -> ManifestAck:
        """Accept a replication offer; the ack lists chunks still missing."""
        manifest = msg.manifest
        try:
            self.store.put_manifest(manifest)
        except (OSError, ValueError):
            return ManifestAck(manifest.doc_id, False, ())
        self._confirmed.setdefault(manifest.doc_id, set())
        missing = self.store.missing_chunks(manifest.doc_id)
        self._update_gauges()
        return ManifestAck(manifest.doc_id, True, missing)

    def on_chunk_push(self, msg: ChunkPush) -> ManifestAck:
        """Store one pushed chunk and report what is still missing."""
        if not self.store.has_manifest(msg.doc_id):
            # Chunk before manifest (e.g. we restarted mid-push): ask the
            # pusher to restart from ManifestPush.
            return ManifestAck(msg.doc_id, False, ())
        try:
            self.store.put_chunk(msg.doc_id, msg.index, msg.data)
        except ValueError:
            self._c_chunk_rejects.inc()
        except OSError:
            return ManifestAck(msg.doc_id, False, ())
        else:
            self._c_recv_chunks.inc()
        missing = self.store.missing_chunks(msg.doc_id)
        self._update_gauges()
        return ManifestAck(msg.doc_id, True, missing)

    # -- observability ------------------------------------------------------

    def orphan_bytes(self) -> int:
        """Bytes held for docs we are neither origin nor target of."""
        if not self.active:
            return 0
        total = 0
        for doc_id in self.store.doc_ids():
            try:
                manifest = self.store.get_manifest(doc_id)
            except ContentNotFound:
                continue
            if manifest.origin == self.node.peer_id:
                continue
            if self.node.peer_id in self.replica_targets(doc_id, manifest.origin):
                continue
            total += self.store.bytes_held(doc_id)
        return total

    def fully_replicated_docs(self) -> int:
        """Held docs whose current targets have all confirmed a copy.

        At the replication fixed point this equals ``docs_held`` on every
        node — the outside-in signal fleet runs gate on before injecting
        churn (a doc killed with its origin before reaching the fixed
        point would be unrecoverable).
        """
        count = 0
        for doc_id in self.store.doc_ids():
            try:
                manifest = self.store.get_manifest(doc_id)
            except ContentNotFound:
                continue
            targets = self.replica_targets(doc_id, manifest.origin) if self.active else []
            confirmed = self._confirmed.get(doc_id, set())
            if all(pid == self.node.peer_id or pid in confirmed for pid in targets):
                count += 1
        return count

    def _update_gauges(self) -> None:
        doc_ids = self.store.doc_ids()
        self._g_docs.set(len(doc_ids))
        self._g_bytes.set(sum(self.store.bytes_held(d) for d in doc_ids))
        self._g_orphan_bytes.set(self.orphan_bytes())
        self._g_replicated.set(self.fully_replicated_docs())
