"""The retrieval client: doc id → manifest → replica set → bytes.

A :class:`ContentClient` is address-based and directory-less — it works
from any process that can open a socket (the ``python -m repro.net get``
path), not just from a member node.  Resolution hops through the
community: any member answers a :class:`~repro.gossip.wire.
ManifestRequest` with the *holders* it would try (the doc's ring
successors), so starting from one bootstrap address the client reaches
the replica set even when the first peers asked hold nothing.

Downloads are paced and fault-tolerant:

* per-peer in-flight is bounded by a :class:`~repro.net.transport.
  PeerGate` (addresses hash to gate keys), with an overall
  ``MAX_PARALLEL_CHUNKS`` cap on top;
* every RPC runs under ``request_timeout_s``; a slow or dead replica
  forfeits the chunk to the next holder instead of stalling the fetch;
* a chunk larger than the server's reply window arrives in
  resume-from-offset pieces — and the partial buffer survives a replica
  fallback mid-chunk, because the manifest CRC pins every holder to
  byte-identical content;
* each chunk is CRC-checked and the assembled document SHA-256-checked
  against the manifest before :meth:`ContentClient.fetch` returns.

Exhausting every holder for any one chunk raises :class:`~repro.store.
chunkstore.ContentNotFound` and cancels the fetch's other chunk downloads.
"""

from __future__ import annotations

import asyncio
import hashlib
import zlib
from collections.abc import Sequence

from repro.bloom.hashing import fnv1a_64
from repro.gossip.wire import (
    ChunkReply,
    ChunkRequest,
    ContentManifest,
    ManifestReply,
    ManifestRequest,
)
from repro.net import codec
from repro.net.codec import CodecError, TransportLike
from repro.net.transport import PeerGate, TransportError
from repro.obs import Registry, global_registry
from repro.store.chunkstore import ContentNotFound, chunk_bounds

__all__ = ["ContentClient", "TransportLike"]

#: Concurrent RPCs one client keeps open to any one address.
PER_PEER_INFLIGHT = 4
#: Chunks of one client downloading at once, across all addresses.
MAX_PARALLEL_CHUNKS = 8
#: Members one resolution asks for a manifest before giving up.
MAX_RESOLVE_HOPS = 8


class ContentClient:
    """Fetches documents from a community's content plane by address."""

    def __init__(
        self,
        transport: TransportLike,
        *,
        request_timeout_s: float = 5.0,
        registry: Registry | None = None,
    ) -> None:
        if request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        self.transport = transport
        self.request_timeout_s = request_timeout_s
        self.gate = PeerGate(PER_PEER_INFLIGHT)
        self._parallel = asyncio.Semaphore(MAX_PARALLEL_CHUNKS)
        self.obs = registry if registry is not None else global_registry()
        self._c_fetches = self.obs.counter("content_client", "fetches_total", "documents fetched")
        self._c_fetch_failures = self.obs.counter(
            "content_client", "fetch_failures_total", "fetches that exhausted holders"
        )
        self._c_chunk_rpcs = self.obs.counter(
            "content_client", "chunk_rpcs_total", "ChunkRequests issued"
        )
        self._c_fallbacks = self.obs.counter(
            "content_client",
            "replica_fallbacks_total",
            "chunk sources abandoned for the next holder",
        )
        self._c_resumes = self.obs.counter(
            "content_client",
            "chunk_resumes_total",
            "resume-from-offset continuation requests",
        )
        self._c_crc_rejects = self.obs.counter(
            "content_client", "crc_rejects_total", "chunks discarded on CRC mismatch"
        )

    # -- plumbing -----------------------------------------------------------

    @staticmethod
    def _gate_key(address: str) -> int:
        """PeerGate keys are ints; a directory-less client keys by address."""
        return fnv1a_64(address.encode("utf-8"), seed=23)

    async def _rpc(self, address: str, msg: object) -> object | None:
        """One bounded, gated RPC; None on timeout/transport/codec error."""
        async with self.gate.slot(self._gate_key(address)):
            try:
                call = codec.call(self.transport, address, msg)
                return await asyncio.wait_for(call, self.request_timeout_s)
            except (TimeoutError, TransportError, CodecError):
                return None

    # -- manifest resolution ------------------------------------------------

    async def resolve(
        self, addresses: Sequence[str], doc_id: str
    ) -> tuple[ContentManifest, list[str]]:
        """Find a manifest for ``doc_id``, hopping through advertised
        holders.  Returns the manifest plus holder addresses to try
        first (peers that answered "found" lead the list)."""
        queue = list(dict.fromkeys(addresses))
        # asked addresses, in the order asked (a dict keeps insertion order)
        visited: dict[str, None] = {}
        manifest: ContentManifest | None = None
        holders: list[str] = []
        while queue and len(visited) < MAX_RESOLVE_HOPS:
            address = queue.pop(0)
            if address in visited:
                continue
            visited[address] = None
            reply = await self._rpc(address, ManifestRequest(doc_id))
            if not isinstance(reply, ManifestReply):
                continue
            for advertised in reply.holders:
                if advertised not in visited and advertised not in queue:
                    queue.append(advertised)
            if reply.found and reply.manifest is not None:
                if manifest is None:
                    manifest = reply.manifest
                if reply.manifest == manifest:
                    holders.append(address)
        if manifest is None:
            raise ContentNotFound(doc_id, "no reachable holder has a manifest")
        # Confirmed holders first, then the rest of the frontier to fall
        # back on (they may have chunks even if we never asked them), in
        # the order they were found.
        for address in [*visited, *queue]:
            if address not in holders:
                holders.append(address)
        return manifest, holders

    # -- chunk download -----------------------------------------------------

    async def _fetch_chunk(
        self, manifest: ContentManifest, index: int, sources: Sequence[str]
    ) -> bytes:
        """One chunk from any source, resuming partial transfers.

        The resume buffer survives a source switch: every holder serves
        byte-identical content (CRC-pinned by the manifest), so bytes
        already verified-in-flight need not be re-fetched.
        """
        doc_id = manifest.doc_id
        start, end = chunk_bounds(manifest.total_size, manifest.chunk_size, index)
        want = end - start
        buf = bytearray()
        # Rotate the starting source by chunk index so a multi-chunk
        # fetch spreads load across the replica set.
        order = [sources[(index + i) % len(sources)] for i in range(len(sources))]
        for address in order:
            while len(buf) < want:
                if buf:
                    self._c_resumes.inc()
                self._c_chunk_rpcs.inc()
                reply = await self._rpc(address, ChunkRequest(doc_id, index, len(buf)))
                if (
                    not isinstance(reply, ChunkReply)
                    or not reply.found
                    or reply.index != index
                    or reply.offset != len(buf)
                    or reply.total != want
                    or not reply.data
                ):
                    self._c_fallbacks.inc()
                    break  # next replica; keep the verified prefix
                buf += reply.data
            if len(buf) == want:
                if zlib.crc32(bytes(buf)) == manifest.chunk_crcs[index]:
                    return bytes(buf)
                # Corrupt end-to-end: restart the chunk from scratch on
                # the next holder (the prefix can no longer be trusted).
                self._c_crc_rejects.inc()
                buf.clear()
        raise ContentNotFound(doc_id, f"chunk {index}: all holders exhausted")

    async def fetch(self, addresses: Sequence[str], doc_id: str) -> bytes:
        """Retrieve ``doc_id``, verified byte-for-byte against its manifest.

        ``addresses`` seed the resolution (any community members);
        chunks then stream from whichever holders respond.  Raises
        :class:`ContentNotFound` when no complete, digest-valid copy is
        reachable.
        """
        if not addresses:
            raise ContentNotFound(doc_id, "no addresses to ask")
        manifest, holders = await self.resolve(addresses, doc_id)
        if manifest.num_chunks == 0:
            data = b""
        else:

            async def bounded(index: int) -> bytes:
                async with self._parallel:
                    return await self._fetch_chunk(manifest, index, holders)

            tasks = [asyncio.ensure_future(bounded(i)) for i in range(manifest.num_chunks)]
            try:
                chunks = await asyncio.gather(*tasks)
            except BaseException as exc:
                # One chunk failed the fetch: stop the others, and wait
                # until they have handed back their permits and gate slots.
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                if isinstance(exc, ContentNotFound):
                    self._c_fetch_failures.inc()
                raise
            data = b"".join(chunks)
        if hashlib.sha256(data).digest() != manifest.digest:
            self._c_fetch_failures.inc()
            raise ContentNotFound(doc_id, "assembled document fails manifest digest")
        self._c_fetches.inc()
        return data
