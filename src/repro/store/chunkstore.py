"""Durable chunk storage for the content plane (:mod:`repro.content`).

A :class:`ChunkStore` holds, per document, a :class:`ContentManifest`
(the transfer contract: chunk CRC-32s plus the whole-document SHA-256)
and the chunk bytes themselves.  With a root directory every write is
crash-safe — chunks land via temp file + ``os.replace`` *before* the
manifest does, so after ``kill -9`` a document is either fully readable
or invisible, never a manifest pointing at garbage:

.. code-block:: text

    <root>/<key>/manifest.bin    PPCNT001 magic + u32 CRC + packed manifest
    <root>/<key>/c00000042.bin   raw chunk bytes (CRC'd against the manifest)

``<key>`` is a hex digest of the doc id, so arbitrary ids stay
filesystem-safe; chunk bytes live on disk only.  Without a root the
store keeps them in memory — the loopback/test configuration.

Disk reads verify CRCs: a corrupt or torn chunk raises
:class:`ContentNotFound` exactly like an absent one (and leaves the
held-chunk inventory), so the replication plane re-fetches it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import zlib
from pathlib import Path

from repro.gossip.wire import ContentManifest
from repro.store.snapshot import atomic_write_bytes

__all__ = ["ChunkStore", "ContentNotFound", "build_manifest", "chunk_bounds"]

_MAGIC = b"PPCNT001"
_HEADER = struct.Struct(">4I")  # body CRC, doc-id len, digest len, num chunks
_FIXED = struct.Struct(">IQI")  # origin, total_size, chunk_size


class ContentNotFound(KeyError):
    """A document id (or one of its chunks) could not be resolved.

    Subclasses :class:`KeyError` — and therefore :class:`LookupError` —
    so callers that caught the untyped errors the content paths used to
    leak keep working.
    """

    def __init__(self, doc_id: str, detail: str = "") -> None:
        super().__init__(doc_id)
        self.doc_id = doc_id
        self.detail = detail

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"content not found: {self.doc_id!r}{suffix}"


def chunk_bounds(total_size: int, chunk_size: int, index: int) -> tuple[int, int]:
    """Byte range ``[start, end)`` of chunk ``index`` within a document."""
    start = index * chunk_size
    end = min(start + chunk_size, total_size)
    if start >= end and not (total_size == 0 and index == 0):
        raise ValueError(f"chunk {index} outside document of {total_size} bytes")
    return start, end


def build_manifest(
    doc_id: str, origin: int, data: bytes, chunk_size: int
) -> ContentManifest:
    """Compute a document's manifest: per-chunk CRC-32s + SHA-256 digest."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    crcs = tuple(
        zlib.crc32(data[start : start + chunk_size])
        for start in range(0, len(data), chunk_size)
    )
    return ContentManifest(
        doc_id=doc_id,
        origin=origin,
        total_size=len(data),
        chunk_size=chunk_size,
        digest=hashlib.sha256(data).digest(),
        chunk_crcs=crcs,
    )


def _pack_manifest(m: ContentManifest) -> bytes:
    doc_id = m.doc_id.encode("utf-8")
    body = bytearray()
    body += _FIXED.pack(m.origin, m.total_size, m.chunk_size)
    body += doc_id
    body += m.digest
    for crc in m.chunk_crcs:
        body += struct.pack(">I", crc)
    head = _HEADER.pack(zlib.crc32(body), len(doc_id), len(m.digest), m.num_chunks)
    return _MAGIC + head + bytes(body)


def _unpack_manifest(blob: bytes) -> ContentManifest:
    if len(blob) < len(_MAGIC) + _HEADER.size or blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError("bad manifest magic")
    crc, id_len, digest_len, num_chunks = _HEADER.unpack_from(blob, len(_MAGIC))
    body = blob[len(_MAGIC) + _HEADER.size :]
    if zlib.crc32(body) != crc:
        raise ValueError("manifest CRC mismatch")
    expect = _FIXED.size + id_len + digest_len + 4 * num_chunks
    if len(body) != expect:
        raise ValueError("manifest length mismatch")
    origin, total_size, chunk_size = _FIXED.unpack_from(body, 0)
    pos = _FIXED.size
    doc_id = body[pos : pos + id_len].decode("utf-8")
    pos += id_len
    digest = body[pos : pos + digest_len]
    pos += digest_len
    crcs = tuple(
        struct.unpack_from(">I", body, pos + 4 * i)[0] for i in range(num_chunks)
    )
    return ContentManifest(doc_id, origin, total_size, chunk_size, digest, crcs)


class ChunkStore:
    """Per-document manifests + chunk bytes, durable when rooted."""

    def __init__(self, root: Path | None = None, *, fsync: bool = True) -> None:
        self.root = root
        #: a node's ``StoreConfig.fsync``: writes are atomic either way.
        self.fsync = fsync
        self._manifests: dict[str, ContentManifest] = {}
        #: doc id -> bitmask of the chunk indices held (bit i: chunk i).
        self._held: dict[str, int] = {}
        #: (doc id, index) -> chunk bytes, for a store without a root.
        self._chunks: dict[tuple[str, int], bytes] = {}
        if root is not None:
            root.mkdir(parents=True, exist_ok=True)
            self._recover()

    # -- layout -------------------------------------------------------------

    @staticmethod
    def _key(doc_id: str) -> str:
        return hashlib.sha256(doc_id.encode("utf-8")).hexdigest()[:24]

    def _doc_dir(self, doc_id: str) -> Path:
        assert self.root is not None
        return self.root / self._key(doc_id)

    def _recover(self) -> None:
        assert self.root is not None
        for manifest_path in sorted(self.root.glob("*/manifest.bin")):
            try:
                manifest = _unpack_manifest(manifest_path.read_bytes())
            except (OSError, ValueError):
                continue  # torn write: the doc was never fully stored
            self._manifests[manifest.doc_id] = manifest
            # Inventory the chunks that verify (get_chunk drops the rest).
            self._held[manifest.doc_id] = (1 << manifest.num_chunks) - 1
            for index in range(manifest.num_chunks):
                with contextlib.suppress(ContentNotFound):
                    self.get_chunk(manifest.doc_id, index)

    # -- writes -------------------------------------------------------------

    def put_manifest(self, manifest: ContentManifest) -> None:
        """Record a document's manifest (idempotent for an equal one)."""
        existing = self._manifests.get(manifest.doc_id)
        if existing == manifest:
            return
        if existing is not None:
            # Re-published document: drop the stale chunks first.
            self.remove_doc(manifest.doc_id)
        self._manifests[manifest.doc_id] = manifest
        self._held[manifest.doc_id] = 0
        if self.root is not None:
            doc_dir = self._doc_dir(manifest.doc_id)
            doc_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(doc_dir / "manifest.bin", _pack_manifest(manifest), self.fsync)

    def put_chunk(self, doc_id: str, index: int, data: bytes) -> None:
        """Store one chunk, verified against the manifest's CRC.

        Raises :class:`ContentNotFound` without a manifest for ``doc_id``
        and :class:`ValueError` when the bytes don't match the contract —
        a replica never accepts chunks it could not later prove valid.
        """
        manifest = self.get_manifest(doc_id)
        if not 0 <= index < manifest.num_chunks:
            raise ValueError(f"chunk index {index} outside manifest")
        start, end = chunk_bounds(manifest.total_size, manifest.chunk_size, index)
        if len(data) != end - start:
            raise ValueError(f"chunk {index} has {len(data)} bytes, want {end - start}")
        if zlib.crc32(data) != manifest.chunk_crcs[index]:
            raise ValueError(f"chunk {index} fails its manifest CRC")
        if self.root is None:
            self._chunks[doc_id, index] = data
        else:
            atomic_write_bytes(self._doc_dir(doc_id) / f"c{index:08d}.bin", data, self.fsync)
        self._held[doc_id] |= 1 << index

    def ingest(self, doc_id: str, origin: int, data: bytes, chunk_size: int) -> ContentManifest:
        """Chunk a whole document into the store (the publish path).

        Unlike the replication receive path (manifest first, chunks
        streamed after — an interrupted push is visibly incomplete and
        re-filled from :meth:`missing_chunks`), a local publish persists
        every chunk *before* the manifest: after ``kill -9`` the document
        is either fully readable or invisible on recovery, never a
        manifest pointing at bytes that were never written.
        """
        manifest = build_manifest(doc_id, origin, data, chunk_size)
        if self._manifests.get(doc_id) == manifest and self.is_complete(doc_id):
            return manifest
        if doc_id in self._manifests:
            self.remove_doc(doc_id)
        # Stage the manifest in memory only, so chunk writes validate.
        self._manifests[doc_id] = manifest
        self._held[doc_id] = 0
        if self.root is not None:
            self._doc_dir(doc_id).mkdir(parents=True, exist_ok=True)
        for index in range(manifest.num_chunks):
            start = index * chunk_size
            self.put_chunk(doc_id, index, data[start : start + chunk_size])
        if self.root is not None:
            atomic_write_bytes(
                self._doc_dir(doc_id) / "manifest.bin", _pack_manifest(manifest), self.fsync
            )
        return manifest

    def remove_doc(self, doc_id: str) -> int:
        """Drop a document; returns the chunk bytes freed."""
        if doc_id not in self._manifests:
            return 0
        freed = self.bytes_held(doc_id)
        manifest = self._manifests.pop(doc_id)
        del self._held[doc_id]
        for index in range(manifest.num_chunks):
            self._chunks.pop((doc_id, index), None)
        if self.root is not None:
            doc_dir = self._doc_dir(doc_id)
            if doc_dir.is_dir():
                for path in doc_dir.iterdir():
                    path.unlink(missing_ok=True)
                os.rmdir(doc_dir)
        return freed

    # -- reads --------------------------------------------------------------

    def get_manifest(self, doc_id: str) -> ContentManifest:
        """Return the manifest for ``doc_id``, or raise ContentNotFound."""
        manifest = self._manifests.get(doc_id)
        if manifest is None:
            raise ContentNotFound(doc_id, "no manifest")
        return manifest

    def has_manifest(self, doc_id: str) -> bool:
        """True if a manifest for ``doc_id`` is stored (chunks may lag)."""
        return doc_id in self._manifests

    def get_chunk(self, doc_id: str, index: int) -> bytes:
        """One chunk's bytes; a disk read is CRC-verified, and a corrupt
        chunk counts as missing from then on."""
        manifest = self.get_manifest(doc_id)
        if not 0 <= index < manifest.num_chunks:
            raise ContentNotFound(doc_id, f"chunk {index} outside manifest")
        if not self._held[doc_id] >> index & 1:
            raise ContentNotFound(doc_id, f"chunk {index} missing")
        if self.root is None:
            return self._chunks[doc_id, index]
        try:
            data = (self._doc_dir(doc_id) / f"c{index:08d}.bin").read_bytes()
            intact = zlib.crc32(data) == manifest.chunk_crcs[index]
        except OSError:
            intact = False  # vanished under us: as unusable as a corrupt one
        if not intact:
            self._held[doc_id] &= ~(1 << index)
            raise ContentNotFound(doc_id, f"chunk {index} corrupt")
        return data

    def missing_chunks(self, doc_id: str) -> tuple[int, ...]:
        """Indices this store cannot serve (absent, or found corrupt)."""
        manifest = self.get_manifest(doc_id)
        held = self._held[doc_id]
        return tuple(index for index in range(manifest.num_chunks) if not held >> index & 1)

    def is_complete(self, doc_id: str) -> bool:
        """True if every chunk of ``doc_id`` is held (readable end to end)."""
        return self.has_manifest(doc_id) and not self.missing_chunks(doc_id)

    def read_doc(self, doc_id: str) -> bytes:
        """Reassemble a whole document, verifying the manifest digest."""
        manifest = self.get_manifest(doc_id)
        data = b"".join(
            self.get_chunk(doc_id, i) for i in range(manifest.num_chunks)
        )
        if hashlib.sha256(data).digest() != manifest.digest:
            raise ContentNotFound(doc_id, "digest mismatch")
        return data

    # -- inventory ----------------------------------------------------------

    def doc_ids(self) -> list[str]:
        """Sorted ids of every document with a stored manifest."""
        return sorted(self._manifests)

    def bytes_held(self, doc_id: str) -> int:
        """Bytes of locally-present chunks for ``doc_id`` (0 if unknown)."""
        manifest = self._manifests.get(doc_id)
        if manifest is None:
            return 0
        size, total, held = manifest.chunk_size, manifest.total_size, self._held[doc_id]
        return sum(
            min(size, total - index * size)
            for index in range(manifest.num_chunks)
            if held >> index & 1
        )
