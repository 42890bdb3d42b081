"""ChunkStore durability: crash-safe ingest, CRC-verified reads, recovery.

The contract under test is the kill -9 one: a locally published
document is either fully readable after restart or invisible — never a
manifest pointing at chunks that were never written.  The push receive
path is the deliberate exception (manifest first, chunks streamed
after), and its half-written state must surface as ``missing_chunks``,
not as corrupt reads.
"""

from __future__ import annotations

import zlib

import pytest

from repro.store.chunkstore import ChunkStore, ContentNotFound, build_manifest
from repro.store.chunkstore import chunk_bounds

DATA = b"planetp content plane chunked transfer payload " * 40  # ~1.9 KB
CHUNK = 256


def _filled(root=None) -> ChunkStore:
    store = ChunkStore(root)
    store.ingest("doc-a", 3, DATA, CHUNK)
    return store


class TestManifest:
    def test_build_manifest_shapes(self):
        m = build_manifest("doc-a", 3, DATA, CHUNK)
        assert m.total_size == len(DATA)
        assert m.num_chunks == (len(DATA) + CHUNK - 1) // CHUNK
        assert m.chunk_crcs[0] == zlib.crc32(DATA[:CHUNK])
        assert len(m.digest) == 32

    def test_empty_document_has_zero_chunks(self):
        m = build_manifest("empty", 1, b"", CHUNK)
        assert m.num_chunks == 0 and m.total_size == 0

    def test_chunk_bounds_final_chunk_short(self):
        assert chunk_bounds(10, 4, 2) == (8, 10)
        with pytest.raises(ValueError, match="outside"):
            chunk_bounds(10, 4, 3)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            build_manifest("d", 0, b"x", 0)


class TestIngestAndRead:
    def test_roundtrip_in_memory(self):
        store = _filled()
        assert store.read_doc("doc-a") == DATA
        assert store.is_complete("doc-a")
        assert store.bytes_held("doc-a") == len(DATA)

    def test_roundtrip_rooted_and_recovered(self, tmp_path):
        _filled(tmp_path)
        reopened = ChunkStore(tmp_path)
        assert reopened.doc_ids() == ["doc-a"]
        assert reopened.read_doc("doc-a") == DATA

    def test_empty_document_roundtrip(self, tmp_path):
        store = ChunkStore(tmp_path)
        store.ingest("empty", 1, b"", CHUNK)
        assert ChunkStore(tmp_path).read_doc("empty") == b""

    def test_republish_replaces_stale_chunks(self, tmp_path):
        store = _filled(tmp_path)
        new_data = b"rewritten" * 50
        store.ingest("doc-a", 3, new_data, CHUNK)
        assert store.read_doc("doc-a") == new_data
        assert ChunkStore(tmp_path).read_doc("doc-a") == new_data

    def test_ingest_is_idempotent_for_identical_content(self):
        store = _filled()
        m1 = store.get_manifest("doc-a")
        m2 = store.ingest("doc-a", 3, DATA, CHUNK)
        assert m1 == m2 and store.is_complete("doc-a")

    def test_unknown_doc_raises_typed_lookup_error(self):
        store = ChunkStore()
        with pytest.raises(ContentNotFound) as exc:
            store.get_manifest("ghost")
        # KeyError-compatible: pre-typed-error callers still catch it.
        assert isinstance(exc.value, KeyError)
        assert isinstance(exc.value, LookupError)
        assert "ghost" in str(exc.value)


class TestKillNineSemantics:
    def test_chunks_land_before_the_manifest(self, tmp_path, monkeypatch):
        """A crash at the manifest write leaves the doc invisible (but
        every chunk already durable) — never the reverse."""
        import repro.store.chunkstore as mod

        real_write = mod.atomic_write_bytes

        def die_on_manifest(path, data):
            if path.name == "manifest.bin":
                raise OSError("simulated kill -9 at the manifest write")
            real_write(path, data)

        monkeypatch.setattr(mod, "atomic_write_bytes", die_on_manifest)
        store = ChunkStore(tmp_path)
        with pytest.raises(OSError):
            store.ingest("doc-a", 3, DATA, CHUNK)
        monkeypatch.undo()
        # All chunk files were written; the manifest never was.
        (doc_dir,) = list(tmp_path.iterdir())
        chunk_files = sorted(p.name for p in doc_dir.iterdir())
        assert len(chunk_files) == (len(DATA) + CHUNK - 1) // CHUNK
        assert "manifest.bin" not in chunk_files
        # Recovery sees no document at all.
        assert ChunkStore(tmp_path).doc_ids() == []

    def test_torn_manifest_is_skipped_on_recovery(self, tmp_path):
        _filled(tmp_path)
        (doc_dir,) = list(tmp_path.iterdir())
        manifest_path = doc_dir / "manifest.bin"
        blob = manifest_path.read_bytes()
        manifest_path.write_bytes(blob[: len(blob) // 2])
        assert ChunkStore(tmp_path).doc_ids() == []

    def test_corrupt_chunk_reads_as_missing(self, tmp_path):
        store = _filled(tmp_path)
        reopened = ChunkStore(tmp_path)  # cold cache: reads hit disk
        (doc_dir,) = list(tmp_path.iterdir())
        chunk_path = doc_dir / "c00000001.bin"
        chunk_path.write_bytes(b"\x00" * CHUNK)
        with pytest.raises(ContentNotFound, match="corrupt"):
            reopened.get_chunk("doc-a", 1)
        assert reopened.missing_chunks("doc-a") == (1,)
        assert not reopened.is_complete("doc-a")
        assert reopened.bytes_held("doc-a") == len(DATA) - CHUNK
        # The warm store still serves from its verified in-memory copy.
        assert store.read_doc("doc-a") == DATA


class TestPushReceivePath:
    """Manifest-first writes: the replication receiver's half of the store."""

    def test_incomplete_push_is_visible_and_refillable(self):
        manifest = build_manifest("doc-a", 3, DATA, CHUNK)
        store = ChunkStore()
        store.put_manifest(manifest)
        store.put_chunk("doc-a", 0, DATA[:CHUNK])
        missing = store.missing_chunks("doc-a")
        assert missing == tuple(range(1, manifest.num_chunks))
        for index in missing:
            start, end = chunk_bounds(len(DATA), CHUNK, index)
            store.put_chunk("doc-a", index, DATA[start:end])
        assert store.read_doc("doc-a") == DATA

    def test_put_chunk_rejects_bytes_failing_the_contract(self):
        store = ChunkStore()
        store.put_manifest(build_manifest("doc-a", 3, DATA, CHUNK))
        with pytest.raises(ValueError, match="CRC"):
            store.put_chunk("doc-a", 0, b"\x00" * CHUNK)
        with pytest.raises(ValueError, match="bytes"):
            store.put_chunk("doc-a", 0, DATA[: CHUNK - 1])
        with pytest.raises(ValueError, match="outside"):
            store.put_chunk("doc-a", 999, DATA[:CHUNK])
        with pytest.raises(ContentNotFound):
            store.put_chunk("ghost", 0, b"")

    def test_remove_doc_reports_freed_bytes(self, tmp_path):
        store = _filled(tmp_path)
        assert store.remove_doc("doc-a") == len(DATA)
        assert store.doc_ids() == []
        assert store.remove_doc("doc-a") == 0
        assert list(tmp_path.iterdir()) == []
