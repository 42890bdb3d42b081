"""PersistentDataStore: WAL durability, snapshots, and warm recovery.

A "crash" here is simply abandoning a journal without :meth:`close` — the
WAL was fsynced per acknowledged operation, so a second journal over the
same directory must recover every acknowledged mutation into the fresh
:class:`LocalDataStore` it is given.  The recovery paths are proven
Analyzer-free by recovering into a store whose analyzer raises on use.
"""

from __future__ import annotations

import base64
import hashlib
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BloomConfig, StoreConfig
from repro.core.datastore import LocalDataStore
from repro.obs import Registry
from repro.store.persistent_store import PersistentDataStore
from repro.store.snapshot import SNAPSHOT_MAGIC, decode_container, encode_container
from repro.text.analyzer import Analyzer
from repro.text.document import Document


class _PoisonedAnalyzer(Analyzer):
    """Proves recovery never re-analyzes: any use is a test failure."""

    def term_frequencies(self, text: str):
        raise AssertionError("the Analyzer must not run during recovery")


def _store(
    tmp_path, *, analyzer=None, bloom_config=None, **kwargs
) -> PersistentDataStore:
    kwargs.setdefault("registry", Registry())
    kwargs.setdefault("config", StoreConfig(fsync=False))
    local = LocalDataStore(analyzer=analyzer, bloom_config=bloom_config)
    return PersistentDataStore(tmp_path, local, **kwargs)


def test_acknowledged_publishes_survive_a_crash(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("a", "gossip spreads rumors epidemically"))
    journal.store.publish(Document("b", "bloom filters summarize membership"))
    live_filter = journal.store.bloom_filter.copy()
    # no close(): SIGKILL

    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert len(recovered.store) == 2 and "a" in recovered.store and "b" in recovered.store
    assert recovered.store.get("a").text == "gossip spreads rumors epidemically"
    assert recovered.last_recovery.replayed_records == 2
    assert recovered.last_recovery.snapshot_path is None
    # The filter was rebuilt from persisted term frequencies, bit-for-bit.
    assert recovered.store.bloom_filter == live_filter
    recovered.close()


def test_remove_and_republish_survive_replay(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("doc", "first life"))
    journal.store.remove("doc")
    journal.store.publish(Document("doc", "second life"))

    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert len(recovered.store) == 1
    assert recovered.store.get("doc").text == "second life"
    assert recovered.last_recovery.replayed_records == 3
    recovered.close()


def test_metadata_roundtrips_through_wal_and_snapshot(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("m", "with metadata", {"source": "unit", "rank": 3}))
    # WAL path:
    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert recovered.store.get("m").metadata == {"source": "unit", "rank": 3}
    recovered.close()  # snapshots
    # Snapshot path:
    again = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert again.store.get("m").metadata == {"source": "unit", "rank": 3}
    assert again.last_recovery.replayed_records == 0
    again.close()


def test_auto_snapshot_resets_the_wal(tmp_path):
    registry = Registry()
    journal = _store(
        tmp_path,
        registry=registry,
        config=StoreConfig(snapshot_every=3, fsync=False),
    )
    for i in range(3):
        journal.store.publish(Document(f"d{i}", f"document number {i}"))
    assert registry.counter("store", "snapshots_total", "").value == 1
    assert journal.wal.size_bytes == 8  # just the magic header again

    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert len(recovered.store) == 3
    assert recovered.last_recovery.replayed_records == 0
    assert recovered.last_recovery.snapshot_seq == 3
    recovered.close()


def test_recovery_is_snapshot_plus_wal_suffix(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("snapped", "inside the snapshot"))
    journal.snapshot()
    journal.store.publish(Document("walled", "after the snapshot"))

    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert len(recovered.store) == 2
    assert recovered.last_recovery.snapshot_seq == 1
    assert recovered.last_recovery.replayed_records == 1
    recovered.close()


def test_crash_between_snapshot_and_wal_reset_is_idempotent(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("a", "alpha text"))
    journal.store.publish(Document("b", "beta text"))
    stale_wal = journal.wal.path.read_bytes()
    journal.snapshot()
    journal.close(snapshot=False)
    # Simulate dying after the snapshot rename but before the WAL reset:
    # the old records (seq 1-2, already covered by the snapshot) linger.
    journal.wal.path.write_bytes(stale_wal)

    recovered = _store(tmp_path)
    assert len(recovered.store) == 2  # not 4: stale records were skipped by seq
    assert recovered.last_recovery.replayed_records == 0
    # New sequence numbers continue past the recovered ones.
    recovered.store.publish(Document("c", "published after recovery"))
    recovered.close()
    final = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert len(final.store) == 3
    final.close()


def test_filter_version_is_monotone_across_restarts(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("a", "some distinct words here"))
    journal.store.publish(Document("b", "wholly different vocabulary there"))
    version = journal.store.filter_version
    assert version >= 2

    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert recovered.store.filter_version >= version
    recovered.close()


def test_clean_close_makes_next_recovery_pure_snapshot(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("x", "shutdown flushes pending records"))
    journal.close()
    journal.close()  # idempotent

    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert recovered.last_recovery.replayed_records == 0
    assert recovered.last_recovery.documents == 1
    recovered.close()


def test_failed_publish_is_not_logged(tmp_path):
    registry = Registry()
    journal = _store(tmp_path, registry=registry)
    journal.store.publish(Document("dup", "first"))
    with pytest.raises(ValueError, match="already published"):
        journal.store.publish(Document("dup", "second"))
    assert registry.counter("store", "wal_records_total", "").value == 1
    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert recovered.store.get("dup").text == "first"
    recovered.close()


def test_unknown_wal_ops_are_skipped_not_fatal(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("keep", "a real record"))
    journal.wal.append({"seq": 99, "op": "compact", "id": "future-format"})
    journal.wal.append({"seq": 100, "op": "remove", "id": "never-published"})

    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer())
    assert len(recovered.store) == 1 and "keep" in recovered.store
    assert recovered.last_recovery.replayed_records == 1
    recovered.close()


def test_bloom_config_change_rebuilds_filter_from_index(tmp_path):
    journal = _store(tmp_path, bloom_config=BloomConfig(num_bits=1 << 14, num_hashes=2))
    journal.store.publish(Document("a", "resize the community filter"))
    journal.close()

    resized = BloomConfig(num_bits=1 << 15, num_hashes=3)
    recovered = _store(tmp_path, analyzer=_PoisonedAnalyzer(), bloom_config=resized)
    assert recovered.store.bloom_filter.num_bits == resized.num_bits
    assert recovered.store.bloom_filter.num_hashes == resized.num_hashes
    # The rebuilt filter still answers for the recovered vocabulary.
    assert all(t in recovered.store.bloom_filter for t in recovered.store.index.terms())
    recovered.close()


def test_a_hash_count_change_alone_rebuilds_filter_from_index(tmp_path):
    """The snapshot's filter carries no hash count, so a restart with a
    new one decodes it under the new count: it must be rebuilt, not
    adopted (only new terms are hashed from then on)."""
    journal = _store(tmp_path, bloom_config=BloomConfig(num_hashes=2))
    journal.store.publish(Document("a", "resize the community filter"))
    journal.close()

    recovered = _store(tmp_path, bloom_config=BloomConfig(num_hashes=5))
    recovered.store.publish(Document("b", "the community filter again"))
    assert all(t in recovered.store.bloom_filter for t in recovered.store.index.terms())
    recovered.close()


def test_recovery_metrics_are_published(tmp_path):
    journal = _store(tmp_path)
    journal.store.publish(Document("a", "metric bearing document"))
    registry = Registry()
    recovered = _store(tmp_path, registry=registry, analyzer=_PoisonedAnalyzer())
    assert registry.value("store", "recovered_documents") == 1
    assert registry.counter(
        "store", "recovery_replayed_records_total", ""
    ).value == 1
    recovered.close()


def test_incarnation_counts_every_open_durably(tmp_path):
    first = _store(tmp_path)
    assert first.incarnation == 1
    # "Crash" (no close) still counted: the bump is durable at construction.
    second = _store(tmp_path)
    assert second.incarnation == 2
    second.close()
    # A damaged counter restarts the count rather than failing the open.
    (tmp_path / "incarnation").write_text("not a number")
    third = _store(tmp_path)
    assert third.incarnation == 1
    third.close()


def test_the_journal_recovers_into_the_store_it_is_given(tmp_path):
    local = LocalDataStore()
    journal = PersistentDataStore(
        tmp_path, local, config=StoreConfig(fsync=False), registry=Registry()
    )
    assert journal.store is local
    local.publish(Document("a", "journaled through the caller's store"))
    assert "PersistentDataStore" in repr(journal)
    journal.close()

    occupied = LocalDataStore()
    occupied.publish(Document("b", "already holds a document"))
    with pytest.raises(ValueError, match="empty"):
        PersistentDataStore(tmp_path, occupied, registry=Registry())
    recovered = _store(tmp_path)
    assert list(recovered.store.document_ids()) == ["a"]
    recovered.close()


def _ingest_text(rng: random.Random, words: list[str]) -> str:
    """A ~2 KB document, the size the ingest workload publishes."""
    return " ".join(rng.choice(words) for _ in range(300))


def test_snapshot_file_is_the_whole_store_container(tmp_path):
    """The streamed snapshot decodes to the payload a whole-store
    container held, each document's term frequencies as analyzed."""
    rng = random.Random(3)
    words = [f"w{i}x" for i in range(400)]
    journal = _store(tmp_path)
    for i in range(150):
        meta = {"rank": i} if i % 5 == 0 else {}
        journal.store.publish(Document(f"doc-{i}", _ingest_text(rng, words), meta))
    journal.store.remove("doc-7")
    path = journal.snapshot()
    analyzer = Analyzer()
    docs = []
    for doc_id in journal.store.document_ids():
        doc = journal.store.get(doc_id)
        entry = {"id": doc_id, "text": doc.text, "tf": dict(analyzer.term_frequencies(doc.text))}
        if doc.metadata:
            entry["meta"] = dict(doc.metadata)
        docs.append(entry)
    expected = {
        "seq": 151,
        "filter_version": journal.store.filter_version,
        "bloom": base64.b64encode(journal.store.bloom_filter.to_compressed()).decode("ascii"),
        "docs": docs,
    }
    assert decode_container(SNAPSHOT_MAGIC, path.read_bytes()) == expected
    journal.close()


def test_snapshot_memory_does_not_grow_with_the_store(tmp_path):
    """A warm snapshot streams a bounded batch of documents at a time:
    its extra peak is the same at 150 and 600 documents."""
    rng = random.Random(5)
    words = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 9)))
             for _ in range(5000)]

    def peak(n: int) -> int:
        journal = _store(tmp_path / str(n))
        for i in range(n):
            journal.store.publish(Document(f"doc-{i}", _ingest_text(rng, words)))
        journal.snapshot()  # warm: the next one measures steady state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            journal.snapshot()
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        journal.close()
        return extra

    assert peak(600) < 2 * peak(150)


class _HashEveryTerm(LocalDataStore):
    """The reference: each publish hashes every one of its terms."""

    def apply_publish(self, doc, term_freqs, *, update_filter=True):
        self.index.add_document(doc.doc_id, term_freqs)
        self._documents[doc.doc_id] = doc
        if update_filter and self._filter.add_missing(list(term_freqs)):
            self.filter_version += 1
        return doc


_WORDS = ["gossip", "bloom", "peer", "rumor", "filter", "search", "ring", "node"]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["publish", "remove", "republish", "replay", "restore", "read"]),
            st.integers(0, 5),
            st.lists(st.sampled_from(_WORDS + ["fresh"]), min_size=1, max_size=5),
        ),
        max_size=14,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_filter_equals_one_that_hashes_every_term(steps):
    """Publish, remove, republish, WAL replay and snapshot restore in any
    order: after every step the filter bits, ``filter_version`` and
    staleness equal those of a store that hashes every term."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "subject", Path(tmp) / "reference"]
        kinds = [LocalDataStore, _HashEveryTerm]

        def open_journal(i):
            return PersistentDataStore(
                dirs[i], kinds[i](), config=StoreConfig(fsync=False), registry=Registry()
            )

        journals = [open_journal(0), open_journal(1)]
        for n, (op, doc, words) in enumerate(steps):
            doc_id = f"doc-{doc}"
            text = " ".join(w if w != "fresh" else f"fresh{n}" for w in words)
            for i, journal in enumerate(journals):
                store = journal.store
                if op in ("remove", "republish") and doc_id in store:
                    store.remove(doc_id)
                if op in ("publish", "republish") and doc_id not in store:
                    store.publish(Document(doc_id, text))
                if op == "restore":
                    journal.snapshot()
                if op in ("replay", "restore"):  # a crash: reopen, no close
                    journals[i] = open_journal(i)
                if op == "read":
                    store.bloom_filter  # regenerates a stale filter
            subject, reference = (journal.store for journal in journals)
            assert subject._filter == reference._filter
            assert subject.filter_version == reference.filter_version
            assert subject._filter_stale == reference._filter_stale


def _pinned_store(tmp_path) -> PersistentDataStore:
    rng = random.Random(11)
    words = [f"t{i}" for i in range(300)]
    journal = _store(tmp_path)
    for i in range(120):
        meta = {"rank": i} if i % 7 == 0 else {}
        journal.store.publish(Document(f"doc-{i}", f"m{i} " + _ingest_text(rng, words), meta))
    for i in (3, 50, 119):
        journal.store.remove(f"doc-{i}")
    journal.store.publish(Document("doc-50", "republished with new words"))
    return journal


def test_snapshot_bytes_are_pinned(tmp_path):
    """The index layout is invisible on disk: the snapshot of a fixed store
    (publishes, removals, a republish) is byte-identical to the one a
    dict-of-dicts index wrote."""
    journal = _pinned_store(tmp_path)
    path = journal.snapshot()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3e9dc008241b345cf87c74818f7328626b7bf799751de167b823b61ff6dc479f"
    )
    journal.close()


def test_snapshot_reads_back_without_walking_every_posting(tmp_path):
    """A snapshot of 1200 ingest-sized documents costs under 4× one
    ``encode_container`` of the same payload: reading term frequencies
    back bisects each term's postings to the batch.  (Measured on 2
    shared vCPUs: 2.5–2.7×; the dict-of-dicts index 2.7–3.6×; a walk
    over every posting per batch 9×.)"""
    rng = random.Random(4)
    words = [f"term{i:04d}" for i in range(2000)]
    journal = _store(tmp_path, config=StoreConfig(snapshot_every=10**6, fsync=False))
    for i in range(1200):
        journal.store.publish(Document(f"d{i}", f"mark{i} " + _ingest_text(rng, words)))
    payload = decode_container(SNAPSHOT_MAGIC, journal.snapshot().read_bytes())
    snapshot_s = encode_s = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        journal.snapshot()
        snapshot_s = min(snapshot_s, time.perf_counter() - started)
        started = time.perf_counter()
        encode_container(SNAPSHOT_MAGIC, payload)
        encode_s = min(encode_s, time.perf_counter() - started)
    assert snapshot_s < 4 * encode_s
    journal.close()
