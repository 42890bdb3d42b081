"""PersistentDataStore: WAL durability, snapshots, and warm recovery.

A "crash" here is simply abandoning a journal without :meth:`close` — the
WAL was fsynced per acknowledged operation, so a second journal over the
same directory must recover every acknowledged mutation into the fresh
:class:`LocalDataStore` it is given.  The recovery paths are proven
Analyzer-free by recovering into a store whose analyzer raises on use.
"""

from __future__ import annotations

import pytest

from repro.constants import BloomConfig, StoreConfig
from repro.core.datastore import LocalDataStore
from repro.obs import Registry
from repro.store.persistent_store import PersistentDataStore
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
