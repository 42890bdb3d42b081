"""The four canonical crash scenarios (ISSUE 5, satellite c).

Each damages a data directory the way a real crash would and asserts the
next PersistentDataStore construction (1) never raises and (2) recovers
exactly the last durable prefix of acknowledged operations into the
fresh LocalDataStore it journals.
"""

from __future__ import annotations

from repro.constants import StoreConfig
from repro.core.datastore import LocalDataStore
from repro.obs import Registry
from repro.store.persistent_store import PersistentDataStore
from repro.store.snapshot import snapshot_path
from repro.text.document import Document

import pytest

pytestmark = pytest.mark.recovery


def _store(tmp_path) -> PersistentDataStore:
    return PersistentDataStore(
        tmp_path, LocalDataStore(), registry=Registry(), config=StoreConfig(fsync=False)
    )


def _seed(tmp_path, n=3) -> PersistentDataStore:
    journal = _store(tmp_path)
    for i in range(n):
        journal.store.publish(Document(f"d{i}", f"document {i} body text"))
    return journal


def test_scenario_truncated_wal_tail(tmp_path):
    journal = _seed(tmp_path)
    wal_path = journal.wal.path
    # Crash mid-append: the last frame is half-written.
    wal_path.write_bytes(wal_path.read_bytes()[:-5])

    recovered = _store(tmp_path)
    assert sorted(recovered.store.document_ids()) == ["d0", "d1"]
    assert recovered.last_recovery.replayed_records == 2
    # The store keeps working: the torn doc can be re-published.
    recovered.store.publish(Document("d2", "document 2 body text"))
    assert len(recovered.store) == 3
    recovered.close()


def test_scenario_corrupted_crc_mid_log(tmp_path):
    journal = _seed(tmp_path)
    data = bytearray(journal.wal.path.read_bytes())
    # Flip a byte ~40% in: somewhere inside the second record's payload.
    data[int(len(data) * 0.4)] ^= 0xFF
    journal.wal.path.write_bytes(bytes(data))

    recovered = _store(tmp_path)
    # Only the records before the damage survive; never a crash.
    assert list(recovered.store.document_ids()) == ["d0"]
    recovered.close()


def test_scenario_torn_snapshot_with_stray_tmp(tmp_path):
    journal = _seed(tmp_path)
    journal.snapshot()
    journal.store.publish(Document("after", "post snapshot record"))
    # Crash mid-way through the *next* snapshot: tmp exists, rename never
    # happened.
    torn = snapshot_path(tmp_path, 99).with_suffix(".ppsnap.tmp")
    torn.write_bytes(b"PPSNAP01 but torn before the payload landed")

    recovered = _store(tmp_path)
    assert len(recovered.store) == 4
    assert recovered.last_recovery.snapshot_seq == 3
    assert recovered.last_recovery.replayed_records == 1
    assert not torn.exists() or True  # cleaned lazily by the next writer
    recovered.snapshot()
    assert not torn.exists()
    recovered.close()


def test_scenario_corrupt_newest_snapshot_falls_back(tmp_path):
    journal = _seed(tmp_path, n=1)
    first = journal.snapshot()
    journal.store.publish(Document("later", "second generation content"))
    second = journal.snapshot()
    assert first != second
    # Bit rot the newest generation after its rename succeeded.
    blob = bytearray(second.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    second.write_bytes(bytes(blob))

    recovered = _store(tmp_path)
    # Fell back to generation one; 'later' is gone with the rotted file
    # (its WAL record was reset after the second snapshot), but recovery
    # is a consistent earlier state, not an exception.
    assert list(recovered.store.document_ids()) == ["d0"]
    assert recovered.last_recovery.snapshot_path == first
    recovered.close()


def test_scenario_empty_data_dir_is_a_cold_start(tmp_path):
    recovered = _store(tmp_path / "brand-new")
    assert len(recovered.store) == 0
    assert recovered.last_recovery.replayed_records == 0
    assert recovered.last_recovery.snapshot_path is None
    recovered.store.publish(Document("first", "cold start then publish"))
    recovered.close()

    warm = _store(tmp_path / "brand-new")
    assert "first" in warm.store
    warm.close()
