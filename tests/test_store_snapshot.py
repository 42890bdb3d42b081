"""Snapshot container, atomic write protocol, generations, and pruning."""

from __future__ import annotations

import pytest

from repro.store.snapshot import (
    SNAPSHOT_MAGIC,
    decode_container,
    encode_container,
    load_latest_snapshot,
    prune_snapshots,
    snapshot_path,
    write_snapshot,
)


def test_container_roundtrip():
    payload = {"seq": 7, "docs": [{"id": "a", "tf": {"term": 2}}]}
    blob = encode_container(SNAPSHOT_MAGIC, payload)
    assert decode_container(SNAPSHOT_MAGIC, blob) == payload


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda b: b"WRONGMAG" + b[8:], "bad magic"),
        (lambda b: b[:10], "truncated header"),
        (lambda b: b[:-1], "truncated payload"),
        (lambda b: b[:-3] + b"!!!", "CRC mismatch"),
    ],
)
def test_container_rejects_damage(mangle, message):
    blob = encode_container(SNAPSHOT_MAGIC, {"seq": 1})
    with pytest.raises(ValueError, match=message):
        decode_container(SNAPSHOT_MAGIC, mangle(blob))


def test_container_rejects_non_object_payload():
    body = b"[1,2,3]"
    import struct
    import zlib

    blob = SNAPSHOT_MAGIC + struct.pack(">IQ", zlib.crc32(body), len(body)) + body
    with pytest.raises(ValueError, match="not an object"):
        decode_container(SNAPSHOT_MAGIC, blob)


def test_empty_dir_loads_nothing(tmp_path):
    assert load_latest_snapshot(tmp_path) == (None, None)
    assert load_latest_snapshot(tmp_path / "never-created") == (None, None)


def test_write_then_load_newest_generation(tmp_path):
    write_snapshot(tmp_path, {"seq": 1, "docs": []})
    path2 = write_snapshot(tmp_path, {"seq": 2, "docs": [{"id": "d"}]})
    payload, path = load_latest_snapshot(tmp_path)
    assert path == path2
    assert payload == {"seq": 2, "docs": [{"id": "d"}]}


def test_seq_names_sort_in_recovery_order(tmp_path):
    # Zero-padding is what makes lexicographic order numeric: seq 9 must
    # not shadow seq 100.
    write_snapshot(tmp_path, {"seq": 9})
    write_snapshot(tmp_path, {"seq": 100})
    payload, _ = load_latest_snapshot(tmp_path)
    assert payload["seq"] == 100


def test_corrupt_newest_falls_back_to_older_valid(tmp_path):
    write_snapshot(tmp_path, {"seq": 1, "docs": ["old"]})
    newest = write_snapshot(tmp_path, {"seq": 2, "docs": ["new"]})
    blob = bytearray(newest.read_bytes())
    blob[-4] ^= 0xFF  # bit rot after a successful rename
    newest.write_bytes(bytes(blob))
    payload, path = load_latest_snapshot(tmp_path)
    assert payload == {"seq": 1, "docs": ["old"]}
    assert path == snapshot_path(tmp_path, 1)


def test_stray_tmp_from_torn_write_is_ignored_and_cleaned(tmp_path):
    write_snapshot(tmp_path, {"seq": 3})
    # A crash between tmp write and os.replace leaves this behind.
    torn = tmp_path / "snapshot-00000000000000000009.ppsnap.tmp"
    torn.write_bytes(b"half a snapsho")
    payload, _ = load_latest_snapshot(tmp_path)
    assert payload == {"seq": 3}
    removed = prune_snapshots(tmp_path)
    assert torn in removed and not torn.exists()
    assert snapshot_path(tmp_path, 3).exists()


def test_pruning_keeps_newest_generations(tmp_path):
    for seq in range(1, 6):
        write_snapshot(tmp_path, {"seq": seq})
    remaining = sorted(tmp_path.glob("snapshot-*.ppsnap"))
    assert remaining == [snapshot_path(tmp_path, 4), snapshot_path(tmp_path, 5)]
