"""Directory checkpoint container, damage tolerance, and what a node
makes of the snapshot frame inside it."""

from __future__ import annotations

import contextlib

import pytest

from repro.constants import StoreConfig
from repro.gossip.wire import AENothing, JoinSnapshot, PeerRecord, SnapshotEntry
from repro.net import codec
from repro.net.cli import _check_data_dir
from repro.net.node import NetworkPeer, read_checkpoint
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.store.checkpoint import DirectoryCheckpoint, load_checkpoint, save_checkpoint
from repro.store.checkpoint import CHECKPOINT_MAGIC
from repro.store.snapshot import encode_container

SNAPSHOT = JoinSnapshot(
    (
        SnapshotEntry(PeerRecord(1, "10.0.0.1:9301", True, 4), b""),
        SnapshotEntry(PeerRecord(2, "10.0.0.2:9301", False, 0), b""),
    ),
    (1 << 32, (1 << 32) | 1, 2 << 32),
)


def _checkpoint(frame: bytes | None = None) -> DirectoryCheckpoint:
    return DirectoryCheckpoint(
        peer_id=7,
        written_at=1700000000.5,
        next_rid_seq=17,
        snapshot=codec.encode(SNAPSHOT) if frame is None else frame,
    )


@contextlib.contextmanager
def _restarted_node(data_dir):
    node = NetworkPeer(
        7, "peer", 7, transport=LoopbackNetwork().transport(), registry=Registry(),
        data_dir=data_dir, store_config=StoreConfig(fsync=False),
    )
    try:
        yield node
    finally:
        node.persistence.close()


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "directory.ckpt"
    nbytes = save_checkpoint(path, _checkpoint())
    assert nbytes == path.stat().st_size > 0
    assert load_checkpoint(path) == _checkpoint()
    ckpt, snap = read_checkpoint(path)
    assert ckpt == _checkpoint() and snap == SNAPSHOT


def test_missing_file_is_none(tmp_path):
    assert load_checkpoint(tmp_path / "nope.ckpt") is None


def test_torn_or_corrupt_file_is_none(tmp_path):
    path = tmp_path / "directory.ckpt"
    save_checkpoint(path, _checkpoint())
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert load_checkpoint(path) is None
    blob = bytearray(data)
    blob[-2] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert load_checkpoint(path) is None


def test_a_ppdir001_file_loads_as_none(tmp_path):
    # The earlier format: one JSON row per member.  It is not read, and
    # the CLI refuses it rather than cold-starting over it silently.
    assert CHECKPOINT_MAGIC != b"PPDIR001"
    payload = {
        "peer_id": 7,
        "written_at": 1.0,
        "entries": [{"id": 1, "addr": "10.0.0.1:9301", "online": True, "fv": 4, "bloom": ""}],
        "rids": [5],
        "next_seq": 3,
    }
    path = tmp_path / "directory.ckpt"
    path.write_bytes(encode_container(b"PPDIR001", payload))
    assert load_checkpoint(path) is None
    with pytest.raises(ValueError, match="corrupt directory checkpoint"):
        _check_data_dir(tmp_path)
    with _restarted_node(tmp_path) as node:
        assert node.restored_members == 0


@pytest.mark.parametrize(
    "frame",
    [b"\xff\x0anot a frame", codec.encode(AENothing())],
    ids=["undecodable", "not_a_snapshot"],
)
def test_an_undecodable_frame_is_a_cold_start(tmp_path, frame):
    path = tmp_path / "directory.ckpt"
    save_checkpoint(path, _checkpoint(frame=frame))
    assert load_checkpoint(path) is not None  # the container is intact
    assert read_checkpoint(path) is None
    with pytest.raises(ValueError, match="corrupt directory checkpoint"):
        _check_data_dir(tmp_path)
    with _restarted_node(tmp_path) as node:
        assert node.restored_members == 0
        assert node.membership.members() == [7] and not node.core.known


def test_atomic_rewrite_replaces_previous_generation(tmp_path):
    path = tmp_path / "directory.ckpt"
    save_checkpoint(path, _checkpoint())
    newer = DirectoryCheckpoint(7, 1700000555.0, 99, codec.encode(JoinSnapshot((), ())))
    save_checkpoint(path, newer)
    assert load_checkpoint(path) == newer
    assert not path.with_name(path.name + ".tmp").exists()
