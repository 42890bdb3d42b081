"""Atomic, checksummed snapshots of a peer's local data store.

A snapshot captures everything :class:`~repro.core.datastore.LocalDataStore`
holds — documents, the inverted index (as per-document term frequencies),
and the Golomb-compressed Bloom filter — at one WAL sequence number, so
recovery is "load newest valid snapshot, replay the WAL suffix" with no
Analyzer run and no term re-hashing for snapshotted documents.

Durability protocol (also used by the directory checkpoint):

1. encode the payload into a CRC-guarded container
   (``magic + uint32 CRC32 + uint64 length + JSON bytes``);
2. write it to ``<name>.tmp`` in the same directory, flush, fsync;
3. ``os.replace`` onto the final name (atomic on POSIX);
4. fsync the directory so the rename itself is durable.

A crash at any step leaves either the old snapshot, or the old snapshot
plus a stray ``*.tmp`` (ignored and cleaned up by the next writer), or
the new snapshot — never a half-visible file under the real name.  On
load, any file failing magic/length/CRC validation is skipped and the
next-newest generation is tried, so even post-rename corruption (bit
rot) degrades to an older consistent state instead of a crash.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any

from repro.constants import STORE_SNAPSHOT_KEEP

__all__ = [
    "SNAPSHOT_MAGIC",
    "atomic_write_bytes",
    "decode_container",
    "encode_container",
    "load_latest_snapshot",
    "prune_snapshots",
    "snapshot_path",
    "write_snapshot",
]

SNAPSHOT_MAGIC = b"PPSNAP01"
_HEADER = struct.Struct(">IQ")  # CRC32(payload), payload length

_SNAPSHOT_GLOB = "snapshot-*.ppsnap"


# -- the CRC container (shared with checkpoint.py) ---------------------------


def encode_container(magic: bytes, payload: dict[str, Any]) -> bytes:
    """Wrap a JSON payload in the magic + CRC + length container."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return magic + _HEADER.pack(zlib.crc32(body), len(body)) + body


def decode_container(magic: bytes, data: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_container`; raises ``ValueError`` on any
    validation failure (wrong magic, short file, CRC mismatch)."""
    prefix = len(magic) + _HEADER.size
    if data[: len(magic)] != magic:
        raise ValueError("bad magic")
    if len(data) < prefix:
        raise ValueError("truncated header")
    crc, length = _HEADER.unpack_from(data, len(magic))
    body = data[prefix : prefix + length]
    if len(body) < length:
        raise ValueError("truncated payload")
    if zlib.crc32(body) != crc:
        raise ValueError("CRC mismatch")
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("payload is not an object")
    return payload


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via temp file + ``os.replace`` + fsyncs."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# -- snapshot files ----------------------------------------------------------


def snapshot_path(data_dir: Path, seq: int) -> Path:
    """The canonical file name for the snapshot covering WAL seq ``seq``."""
    return Path(data_dir) / f"snapshot-{seq:020d}.ppsnap"


def write_snapshot(data_dir: Path, payload: dict[str, Any]) -> Path:
    """Durably write a snapshot payload; prune older generations.

    ``payload`` must carry the ``"seq"`` it covers (the file is named by
    it, so lexicographic order is recovery order).  Returns the path.
    """
    data_dir = Path(data_dir)
    path = snapshot_path(data_dir, int(payload["seq"]))
    atomic_write_bytes(path, encode_container(SNAPSHOT_MAGIC, payload))
    prune_snapshots(data_dir)
    return path


def load_latest_snapshot(data_dir: Path) -> tuple[dict[str, Any] | None, Path | None]:
    """Newest snapshot that validates, or ``(None, None)``.

    Scans newest-first; torn or bit-rotted generations are skipped (a
    stray ``*.tmp`` from a crash mid-write never matches the glob).
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        return None, None
    for path in sorted(data_dir.glob(_SNAPSHOT_GLOB), reverse=True):
        try:
            payload = decode_container(SNAPSHOT_MAGIC, path.read_bytes())
        except (ValueError, json.JSONDecodeError, OSError):
            continue
        if "seq" in payload:
            return payload, path
    return None, None


def prune_snapshots(data_dir: Path) -> list[Path]:
    """Delete all but the ``STORE_SNAPSHOT_KEEP`` newest snapshot
    generations and any stray temp files.  Returns the removed paths."""
    data_dir = Path(data_dir)
    removed: list[Path] = []
    generations = sorted(data_dir.glob(_SNAPSHOT_GLOB), reverse=True)
    for stale in generations[STORE_SNAPSHOT_KEEP:]:
        stale.unlink(missing_ok=True)
        removed.append(stale)
    for tmp in data_dir.glob(_SNAPSHOT_GLOB + ".tmp"):
        tmp.unlink(missing_ok=True)
        removed.append(tmp)
    return removed
