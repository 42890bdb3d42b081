"""Atomic, checksummed snapshots of a peer's local data store.

A snapshot captures everything :class:`~repro.core.datastore.LocalDataStore`
holds — documents, the inverted index (as per-document term frequencies),
and the Golomb-compressed Bloom filter — at one WAL sequence number, so
recovery is "load newest valid snapshot, replay the WAL suffix" with no
Analyzer run and no term re-hashing for snapshotted documents.

Durability protocol (also used by the directory checkpoint):

1. encode the payload into a CRC-guarded container
   (``magic + uint32 CRC32 + uint64 length + JSON bytes``);
2. write it to ``<name>.tmp`` in the same directory (a snapshot streams
   its documents and fills in the CRC and length last), flush, fsync;
3. ``os.replace`` onto the final name (atomic on POSIX);
4. fsync the directory so the rename itself is durable (``fsync=False``
   skips the two fsyncs, not the rename).

A crash at any step leaves either the old snapshot, or the old snapshot
plus a stray ``*.tmp`` (ignored and cleaned up by the next writer), or
the new snapshot — never a half-visible file under the real name.  On
load, any file failing magic/length/CRC validation is skipped and the
next-newest generation is tried, so even post-rename corruption (bit
rot) degrades to an older consistent state instead of a crash.
"""

from __future__ import annotations

import functools
import json
import os
import struct
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO

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

_dumps = functools.partial(json.dumps, separators=(",", ":"))


# -- the CRC container (shared with checkpoint.py) ---------------------------


def encode_container(magic: bytes, payload: dict[str, Any]) -> bytes:
    """Wrap a JSON payload in the magic + CRC + length container."""
    body = _dumps(payload).encode("utf-8")
    return magic + _HEADER.pack(zlib.crc32(body), len(body)) + body


def _json_pieces(payload: dict[str, Any]) -> Iterator[str]:
    """``_dumps(payload)`` in pieces, a top-level iterator value written
    as a JSON list one element per piece."""
    yield "{"
    for i, (key, value) in enumerate(payload.items()):
        yield ("," if i else "") + _dumps(key) + ":"
        if isinstance(value, Iterator):
            yield "["
            for j, item in enumerate(value):
                yield ("," if j else "") + _dumps(item)
            yield "]"
        else:
            yield _dumps(value)
    yield "}"


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


@contextmanager
def _atomic_file(path: Path, fsync: bool = True) -> Iterator[BinaryIO]:
    """A temp file that becomes ``path`` via ``os.replace`` on exit (atomic
    either way; ``fsync`` also fsyncs the file and then its directory)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        yield fh
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def atomic_write_bytes(path: Path, blob: bytes, fsync: bool = True) -> None:
    """Write ``blob`` to ``path`` via temp file + ``os.replace`` (+ fsyncs)."""
    with _atomic_file(path, fsync) as fh:
        fh.write(blob)


# -- snapshot files ----------------------------------------------------------


def snapshot_path(data_dir: Path, seq: int) -> Path:
    """The canonical file name for the snapshot covering WAL seq ``seq``."""
    return Path(data_dir) / f"snapshot-{seq:020d}.ppsnap"


def write_snapshot(data_dir: Path, payload: dict[str, Any], fsync: bool = True) -> Path:
    """Durably write a snapshot payload; prune older generations.

    ``payload`` must carry the ``"seq"`` it covers (the file is named by
    it, so lexicographic order is recovery order).  A top-level iterator
    value is streamed as a JSON list, one element at a time, into the
    bytes :func:`encode_container` makes of that list.  Returns the path.
    """
    data_dir = Path(data_dir)
    path = snapshot_path(data_dir, int(payload["seq"]))
    with _atomic_file(path, fsync) as fh:
        fh.write(SNAPSHOT_MAGIC + _HEADER.pack(0, 0))
        crc = length = 0
        for piece in _json_pieces(payload):
            data = piece.encode("utf-8")
            crc = zlib.crc32(data, crc)
            length += len(data)
            fh.write(data)
        fh.seek(len(SNAPSHOT_MAGIC))
        fh.write(_HEADER.pack(crc, length))
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
