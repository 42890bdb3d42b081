"""Directory checkpoints: persist a node's replicated global directory.

The paper's directory is soft state — a restarting peer re-learns every
member record and Bloom filter over gossip, which for an N-member
community means re-transferring N compressed filters (the dominant term
of a cold join, Section 3.2).  A checkpoint makes that state warm: it
holds the directory download a joiner would get from a member, only
taken from the node's own disk.  The rows and the rumor ids are the
node's encoded ``JoinSnapshot`` frame, opaque here; the node writes it
with the codec and restores it through the adoption path ``join()``
uses, so a codec version bump makes an older checkpoint a cold start.

Checkpoints are written with the same atomic CRC container as snapshots
(:mod:`repro.store.snapshot`); a corrupt or missing file simply means a
cold join — never an error.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from pathlib import Path

from repro.store.snapshot import atomic_write_bytes, decode_container, encode_container

__all__ = ["CHECKPOINT_MAGIC", "DirectoryCheckpoint", "load_checkpoint", "save_checkpoint"]

CHECKPOINT_MAGIC = b"PPDIR002"


@dataclass(frozen=True)
class DirectoryCheckpoint:
    """A node's directory state at one instant."""

    peer_id: int
    #: wall-clock write time (``time.time()``), for staleness accounting.
    written_at: float
    #: the node's next rumor sequence number.  Restored (plus a safety
    #: gap) so rumors minted after a restart never reuse a previous
    #: life's rids — a reused rid is "already known" community-wide and
    #: the rumor carrying it can never spread.
    next_rid_seq: int
    #: the directory rows and known rumor ids as one encoded wire frame.
    snapshot: bytes


def save_checkpoint(path: str | Path, checkpoint: DirectoryCheckpoint, fsync: bool = True) -> int:
    """Durably write ``checkpoint`` to ``path``; returns bytes written."""
    payload = {
        "peer_id": checkpoint.peer_id,
        "written_at": checkpoint.written_at,
        "next_rid_seq": checkpoint.next_rid_seq,
        "snapshot": base64.b64encode(checkpoint.snapshot).decode("ascii"),
    }
    blob = encode_container(CHECKPOINT_MAGIC, payload)
    atomic_write_bytes(Path(path), blob, fsync)
    return len(blob)


def load_checkpoint(path: str | Path) -> DirectoryCheckpoint | None:
    """Read a checkpoint back; ``None`` if missing, torn, corrupt, or
    written in an older format."""
    path = Path(path)
    try:
        payload = decode_container(CHECKPOINT_MAGIC, path.read_bytes())
        return DirectoryCheckpoint(
            int(payload["peer_id"]),
            float(payload["written_at"]),
            int(payload["next_rid_seq"]),
            base64.b64decode(payload["snapshot"], validate=True),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None
