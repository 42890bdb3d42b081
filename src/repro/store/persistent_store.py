"""`PersistentDataStore`: a crash-safe journal over a local data store.

Journals one :class:`~repro.core.datastore.LocalDataStore` with the WAL +
snapshot machinery of this package:

* construction recovers into the (empty) store it is given: the newest
  valid snapshot is loaded wholesale, the WAL suffix is replayed through
  the no-Analyzer apply paths, and any torn tail is truncated.  Recovery
  never raises on damaged files — it restores the last durable prefix;
* from then on every ``publish``/``remove`` on that store is appended to
  the WAL (with its analyzed term frequencies) and fsynced before the
  call returns — acknowledged operations survive SIGKILL;
* every ``snapshot_every`` WAL records, the full store (documents,
  inverted index, compressed Bloom filter) is snapshotted atomically and
  the WAL is reset.

Callers keep reading and writing the store itself; a
:class:`~repro.net.node.NetworkPeer` with a ``data_dir`` journals its
peer's own store this way.

Documents must carry JSON-serializable metadata to be persisted (the
CLI's corpus documents carry none).
"""

from __future__ import annotations

import base64
import time
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.bloom.filter import BloomFilter
from repro.constants import StoreConfig
from repro.core.datastore import LocalDataStore
from repro.obs import DEFAULT_LATENCY_BOUNDS, Registry, global_registry
from repro.store.snapshot import (
    atomic_write_bytes,
    load_latest_snapshot,
    write_snapshot,
)
from repro.store.wal import WriteAheadLog
from repro.text.document import Document

__all__ = ["PersistentDataStore", "RecoveryInfo"]


@dataclass(frozen=True)
class RecoveryInfo:
    """What one construction-time recovery did."""

    snapshot_seq: int
    snapshot_path: Path | None
    replayed_records: int
    documents: int


class PersistentDataStore:
    """The durable journal of one :class:`LocalDataStore` under a data
    directory."""

    def __init__(
        self,
        data_dir: str | Path,
        store: LocalDataStore,
        *,
        config: StoreConfig | None = None,
        registry: Registry | None = None,
    ) -> None:
        if len(store):
            raise ValueError("a journal recovers into an empty data store")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.config = config or StoreConfig()
        self.obs = registry if registry is not None else global_registry()
        self.store = store
        self.wal = WriteAheadLog(
            self.data_dir / "wal.log", fsync=self.config.fsync, registry=self.obs
        )
        self._h_snapshot = self.obs.histogram(
            "store",
            "snapshot_seconds",
            "wall time of one data-store snapshot write",
            bounds=DEFAULT_LATENCY_BOUNDS,
        )
        self._c_snapshots = self.obs.counter(
            "store", "snapshots_total", "data-store snapshots written"
        )
        self._c_snapshot_bytes = self.obs.counter(
            "store", "snapshot_bytes_total", "bytes written across snapshots"
        )
        self._c_replayed = self.obs.counter(
            "store",
            "recovery_replayed_records_total",
            "WAL records replayed during recoveries",
        )
        self._seq = 0
        self._records_since_snapshot = 0
        self._closed = False
        #: how many times this data dir has been opened, bumped durably at
        #: every construction.  Callers that mint identifiers which must
        #: never repeat across restarts (the node's rumor ids) key them to
        #: this, so even lives that crash before persisting any state of
        #: their own get a fresh namespace.
        self.incarnation = self._bump_incarnation()
        self.last_recovery = self._recover()
        self.obs.gauge(
            "store", "recovered_documents", "documents restored at last recovery"
        ).set(self.last_recovery.documents)
        # Subscribe the WAL only after recovery: replay must not re-log.
        self.store.on_operation = self._log_operation

    # -- recovery ------------------------------------------------------------

    def _bump_incarnation(self) -> int:
        """Read, increment, and durably rewrite the incarnation counter."""
        path = self.data_dir / "incarnation"
        try:
            count = int(path.read_text().strip())
        except (OSError, ValueError):
            count = 0  # first open, or a damaged counter: restart at one
        count += 1
        atomic_write_bytes(path, str(count).encode("ascii"))
        return count

    def _recover(self) -> RecoveryInfo:
        payload, snap_path = load_latest_snapshot(self.data_dir)
        snap_seq = 0
        if payload is not None:
            snap_seq = int(payload["seq"])
            entries = [
                (Document(d["id"], d["text"], d.get("meta") or {}), d["tf"])
                for d in payload["docs"]
            ]
            bloom: BloomFilter | None = None
            blob = payload.get("bloom", "")
            if blob:
                try:
                    bloom = BloomFilter.from_compressed(
                        base64.b64decode(blob),
                        num_hashes=self.store.bloom_config.num_hashes,
                    )
                except ValueError:
                    bloom = None  # restore() rebuilds from the index
            self.store.restore(entries, bloom, int(payload["filter_version"]))
        replayed = 0
        # Filter inserts are deferred and batched: replaying N records
        # hashes each distinct term once, not once per occurrence.
        pending_terms: set[str] = set()
        for record in self.wal.open():
            seq = int(record.get("seq", 0))
            if seq <= snap_seq:
                continue  # the snapshot already covers it (crash between
                # snapshot write and WAL reset leaves such records behind)
            if self._apply_record(record, pending_terms):
                replayed += 1
            self._seq = max(self._seq, seq)
        if pending_terms:
            self.store.bulk_add_terms(pending_terms)
        self._seq = max(self._seq, snap_seq)
        self._records_since_snapshot = replayed
        if replayed:
            self._c_replayed.inc(replayed)
        return RecoveryInfo(snap_seq, snap_path, replayed, len(self.store))

    def _apply_record(
        self, record: Mapping[str, object], pending_terms: set[str]
    ) -> bool:
        op = record.get("op")
        doc_id = record.get("id")
        if not isinstance(doc_id, str):
            return False
        if op == "publish":
            if doc_id in self.store:
                return False
            tf = record.get("tf")
            if not isinstance(tf, dict):
                return False
            doc = Document(doc_id, str(record.get("text", "")), record.get("meta") or {})
            self.store.apply_publish(doc, tf, update_filter=False)
            pending_terms.update(tf)
        elif op == "remove":
            if doc_id not in self.store:
                return False
            self.store.apply_remove(doc_id)
        else:
            return False  # unknown op (a newer format); skip, don't die
        fv = record.get("fv")
        if isinstance(fv, int):
            # Keep the gossiped filter version monotone across restarts so
            # replicas holding the pre-crash version accept our updates.
            self.store.filter_version = max(self.store.filter_version, fv)
        return True

    # -- logging -------------------------------------------------------------

    def _log_operation(
        self, op: str, doc: Document, term_freqs: Mapping[str, int] | None
    ) -> None:
        self._seq += 1
        record: dict[str, object] = {
            "seq": self._seq,
            "op": op,
            "id": doc.doc_id,
            "fv": self.store.filter_version,
        }
        if op == "publish":
            record["text"] = doc.text
            if doc.metadata:
                record["meta"] = dict(doc.metadata)
            record["tf"] = dict(term_freqs or {})
        self.wal.append(record)
        self._records_since_snapshot += 1
        if self._records_since_snapshot >= self.config.snapshot_every:
            self.snapshot()

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Path:
        """Write a full snapshot now and reset the WAL.

        Called automatically every ``snapshot_every`` records and on
        :meth:`close`; callers may also force one (e.g. before a planned
        restart, to make the next recovery a pure snapshot load).
        """
        started = time.perf_counter()
        per_doc: dict[str, dict[str, int]] = {
            doc_id: {} for doc_id in self.store.document_ids()
        }
        index = self.store.index
        for term in index.terms():
            for doc_id, tf in index.postings_map(term).items():
                per_doc[doc_id][term] = tf
        docs = []
        for doc_id, tf in per_doc.items():
            doc = self.store.get(doc_id)
            entry: dict[str, object] = {"id": doc_id, "text": doc.text, "tf": tf}
            if doc.metadata:
                entry["meta"] = dict(doc.metadata)
            docs.append(entry)
        payload = {
            "seq": self._seq,
            "filter_version": self.store.filter_version,
            "bloom": base64.b64encode(
                self.store.bloom_filter.to_compressed()
            ).decode("ascii"),
            "docs": docs,
        }
        path = write_snapshot(self.data_dir, payload)
        self.wal.reset()
        self._records_since_snapshot = 0
        self._c_snapshots.inc()
        self._c_snapshot_bytes.inc(path.stat().st_size)
        self._h_snapshot.observe(time.perf_counter() - started)
        return path

    def close(self, *, snapshot: bool = True) -> None:
        """Flush (optionally snapshotting pending WAL records) and close."""
        if self._closed:
            return
        if snapshot and self._records_since_snapshot > 0:
            self.snapshot()
        self.store.on_operation = None
        self.wal.close()
        self._closed = True

    def __repr__(self) -> str:
        return (
            f"PersistentDataStore(dir={str(self.data_dir)!r}, docs={len(self.store)}, "
            f"seq={self._seq}, wal_bytes={self.wal.size_bytes})"
        )
