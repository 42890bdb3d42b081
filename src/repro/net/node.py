"""`NetworkPeer`: one PlanetP peer as a real network process.

Wraps the library peer (:class:`~repro.core.peer.PlanetPPeer` — data
store, inverted index, Bloom filter, replicated directory) behind an
asyncio server loop and runs the Section 3 gossip protocol over a real
:class:`~repro.net.transport.Transport`.  The protocol's decisions live
in :class:`~repro.gossip.core.GossipCore`, the same object the
simulator's :class:`~repro.gossip.simpeer.GossipPeer` drives; where that
driver moves byte *counts*, this one moves the actual bytes: join rumors
carry member records plus compressed Bloom filters, update rumors carry
Golomb-coded filter diffs.  A publish mints nothing: each gossip round
first announces the filter growth since the last round as one update
rumor, as one simulated ``originate_update`` is one announcement.

Replica maintenance is monotone: filters only grow, diffs are sets of
newly-set bits, and snapshots/records are merged by union — so rumors can
arrive in any order and every replica still converges to the publisher's
exact filter.  (Shrinking a filter after document removal requires a full
regeneration, which this layer does not re-gossip yet.)

Liveness follows the paper: departures are never announced; a failed
contact marks the target offline locally, and a member continuously
offline for ``t_dead_s`` (T_Dead) is dropped from the directory.  Those
rules are :class:`~repro.gossip.members.MemberTable`'s (``membership``),
the table the simulator drives too; a pid enters it only with an
addressed record.

The node names no plane message: the planes (partial view, content,
analytics, subscriptions) use only its public methods — the one member
RPC :meth:`~NetworkPeer.request_peer`, :meth:`~NetworkPeer.pick_target`,
the directory merges, and :meth:`~NetworkPeer.add_handler` /
:meth:`~NetworkPeer.add_round_hook` (DESIGN §6).

Every node is observable through a :class:`~repro.obs.Registry`
(defaulting to the process-global one): gossip rounds by mode, rumors
minted/learned, hot-queue depth, directory size, contact failures and
T_Dead expiries, plus running totals of real encoded gossip bytes next
to the Table-2 model's prediction for the same messages — so the
paper's bandwidth claims are checkable against live sockets.  A
``StatsRequest`` frame polls the registry remotely; protocol moments
land in the registry's trace ring (``round_started``, ``rumor_pushed``,
``ae_triggered``, ``peer_offline`` ...).
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
import time
import traceback
from collections.abc import Awaitable, Callable, Iterable
from pathlib import Path
from typing import Any

import numpy as np

from repro.analytics.aggregate import AnalyticsPlane
from repro.bloom.diff import BloomDiff, apply_diff, diff_filters
from repro.bloom.filter import BloomFilter
from repro.constants import (
    MAX_PEER_ID,
    STORE_CHECKPOINT_EVERY_ROUNDS,
    AnalyticsConfig,
    BloomConfig,
    ContentConfig,
    GossipConfig,
    NetConfig,
    PartialViewConfig,
    StoreConfig,
)
from repro.content.plane import ContentPlane
from repro.core.peer import PeerEntry, PlanetPPeer
from repro.core.search import exhaustive_local_match, score_local_documents
from repro.gossip.core import RUMOR, GossipCore
from repro.gossip.members import MemberTable
from repro.gossip.messages import MessageSizer
from repro.gossip.partialview import PartialView
from repro.gossip.rumor import RumorKind
from repro.gossip.wire import (
    ANALYTICS,
    CONTENT,
    GOSSIP,
    PARTIALVIEW,
    ROW_OF,
    AENothing,
    AERecent,
    AERequest,
    AESummary,
    JoinRequest,
    JoinSnapshot,
    PeerRecord,
    PullRequest,
    RumorData,
    RumorPush,
    RumorReply,
    SnapshotEntry,
    WireRumor,
)
from repro.net import codec
from repro.net.codec import (
    CodecError,
    ErrorReply,
    ExhaustiveQuery,
    ExhaustiveResponse,
    PublishAck,
    PublishRequest,
    RankedQuery,
    RankedResponse,
    SnippetFetch,
    SnippetResponse,
    StatsRequest,
    StatsResponse,
)
from repro.net.partialview import PartialViewPlane
from repro.net.transport import TcpTransport, Transport, TransportError
from repro.obs import Counter, Registry, global_registry
from repro.serve.subscriptions import SubscriptionManager
from repro.store.checkpoint import DirectoryCheckpoint, load_checkpoint, save_checkpoint
from repro.store.chunkstore import ChunkStore
from repro.store.persistent_store import PersistentDataStore
from repro.text.analyzer import Analyzer
from repro.text.document import Document
from repro.text.xmlsnippets import XMLSnippet

__all__ = ["NetworkPeer", "RID_RESTART_GAP", "read_checkpoint"]

#: How far past the checkpointed rumor sequence a warm restart resumes
#: minting.  Rumors minted between the last checkpoint write and a crash
#: are unrecorded locally but already known to other members; jumping the
#: sequence far beyond anything a checkpoint interval could mint keeps
#: post-restart rids from colliding with them.
RID_RESTART_GAP = 1 << 16


def read_checkpoint(path: Path) -> tuple[DirectoryCheckpoint, JoinSnapshot] | None:
    """A directory checkpoint and the join snapshot it holds; None when
    the file is missing or damaged, or was written in an older format or
    codec version (each a cold start)."""
    ckpt = load_checkpoint(path)
    if ckpt is None:
        return None
    try:
        snap = codec.decode(ckpt.snapshot)
    except CodecError:
        return None
    return (ckpt, snap) if isinstance(snap, JoinSnapshot) else None


class NetworkPeer:
    """A PlanetP community member gossiping and serving over sockets."""

    def __init__(
        self,
        peer_id: int,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        transport: Transport | None = None,
        analyzer: Analyzer | None = None,
        bloom_config: BloomConfig | None = None,
        gossip_config: GossipConfig | None = None,
        net_config: NetConfig | None = None,
        seed: int | None = None,
        registry: Registry | None = None,
        data_dir: str | Path | None = None,
        store_config: StoreConfig | None = None,
        partial_view: PartialViewConfig | None = None,
        content_config: ContentConfig | None = None,
        analytics_config: AnalyticsConfig | None = None,
    ) -> None:
        if not 0 <= peer_id <= MAX_PEER_ID:
            raise ValueError("peer_id must fit in 16 bits for rumor-id minting")
        self.config = gossip_config or GossipConfig()
        if self.config.anti_entropy_only:
            raise ValueError(
                "anti_entropy_only is a simulator baseline (LAN-AE): the wire "
                "has no anti-entropy push request"
            )
        self.net_config = net_config or NetConfig()
        self.bloom_config = bloom_config or BloomConfig()
        self.analyzer = analyzer or Analyzer()
        self.transport = transport or TcpTransport(self.net_config)
        self.peer = PlanetPPeer(
            peer_id,
            address=f"{host}:{port}",
            analyzer=self.analyzer,
            bloom_config=self.bloom_config,
        )
        self.rng = np.random.default_rng(peer_id if seed is None else seed)
        #: rumor knowledge and every Section 3 decision over it.
        self.core = GossipCore(self.config)
        #: stored rumors by id — payloads kept so pulls can be served.
        self.rumors: dict[int, WireRumor] = {}
        #: members, on-line beliefs, contact backoff and T_Dead.
        self.membership = MemberTable(peer_id, self.config)
        self._host = host
        self._port = port
        self.address: str | None = None
        self.running = False
        self._gossip_task: asyncio.Task | None = None
        #: next rumor sequence number (the low half of minted rids).  An
        #: int rather than an iterator so a directory checkpoint can
        #: persist it — reusing a previous life's rid would make a warm
        #: restart's REJOIN rumor "already known" everywhere and unspreadable.
        self._rid_seq = 0
        #: the filter state as of the last minted update rumor.
        self._last_gossiped = BloomFilter(
            self.bloom_config.num_bits, self.bloom_config.num_hashes
        )
        #: (store filter object, its version) at the last flush — lets
        #: no-change flushes skip the full bit-array comparison.  The
        #: strong object reference keeps the identity check sound.
        self._last_flushed: tuple[BloomFilter, int] | None = None
        #: observability home (metrics + trace); shared process-wide by
        #: default so transport/bloom/chaos instruments land beside ours.
        self.obs = registry if registry is not None else global_registry()
        self.transport.bind_registry(self.obs)
        self._sizer = MessageSizer()
        self._started_at: float | None = None
        #: cached node-component instruments; gossip rounds are the hot
        #: path and must not pay a registry lookup per increment.
        self._node_counters: dict[str, Counter] = {}
        self._g_hot = self.obs.gauge(
            "node", "hot_rumors", "actively-spread rumor count"
        )
        self._g_directory = self.obs.gauge(
            "node", "directory_size", "known community members"
        )
        self._g_known = self.obs.gauge(
            "node", "known_rumors", "distinct rumor ids seen"
        )
        #: (real, model) byte counters per accounted inventory family.
        #: Gossip is the paper's Table-2 inventory; the others are outside
        #: the flat gossip totals (which must stay exactly the paper's
        #: model) but measured the same way and held to the same envelope.
        #: Serve frames and the search RPCs are not accounted.
        self._family_bytes: dict[str | None, tuple[Counter, Counter]] = {
            family: (
                self.obs.counter(
                    "node",
                    f"{family}_real_bytes_total",
                    f"encoded {family} bytes (requests sent + replies served)",
                ),
                self.obs.counter(
                    "node",
                    f"{family}_model_bytes_total",
                    f"sizer (Table-2 model) prediction for the same {family} messages",
                ),
            )
            for family in (GOSSIP, PARTIALVIEW, CONTENT, ANALYTICS)
        }
        #: sharded partial-view state (None = flat full-replication mode).
        self.pview: PartialView | None = (
            PartialView(peer_id, partial_view, self.bloom_config)
            if partial_view is not None
            else None
        )
        #: per-wire-type real/model/message counters (the "wire" component
        #: of the stats export), cached by message class — the accounting
        #: path runs per message and must not pay registry lookups.
        self._wire_counters: dict[type, tuple[Counter, Counter, Counter]] = {}
        #: durable persistence (repro.store); None = pure-RAM node.
        self.store_config = store_config or StoreConfig()
        self.persistence: PersistentDataStore | None = None
        self._checkpoint_path: Path | None = None
        #: directory entries restored from the checkpoint at construction.
        self.restored_members = 0
        if data_dir is not None:
            data_dir = Path(data_dir)
            # Journal the peer's own store: it is recovered in place, and
            # every publish/remove goes through the WAL before it is acked.
            self.persistence = PersistentDataStore(
                data_dir, self.peer.store, config=self.store_config, registry=self.obs
            )
            self._checkpoint_path = data_dir / "directory.ckpt"
            # Give every incarnation of this data dir a disjoint rumor-id
            # band: a life that crashed before its first checkpoint still
            # must not re-mint its predecessors' rids (a reused rid is
            # "already known" community-wide and the JOIN/REJOIN rumor
            # carrying it could never spread).
            self._rid_seq = (
                self.persistence.incarnation * RID_RESTART_GAP
            ) & 0xFFFFFFFF
            self._restore_checkpoint()
        # The planes below register their own request handlers and
        # per-round steps; hooks run in construction order.
        self._dispatch_table = self._handlers()
        self._round_hooks: list[Callable[[], Awaitable[None]]] = []
        #: sharded-directory maintenance, serving and search fan-out
        #: (repro.net.partialview); a flat node still trades view records.
        self.partialview = PartialViewPlane(self)
        #: persistent queries posted over the wire (repro.serve); durable
        #: alongside the directory checkpoint when a data dir is set.
        self.subscriptions = SubscriptionManager(
            self,
            checkpoint_path=(
                data_dir / "subscriptions.ckpt" if data_dir is not None else None
            ),
        )
        #: the wire-level content plane (repro.content): every publish is
        #: chunked into a crash-safe store and served to ChunkRequests;
        #: k-way replication to ring successors runs only when
        #: ``content_config.replicas > 0`` (off by default).
        self.content_config = content_config or ContentConfig()
        self.content = ContentPlane(
            self,
            self.content_config,
            ChunkStore(data_dir and data_dir / "chunks", fsync=self.store_config.fsync),
        )
        #: gossip-powered frequent-term mining + popularity counters
        #: (repro.analytics); off by default — a node pays nothing for
        #: analytics unless explicitly configured.
        self.analytics = AnalyticsPlane(self, analytics_config)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0, help: str = "") -> None:
        counter = self._node_counters.get(name)
        if counter is None:
            counter = self._node_counters[name] = self.obs.counter("node", name, help)
        counter.inc(amount)

    def _account_gossip(self, msg: object, body: bytes) -> None:
        """Track one encoded gossip message: real bytes vs Table-2 model.

        The same two totals the simulator reasons with, now measured on
        a live node — their ratio is the model-agreement envelope
        ``tests/test_net_model_agreement.py`` pins to [0.5, 2.0].
        """
        row = ROW_OF.get(type(msg))
        pair = self._family_bytes.get(row.family) if row is not None else None
        if pair is None:
            return
        model = self._sizer.model_size(msg)
        pair[0].inc(len(body))
        pair[1].inc(model)
        trio = self._wire_counters.get(row.cls)
        if trio is None:
            name = row.counter
            trio = self._wire_counters[row.cls] = (
                self.obs.counter(
                    "wire", f"{name}_real_bytes_total", f"encoded {name} bytes"
                ),
                self.obs.counter(
                    "wire", f"{name}_model_bytes_total", f"modeled {name} bytes"
                ),
                self.obs.counter(
                    "wire", f"{name}_messages_total", f"{name} messages accounted"
                ),
            )
        trio[0].inc(len(body))
        trio[1].inc(model)
        trio[2].inc()

    def stats_response(self) -> StatsResponse:
        """The node's registry flattened into a wire-ready reply."""
        uptime = 0.0
        if self._started_at is not None:
            uptime = max(0.0, self.clock() - self._started_at)
        return StatsResponse(self.peer_id, uptime, tuple(self.obs.samples()))

    # ------------------------------------------------------------------
    # the plane interface: what a plane may call on its node
    # ------------------------------------------------------------------

    def add_handler(self, cls: type, handler: Callable[[Any], Any]) -> None:
        """Serve request type ``cls`` with ``handler``, which returns the
        reply or a coroutine resolving to it (a plane registers its own
        messages; the node names none of them)."""
        if cls in self._dispatch_table:
            raise ValueError(f"{cls.__name__} already has a handler")
        self._dispatch_table[cls] = handler

    def add_round_hook(self, hook: Callable[[], Awaitable[None]]) -> None:
        """Await ``hook`` in every gossip round, after the rumor /
        anti-entropy exchange (a plane's maintenance step)."""
        self._round_hooks.append(hook)

    async def request_address(self, address: str, msg: object) -> object:
        """One RPC to a raw address (a bootstrap, a notify endpoint): the
        request is byte-accounted like any other, no liveness is recorded.
        Raises ``TransportError`` / ``CodecError``."""
        frame = codec.encode(msg)
        self._account_gossip(msg, frame)
        return codec.decode(await self.transport.request(address, frame))

    async def request_peer(
        self, pid: int, msg: object, *, timeout_s: float | None = None
    ) -> object | None:
        """One RPC to member ``pid`` — the path every plane's member RPCs
        take.  None when ``pid`` has no address or the exchange failed;
        either outcome is liveness evidence about the contacted address.
        Past ``timeout_s`` the contact counts as failed and
        ``TimeoutError`` propagates, so the caller can count it."""
        entry = self.peer.directory.get(pid)
        if entry is None or not entry.address:
            return None
        address = entry.address
        try:
            async with asyncio.timeout(timeout_s):
                reply = await self.request_address(address, msg)
        except TimeoutError:
            self._record_contact(pid, address, ok=False)
            raise
        except (TransportError, CodecError):
            self._record_contact(pid, address, ok=False)
            return None
        self._record_contact(pid, address, ok=True)
        return reply

    # ------------------------------------------------------------------
    # persistence (repro.store)
    # ------------------------------------------------------------------

    def _restore_checkpoint(self) -> None:
        """Seed the directory and rumor knowledge from the last checkpoint:
        our own join snapshot, adopted as :meth:`join` adopts a
        bootstrap's but with an empty recently-learned window.

        A missing/corrupt checkpoint, one in an older format or codec
        version, or one written by a different peer id (a reused data
        dir) is silently a cold start.  Restored believed-offline members
        get their T_Dead clocks started now.
        """
        restored = read_checkpoint(self._checkpoint_path)
        if restored is None or restored[0].peer_id != self.peer_id:
            return
        ckpt, snap = restored
        # Adopting (one vectorized digest fold) leaves the digest
        # bit-identical to the incrementally maintained one, so the first
        # AE digest comparison with an unchanged community answers
        # "nothing new" instead of triggering a full summary transfer.
        self.adopt_snapshot(snap, recent=())
        self.restored_members = sum(e.record.peer_id != self.peer_id for e in snap.entries)
        # Resume minting rumor ids strictly after every id of the previous
        # life.  The gap covers rumors minted between the last checkpoint
        # write and the crash (unrecorded, but known to other members) —
        # reusing one of those would make our REJOIN rumor "already known"
        # everywhere and therefore unspreadable.
        own_seqs = [rid & 0xFFFFFFFF for rid in snap.rids if (rid >> 32) == self.peer_id]
        resume_at = max([ckpt.next_rid_seq, *(s + 1 for s in own_seqs)])
        self._rid_seq = max(self._rid_seq, resume_at + RID_RESTART_GAP)
        staleness = max(0.0, time.time() - ckpt.written_at)
        self.obs.gauge(
            "store",
            "checkpoint_staleness_seconds",
            "age of the directory checkpoint when it was restored",
        ).set(staleness)
        self.obs.gauge(
            "store",
            "checkpoint_members_restored",
            "directory entries seeded from the checkpoint",
        ).set(self.restored_members)
        self.obs.emit(
            "checkpoint_restored",
            peer=self.peer_id,
            members=self.restored_members,
            rumors=len(snap.rids),
            staleness_s=staleness,
        )

    def write_checkpoint(self) -> int:
        """Persist the replicated directory (:meth:`snapshot`); returns
        bytes written.

        A no-op (returns 0) without a data dir; write failures are
        counted, not raised — a full disk must not stop gossip.
        """
        if self._checkpoint_path is None:
            return 0
        snap = self.snapshot()
        try:
            checkpoint = DirectoryCheckpoint(
                self.peer_id, time.time(), self._rid_seq, codec.encode(snap)
            )
            nbytes = save_checkpoint(self._checkpoint_path, checkpoint, self.store_config.fsync)
        except (OSError, CodecError):
            self.obs.counter(
                "store", "checkpoint_errors_total", "failed checkpoint writes"
            ).inc()
            return 0
        self.obs.counter(
            "store", "checkpoint_writes_total", "directory checkpoints written"
        ).inc()
        self.obs.counter(
            "store", "checkpoint_bytes_total", "bytes written across checkpoints"
        ).inc(nbytes)
        self.obs.emit(
            "checkpoint_written",
            peer=self.peer_id,
            members=len(snap.entries) - 1,  # our own row is one of them
            bytes=nbytes,
        )
        return nbytes

    # ------------------------------------------------------------------
    # identity & lifecycle
    # ------------------------------------------------------------------

    def clock(self) -> float:
        """The running event loop's time: ``time.monotonic()`` on a stock
        loop, virtual seconds on :class:`~repro.net.vtime.VirtualTimeLoop`.
        Outside any loop it reads ``time.monotonic()`` as a stock loop does."""
        try:
            return asyncio.get_running_loop().time()
        except RuntimeError:
            return time.monotonic()

    @property
    def peer_id(self) -> int:
        """This node's community-wide peer id."""
        return self.peer.peer_id

    def _mint_rid(self) -> int:
        """Globally-unique 48-bit rumor id: 16-bit peer id + 32-bit seq."""
        seq = self._rid_seq
        self._rid_seq += 1
        return (self.peer_id << 32) | (seq & 0xFFFFFFFF)

    def _mint(self, kind: RumorKind, payload: bytes) -> WireRumor:
        """Create a rumor of our own and start spreading it."""
        rumor = WireRumor(self._mint_rid(), kind, self.peer_id, self.clock(), payload)
        self._learn_rumor(rumor, make_hot=True)
        return rumor

    def own_record(self) -> PeerRecord:
        """Our own directory row as a wire record."""
        return PeerRecord(
            self.peer_id,
            self.address or f"{self._host}:{self._port}",
            True,
            self.peer.store.filter_version,
        )

    def record_of(self, pid: int) -> PeerRecord:
        """Member ``pid``'s directory row as a wire record, ``online`` as
        our member table believes.

        Entries with no filter version yet carry the ``-1`` sentinel,
        which does not fit the u32 wire field; clamp to 0 — receivers
        merge with ``max()``, so this never regresses a version they
        already know.
        """
        entry = self.peer.directory[pid]
        return PeerRecord(
            pid, entry.address, self.membership.is_online(pid), max(0, entry.filter_version)
        )

    def snapshot_entry(self, pid: int) -> SnapshotEntry:
        """Member ``pid``'s row plus its compressed filter as we hold it
        (our live filter for ourselves, no bytes where we hold none)."""
        if pid == self.peer_id:
            bloom = self.peer.store.bloom_filter.to_compressed()
            return SnapshotEntry(self.own_record(), bloom)
        bf = self.peer.directory[pid].bloom_filter
        bloom = bf.to_compressed() if bf is not None else b""
        return SnapshotEntry(self.record_of(pid), bloom)

    def snapshot(self) -> JoinSnapshot:
        """The whole directory as a joiner downloads it: every row with
        its filter (our own included) and every rumor id we know.  It is
        also what :meth:`write_checkpoint` persists."""
        entries = tuple(self.snapshot_entry(pid) for pid in sorted(self.peer.directory))
        return JoinSnapshot(entries, tuple(sorted(self.core.known)))

    async def start(self) -> str:
        """Bind the server socket and begin answering requests.

        Returns the bound address.  The gossip loop is started separately
        by :meth:`run` (tests often drive :meth:`gossip_round` directly).
        """
        self.address = await self.transport.serve(
            f"{self._host}:{self._port}", self._serve
        )
        self.peer.address = self.address
        self.peer.directory[self.peer_id].address = self.address
        self.running = True
        if self._started_at is None:
            self._started_at = self.clock()
        if self.persistence is not None and (
            self.restored_members > 0 or self.persistence.last_recovery.documents > 0
        ):
            # Warm restart: announce ourselves (record + full filter) so
            # the community relearns our address without a re-join, and
            # replicas recover any updates lost to checkpoint staleness.
            self.announce_rejoin()
        if self.subscriptions.restored_subscriptions:
            # Rumors that arrived and were checkpointed before the crash
            # never re-apply on restore, so their publishes would never
            # mark anyone dirty — probe the whole directory once instead
            # (the delivered sets keep already-seen documents silent).
            self.subscriptions.mark_all_dirty()
        return self.address

    def run(self) -> asyncio.Task:
        """Start the background gossip loop (one round per interval)."""
        if self._gossip_task is None or self._gossip_task.done():
            self._gossip_task = asyncio.create_task(self._gossip_loop())
        return self._gossip_task

    async def _gossip_loop(self) -> None:
        # De-synchronize peers: first round fires inside one interval.
        intervals = self.core.intervals
        await asyncio.sleep(float(self.rng.uniform(0.0, intervals.interval)))
        while self.running:
            try:
                await self.gossip_round()
            except (TransportError, CodecError):
                pass
            except Exception as exc:  # noqa: BLE001 - one bad round must not end gossip
                self._count(
                    "round_failures_total", 1, "gossip rounds ended by an unexpected error"
                )
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                self.obs.emit(
                    "round_failed",
                    peer=self.peer_id,
                    error=f"{type(exc).__name__}: {exc}",
                    where=f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}",
                )
            await asyncio.sleep(intervals.interval)

    async def stop(self) -> None:
        """Graceful leave: stop gossiping and close the server.

        Cancels an in-flight :meth:`gossip_round` cleanly and *awaits*
        the cancelled loop task before closing the transport, so no
        pending task survives to be garbage-collected ("Task was
        destroyed but it is pending!").  Safe to call more than once.

        Per the paper, departure is not announced — the community
        discovers it through failed contacts and T_Dead expiry.
        """
        self.running = False
        task, self._gossip_task = self._gossip_task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        await self.subscriptions.stop()
        await self.transport.close()
        if self._checkpoint_path is not None:
            self.write_checkpoint()
        if self.persistence is not None:
            # Final snapshot: the next start recovers without WAL replay.
            self.persistence.close()

    # ------------------------------------------------------------------
    # joining
    # ------------------------------------------------------------------

    async def join(self, bootstrap_address: str) -> None:
        """Join the community via the peer at ``bootstrap_address``.

        Introduces ourselves (record + compressed filter, minting our own
        JOIN rumor) and adopts the bootstrap's directory snapshot.
        """
        own = self.snapshot_entry(self.peer_id)
        rumor = self._mint(RumorKind.JOIN, codec.encode_member_payload(own.record, own.bloom))
        request = JoinRequest(own.record, own.bloom, rumor.rid, rumor.created_at)
        reply = await self.request_address(bootstrap_address, request)
        if not isinstance(reply, JoinSnapshot):
            raise TransportError(f"bootstrap sent {type(reply).__name__}, not a snapshot")
        # The snapshot carries no recently-learned window, so every
        # adopted id enters ours, in wire order.
        self.adopt_snapshot(reply)
        if self.pview is not None:
            # Warm the shard summaries right away: until the rotating
            # maintenance step has run, searches fan out to every
            # unknown shard, so one extra RPC here pays for itself.
            await self.partialview.pull_summaries(address=bootstrap_address)

    def adopt_snapshot(
        self, snap: JoinSnapshot, *, recent: Iterable[int] | None = None
    ) -> None:
        """Take on a directory download (a bootstrap's reply, or our own
        checkpoint): merge its rows, then adopt its rumor ids unspread,
        ``recent`` as in :meth:`GossipCore.adopt`.  Their payloads are not
        carried, so we cannot serve pulls for them; peers that stored them can."""
        self.install_entries(snap.entries)
        self.core.adopt(snap.rids, recent=recent)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    def publish(self, item: Document | XMLSnippet) -> Document:
        """Publish a document locally; the next gossip round announces the
        filter growth (every publish since the last round in one diff)."""
        doc = self.peer.publish(item)
        # Chunk the content for the transfer plane: from here on any
        # member (or a directory-less client) can fetch the bytes by doc
        # id; replication to ring successors happens in gossip rounds.
        self.content.add_local(doc.doc_id, doc.text.encode("utf-8"))
        self.subscriptions.mark_dirty(self.peer_id)
        return doc

    def flush_updates(self) -> WireRumor | None:
        """Announce now: mint a BF_UPDATE rumor for the filter growth
        since the last one.  Every gossip round starts with this call.

        Returns the minted rumor, or None if the filter is unchanged.
        """
        current = self.peer.store.bloom_filter
        if self._last_flushed is not None:
            held, version = self._last_flushed
            if held is current and version == current.version:
                return None  # not mutated since the last flush
        self._last_flushed = (current, current.version)
        if not current.is_superset_of(self._last_gossiped):
            # A removal rebuilt a smaller filter, but a diff only adds
            # bits: replicas keep the removed terms' bits (false
            # positives, which a probe weeds out) and hear the growth.
            current = current.union(self._last_gossiped)
        if current == self._last_gossiped:
            return None
        diff = diff_filters(self._last_gossiped, current)
        payload = codec.encode_update_payload(
            self.peer.store.filter_version, diff.to_bytes()
        )
        self._last_gossiped = current.copy()
        self._count("filter_announcements_total", 1, "BF_UPDATE rumors minted")
        return self._mint(RumorKind.BF_UPDATE, payload)

    def announce_rejoin(self) -> WireRumor:
        """Mint a REJOIN rumor carrying our record and full filter
        (used after coming back online at a possibly new address)."""
        own = self.snapshot_entry(self.peer_id)
        current = self.peer.store.bloom_filter
        # The rumor carries the whole filter, so future BF_UPDATE diffs
        # only need to cover growth from here.
        self._last_gossiped = current.copy()
        self._last_flushed = (current, current.version)
        rumor = self._mint(RumorKind.REJOIN, codec.encode_member_payload(own.record, own.bloom))
        # Catch up on what we missed before rumoring again, as the
        # simulator's rejoin does.
        self.core.force_anti_entropy()
        return rumor

    # ------------------------------------------------------------------
    # rumor knowledge
    # ------------------------------------------------------------------

    def decode_filter(self, blob: bytes) -> BloomFilter | None:
        """A peer-supplied compressed filter; None when absent or damaged
        (the member is installed filterless and its replica is re-learned
        over gossip)."""
        if not blob:
            return None
        try:
            return BloomFilter.from_compressed(
                blob, num_hashes=self.bloom_config.num_hashes
            )
        except ValueError:
            return None

    def _learn_rumor(self, rumor: WireRumor, make_hot: bool) -> bool:
        if rumor.rid in self.core.known:
            return False
        mine = rumor.origin == self.peer_id
        try:
            # Our own rumors' effects are already local state: not decoded.
            parsed = None if mine else self._decode_rumor(rumor)
        except (ValueError, EOFError, struct.error):
            # The frame decoded but the payload does not: drop it before
            # the core records the id, so it is never stored or forwarded.
            self._count(
                "rumors_rejected_total", 1, "rumors dropped for a damaged payload"
            )
            return False
        self.core.learn(rumor.rid, make_hot)
        self.rumors[rumor.rid] = rumor
        if mine:
            self._count("rumors_minted_total", 1, "rumors this node originated")
        else:
            self._apply_rumor(rumor, parsed)
            self._count("rumors_learned_total", 1, "rumors learned from peers")
        return True

    def _decode_rumor(self, rumor: WireRumor) -> SnapshotEntry | tuple[int, BloomDiff]:
        """Parse a peer's rumor payload (raising on damage): a
        ``SnapshotEntry`` for JOIN/REJOIN, ``(version, diff)`` for BF_UPDATE."""
        if rumor.kind is RumorKind.BF_UPDATE:
            version, blob = codec.decode_update_payload(rumor.payload)
            diff = BloomDiff.from_bytes(blob)
            if diff.num_bits != self.bloom_config.num_bits:
                raise ValueError("diff width does not match filter width")
            parsed, pid = (version, diff), rumor.origin
        else:
            parsed = SnapshotEntry(*codec.decode_member_payload(rumor.payload))
            pid = parsed.record.peer_id
        if not self.membership.admits(pid):
            raise ValueError(f"peer id {pid} out of range")
        return parsed

    def _apply_rumor(
        self, rumor: WireRumor, parsed: SnapshotEntry | tuple[int, BloomDiff]
    ) -> None:
        if isinstance(parsed, SnapshotEntry):
            self.install_entries([parsed])
            if parsed.record.address:
                # The member's own record: first-hand evidence it is alive.
                self.membership.seen_alive(parsed.record.peer_id)
        else:
            version, diff = parsed
            entry = self.peer.directory.get(rumor.origin)
            if entry is None:
                # Overtook its member's JOIN: the filter waits here, and the
                # member enters the table when its addressed record arrives.
                entry = self.peer.directory[rumor.origin] = PeerEntry(rumor.origin, "")
            if self.pview is not None and not self.pview.keeps_filter(rumor.origin):
                # Dropped foreign filter: the diff still reaches the
                # shard's coarse summary (diffs are monotone position
                # sets, so OR-ing them in is order-free), and the version
                # bump below keeps the serve cache's directory generation
                # moving on remote publishes even without the full filter.
                self.pview.fold_diff(rumor.origin, diff)
            else:
                if entry.bloom_filter is None:
                    entry.bloom_filter = BloomFilter(
                        self.bloom_config.num_bits, self.bloom_config.num_hashes
                    )
                    if self.pview is not None:
                        # Searchable at once, but not a full copy: backfill
                        # and home-shard fan-out go on until one arrives.
                        self.pview.diff_only.add(rumor.origin)
                entry.bloom_filter = apply_diff(entry.bloom_filter, diff)
                if self.pview is not None:
                    # A sampled out-of-shard member's growth must also show
                    # in its shard summary, or summary fan-out would skip
                    # the shard for terms only this member holds.
                    self.pview.fold_filter(rumor.origin, entry.bloom_filter)
            entry.filter_version = max(entry.filter_version, version)
        # Gossip is the change feed for standing queries: the origin's
        # content may now match one, so schedule a probe.
        self.subscriptions.mark_dirty(rumor.origin)

    def install_records(self, records: Iterable[PeerRecord]) -> None:
        """Merge membership rows a peer sent (no filters)."""
        self.install_entries(SnapshotEntry(record, b"") for record in records)

    def install_entries(self, entries: Iterable[SnapshotEntry]) -> None:
        """Merge (record, compressed filter) rows a peer sent.

        An addressed row is liveness hearsay for the member table: an
        online row re-admits its member, a row its sender believes dead
        never resurrects one (it starts an unknown member's T_Dead
        clock).  A row with no address only feeds the member's filter.
        Filters are monotone and merged by union, so replicas converge
        whatever the arrival order; a damaged one installs its member
        filterless.  A row naming a peer id outside the community's range
        is counted and dropped.
        """
        now = self.clock()
        for item in entries:
            record = item.record
            pid = record.peer_id
            if pid == self.peer_id:
                continue
            if not self.membership.admits(pid):
                self._count("rows_rejected_total", 1, "member rows with an out-of-range id")
                continue
            entry = self.peer.directory.get(pid)
            if entry is None:
                entry = self.peer.directory[pid] = PeerEntry(pid, "")
            if record.address:
                entry.address = record.address
                if record.online:
                    self.membership.seen_alive(pid, hearsay=True)
                else:
                    self.membership.seen_dead(pid, now)
            bf = self.decode_filter(item.bloom)
            if bf is not None and self.pview is not None:
                # Every foreign filter feeds its shard summary (fold_filter
                # skips the home shard, whose filters stay first-class); the
                # full copy is kept only for home/sampled members.
                self.pview.fold_filter(pid, bf)
                if not self.pview.maybe_admit(pid):
                    bf = None
            if bf is not None:
                if entry.bloom_filter is None:
                    entry.bloom_filter = bf
                else:
                    entry.bloom_filter.union_inplace(bf)
                if self.pview is not None:
                    self.pview.diff_only.discard(pid)
            entry.filter_version = max(entry.filter_version, record.filter_version)

    # ------------------------------------------------------------------
    # the gossip round (initiator side)
    # ------------------------------------------------------------------

    async def gossip_round(self) -> None:
        """Run one gossip round: announce the filter growth since the last
        round, then rumor push or periodic anti-entropy."""
        self.flush_updates()
        mode, hot_ids = self.core.begin_round()
        for pid in self.membership.expire(self.clock()):
            self.peer.drop_peer(pid)
            if self.pview is not None:
                self.pview.forget(pid)
            self.analytics.forget(pid)
            self._count("peers_expired_total", 1, "members dropped at T_Dead")
            self.obs.emit("peer_expired", peer=self.peer_id, target=pid)
        rumor_mode = mode == RUMOR
        self._count("gossip_rounds_total", 1, "gossip rounds initiated")
        self._g_hot.set(len(self.core.hot))
        # The directory's rows, a filter still waiting for its member's
        # JOIN included: a fleet waits on this gauge for convergence.
        self._g_directory.set(len(self.peer.directory))
        self._g_known.set(len(self.core.known))
        self.obs.emit(
            "round_started",
            peer=self.peer_id,
            round=self.core.round_counter,
            mode="rumor" if rumor_mode else "anti-entropy",
        )
        if rumor_mode:
            self._count("rumor_rounds_total", 1, "rounds spent pushing rumors")
            await self._rumor_round(hot_ids)
        else:
            self._count("ae_rounds_total", 1, "rounds spent on anti-entropy")
            await self._ae_round(had_hot=bool(hot_ids))
        for hook in self._round_hooks:
            await hook()
        if (
            self._checkpoint_path is not None
            and self.core.round_counter % STORE_CHECKPOINT_EVERY_ROUNDS == 0
        ):
            self.write_checkpoint()

    def pick_target(self, include_offline: bool = False) -> int | None:
        """A random gossip target.

        Rumor rounds talk only to members believed online whose failure
        backoff has elapsed — there is no point burning a rumor push on a
        dead peer.  Anti-entropy rounds (``include_offline``) may pick any
        addressed member, including believed-dead ones: that probe is how
        a silently recovered peer is rediscovered before T_Dead fires.
        """
        if include_offline:
            candidates = [pid for pid in self.membership.members() if pid != self.peer_id]
        else:
            candidates = self.membership.live(self.clock())
        if not candidates:
            return None
        return int(candidates[int(self.rng.integers(0, len(candidates)))])

    async def _rumor_round(self, hot_ids: list[int]) -> None:
        target = self.pick_target()
        if target is None:
            return
        self.obs.emit("rumor_pushed", peer=self.peer_id, target=target, count=len(hot_ids))
        reply = await self.request_peer(target, RumorPush(tuple(hot_ids)))
        if not isinstance(reply, RumorReply):
            return
        ship, pull = self.core.on_rumor_reply(
            hot_ids, reply.needed, reply.piggyback
        )
        # Ids adopted from a snapshot have no stored payload to ship.
        have = tuple(self.rumors[rid] for rid in ship if rid in self.rumors)
        if have:
            await self.request_peer(target, RumorData(have))
        if pull:
            self._count(
                "partial_ae_pulls_total", 1, "pulls triggered by AE piggybacks"
            )
            await self._pull_from(target, pull)

    async def _ae_round(self, had_hot: bool) -> None:
        target = self.pick_target(include_offline=True)
        if target is None:
            return
        self.obs.emit("ae_triggered", peer=self.peer_id, target=target)
        reply = await self.request_peer(target, AERequest(self.core.digest))
        if isinstance(reply, AENothing):
            self.core.on_ae_nothing(had_hot)
        elif isinstance(reply, AERecent):
            need_summary, missing = self.core.on_ae_recent(
                reply.rids, reply.known_count
            )
            if need_summary:
                self._count(
                    "ae_full_summaries_total", 1, "AE escalations to a full summary"
                )
                summary = await self.request_peer(target, PullRequest(()))
                if not isinstance(summary, AESummary):
                    return
                self.install_records(summary.entries)
                missing = self.core.missing(summary.rids)
            if missing:
                await self._pull_from(target, missing)

    async def _pull_from(self, target: int, rids: list[int]) -> None:
        reply = await self.request_peer(target, PullRequest(tuple(rids)))
        if isinstance(reply, RumorData):
            for rumor in reply.rumors:
                self._learn_rumor(rumor, make_hot=False)

    def _record_contact(self, pid: int, address: str, *, ok: bool) -> None:
        """Turn one RPC outcome into liveness evidence for the member
        table — but only while the entry still points at the address that
        was contacted.  A JOIN/REJOIN rumor may re-address the peer while
        an RPC is in flight; the late outcome is evidence about the *old*
        incarnation and must not flip the freshly healed entry."""
        entry = self.peer.directory.get(pid)
        if entry is None or entry.address != address:
            return
        if ok:
            if self.membership.seen_alive(pid):
                self.obs.emit("peer_rejoined", peer=self.peer_id, target=pid)
            return
        self._count("contact_failures_total", 1, "failed peer contacts")
        went_offline, failures = self.membership.contact_failed(pid, self.clock())
        if went_offline:
            self.obs.emit(
                "peer_offline", peer=self.peer_id, target=pid, failures=failures
            )

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    async def _serve(self, body: bytes) -> bytes:
        try:
            msg = codec.decode(body)
        except CodecError as exc:
            return codec.encode(ErrorReply(f"bad frame: {exc}"))
        try:
            reply = await self._dispatch(msg)
            frame = codec.encode(reply)
        except Exception as exc:  # noqa: BLE001 - never kill the server loop
            # Includes a reply that does not fit its wire fields
            # (CodecError): the caller gets an answer, not a dead socket.
            reply = ErrorReply(f"{type(exc).__name__}: {exc}")
            frame = codec.encode(reply)
        self._account_gossip(reply, frame)
        return frame

    def _handlers(self) -> dict[type, Callable[[Any], Any]]:
        """The node's own message class -> handler table (gossip, search,
        stats, publish); planes add theirs through :meth:`add_handler`."""
        return {
            RumorPush: self._on_rumor_push,
            RumorData: self._on_rumor_data,
            AERequest: self._on_ae_request,
            PullRequest: self._on_pull,
            JoinRequest: self._on_join,
            RankedQuery: self._on_ranked_query,
            ExhaustiveQuery: self._on_exhaustive_query,
            SnippetFetch: self._on_snippet_fetch,
            StatsRequest: lambda msg: self.stats_response(),
            PublishRequest: self._on_publish,
        }

    async def _dispatch(self, msg: object) -> object:
        handler = self._dispatch_table.get(type(msg))
        if handler is None:
            return ErrorReply(f"unexpected message {type(msg).__name__}")
        reply = handler(msg)
        if asyncio.iscoroutine(reply):
            reply = await reply
        return reply

    def _on_rumor_data(self, msg: RumorData) -> AENothing:
        for rumor in msg.rumors:
            self._learn_rumor(rumor, make_hot=True)
        return AENothing()

    def _on_ae_request(self, msg: AERequest) -> object:
        offer = self.core.on_ae_request(msg.digest)
        if offer is None:
            return AENothing()
        recent, count = offer
        return AERecent(tuple(recent), count)

    def _on_ranked_query(self, msg: RankedQuery) -> RankedResponse:
        docs = score_local_documents(
            self.peer.store.index, list(msg.terms), dict(msg.ipf), msg.k
        )
        return RankedResponse(tuple((d.doc_id, d.score) for d in docs))

    def _on_exhaustive_query(self, msg: ExhaustiveQuery) -> ExhaustiveResponse:
        return ExhaustiveResponse(
            tuple(exhaustive_local_match(self.peer.store.index, list(msg.terms)))
        )

    def _on_snippet_fetch(self, msg: SnippetFetch) -> SnippetResponse:
        try:
            doc = self.peer.store.get(msg.doc_id)
        except KeyError:
            return SnippetResponse(False, msg.doc_id, "")
        self.analytics.record_access(doc.doc_id)
        return SnippetResponse(True, doc.doc_id, doc.text)

    def _on_publish(self, msg: PublishRequest) -> PublishAck:
        # The fleet control plane: a remotely injected document takes
        # the exact local-publish path (WAL when durable, index, filter,
        # chunks), so the ack means "indexed and journaled"; the next
        # gossip round announces it.
        if msg.doc_id in self.peer.store:
            return PublishAck(False, msg.doc_id, self.peer.store.filter_version)
        self.publish(Document(msg.doc_id, msg.text))
        self._count(
            "remote_publishes_total", 1, "documents injected via PublishRequest"
        )
        return PublishAck(True, msg.doc_id, self.peer.store.filter_version)

    def _on_rumor_push(self, msg: RumorPush) -> RumorReply:
        needed, piggyback = self.core.on_rumor_push(msg.rids)
        return RumorReply(tuple(needed), tuple(piggyback))

    def _on_pull(self, msg: PullRequest) -> object:
        if not msg.rids:  # empty pull = full directory summary request
            records = tuple(self.record_of(pid) for pid in sorted(self.peer.directory))
            return AESummary(records, tuple(sorted(self.core.known)))
        have = tuple(
            self.rumors[rid] for rid in msg.rids if rid in self.rumors
        )
        return RumorData(have)

    def _on_join(self, msg: JoinRequest) -> JoinSnapshot:
        rumor = WireRumor(
            msg.rid,
            RumorKind.JOIN,
            msg.record.peer_id,
            msg.created_at,
            codec.encode_member_payload(msg.record, msg.bloom),
        )
        self._learn_rumor(rumor, make_hot=True)
        return self.snapshot()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def replica_of(self, peer_id: int) -> BloomFilter | None:
        """Our replicated copy of ``peer_id``'s Bloom filter."""
        if peer_id == self.peer_id:
            return self.peer.store.bloom_filter
        entry = self.peer.directory.get(peer_id)
        return entry.bloom_filter if entry is not None else None

    def __repr__(self) -> str:
        return (
            f"NetworkPeer(id={self.peer_id}, addr={self.address}, "
            f"docs={len(self.peer.store)}, members={len(self.peer.directory)}, "
            f"known={len(self.core.known)})"
        )
