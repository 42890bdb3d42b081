"""Persistent queries over the wire (paper Section 5.1).

The rows and every delivery decision live in the sans-IO
:class:`~repro.core.persistent.StandingQueries`, which the in-process
community also drives; this module is its I/O.  A remote client posts a
standing conjunctive query to any serving node (``SubscribeRequest``),
and that node watches its *replicated directory* — every gossip-applied
filter update or member (re)join marks the originating peer dirty, a
background worker probes dirty peers whose filters may match a
subscription (exhaustive RPC), fetches fresh matching documents, and
pushes them to the subscriber's notify address as ``Notify`` frames.
Gossip is the change feed, so a document published on *any* member
reaches the subscriber without the publisher knowing the subscription
exists.

Delivery semantics:

* **at-least-once upcalls, deduplicated by doc id** — a doc id enters a
  subscription's ``delivered`` set only after the subscriber acks its
  ``Notify``; a failed fetch or notify is retried once per gossip round
  until it succeeds;
* **baseline at subscribe** — documents already searchable when the
  subscription is posted are marked delivered silently, so upcalls mean
  "published after you subscribed"; peers marked dirty while a baseline's
  RPCs are in flight are probed again once the row is registered;
* **durable across restarts** — the :class:`Subscription` rows (with
  their delivered sets) are checkpointed in :mod:`repro.store`'s atomic
  CRC container (``PPSUB001``); a restarted node reloads them and
  probes the whole directory once
  (:meth:`SubscriptionManager.mark_all_dirty`), catching documents
  published while it was down.

:class:`SubscriptionClient` is the other end: it serves a notify
address, posts/cancels subscriptions, and routes ``Notify`` frames to
per-subscription callbacks.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.constants import NetConfig
from repro.core.persistent import StandingQueries, Subscription
from repro.core.search import exhaustive_local_match
from repro.gossip.wire import (
    AENothing,
    Notify,
    SubscribeAck,
    SubscribeRequest,
    Unsubscribe,
)
from repro.net import codec
from repro.net.codec import (
    CodecError,
    ErrorReply,
    ExhaustiveQuery,
    ExhaustiveResponse,
    SnippetFetch,
    SnippetResponse,
)
from repro.net.transport import TcpTransport, Transport, TransportError
from repro.obs import Registry, global_registry
from repro.store.snapshot import atomic_write_bytes, decode_container, encode_container
from repro.text.document import Document

if TYPE_CHECKING:
    from repro.net.node import NetworkPeer

__all__ = ["Subscription", "SubscriptionClient", "SubscriptionManager"]

#: magic of the subscription checkpoint file (``subscriptions.ckpt``).
_CHECKPOINT_MAGIC = b"PPSUB001"


class SubscriptionManager:
    """Server half: registration, change detection, upcall delivery.

    Attached to every :class:`~repro.net.node.NetworkPeer`, whose
    dispatch it registers ``SubscribeRequest``/``Unsubscribe`` on; inert
    (no task, no RPCs) until the first subscription arrives.
    """

    def __init__(
        self, node: NetworkPeer, checkpoint_path: str | Path | None = None
    ) -> None:
        self.node = node
        self.obs = node.obs
        self._path = Path(checkpoint_path) if checkpoint_path is not None else None
        self.queries = StandingQueries()
        self._dirty: set[int] = set()
        #: per subscribe awaiting its baseline RPCs, the peers marked dirty
        #: meanwhile (marked again once its row is registered).
        self._baseline_marks: dict[int, set[int]] = {}
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self.restored_subscriptions = 0
        self._g_active = self.obs.gauge(
            "serve", "subscriptions_active", "standing queries registered"
        )
        self._c_notifies = self.obs.counter(
            "serve", "notifies_sent_total", "acknowledged upcalls delivered"
        )
        self._c_notify_failures = self.obs.counter(
            "serve",
            "notify_failures_total",
            "upcalls that failed or went unacknowledged (retried)",
        )
        self._c_probes = self.obs.counter(
            "serve", "subscription_probes_total", "dirty-peer probes run"
        )
        self._restore()
        node.add_handler(SubscribeRequest, self.handle_subscribe)
        node.add_handler(Unsubscribe, self.handle_unsubscribe)
        node.add_round_hook(self._retry_round)

    @property
    def subscriptions(self) -> dict[int, Subscription]:
        """The registered rows by id."""
        return self.queries.rows

    # -- persistence ---------------------------------------------------------

    def _restore(self) -> None:
        """Reload the checkpointed rows; a missing, torn or corrupt file,
        or one written by another peer id, is a cold start."""
        if self._path is None:
            return
        try:
            payload = decode_container(_CHECKPOINT_MAGIC, self._path.read_bytes())
            if int(payload["peer_id"]) != self.node.peer_id:
                return
            self.queries = StandingQueries.from_payload(payload)
        except (OSError, ValueError, KeyError, TypeError):
            return
        self.restored_subscriptions = len(self.queries)
        self._g_active.set(len(self.queries))
        if self.restored_subscriptions:
            self.obs.emit(
                "subscriptions_restored",
                peer=self.node.peer_id,
                count=self.restored_subscriptions,
            )

    def checkpoint(self) -> int:
        """Persist registered subscriptions; returns bytes written.

        A no-op without a checkpoint path; write failures are counted,
        never raised — a full disk must not stop serving.
        """
        if self._path is None:
            return 0
        payload = {
            "peer_id": self.node.peer_id,
            "written_at": time.time(),
            **self.queries.to_payload(),
        }
        blob = encode_container(_CHECKPOINT_MAGIC, payload)
        try:
            atomic_write_bytes(self._path, blob, self.node.store_config.fsync)
            return len(blob)
        except OSError:
            self.obs.counter(
                "store",
                "subscription_checkpoint_errors_total",
                "failed subscription checkpoint writes",
            ).inc()
            return 0

    # -- registration (server dispatch) --------------------------------------

    async def handle_subscribe(self, msg: SubscribeRequest) -> SubscribeAck:
        """Register (or reattach) a standing query; baseline its view."""
        try:
            sub, reattached = self.queries.post(
                self.node.analyzer.analyze_query(" ".join(msg.terms)),
                sub_id=msg.sub_id,
                notify_address=msg.notify_address,
                created_at=msg.created_at,
            )
        except ValueError as exc:
            return SubscribeAck(0, False, str(exc))
        if reattached:
            # After a client restart: the upcall address is refreshed and
            # the delivered set (the dedup) survives the reconnect.
            self.checkpoint()
            return SubscribeAck(sub.sub_id, True, "reattached")
        marks: set[int] = set()
        self._baseline_marks[sub.sub_id] = marks
        try:
            current = [
                doc_id
                for pid in self.node.peer.candidate_peers(list(sub.terms))
                for doc_id in await self._matching_ids(pid, sub.terms)
            ]
        finally:
            self._baseline_marks.pop(sub.sub_id, None)
        self.queries.baseline(sub, current)
        for pid in marks:
            self.mark_dirty(pid)
        self._g_active.set(len(self.queries))
        self._ensure_task()
        self.checkpoint()
        self.obs.emit(
            "subscription_posted",
            peer=self.node.peer_id,
            sub=sub.sub_id,
            terms=list(sub.terms),
        )
        return SubscribeAck(sub.sub_id, True, "subscribed")

    def handle_unsubscribe(self, msg: Unsubscribe) -> SubscribeAck:
        """Deregister a standing query (idempotent)."""
        try:
            self.queries.cancel(msg.sub_id)
        except KeyError:
            return SubscribeAck(msg.sub_id, False, "unknown subscription")
        self._g_active.set(len(self.queries))
        self.checkpoint()
        return SubscribeAck(msg.sub_id, True, "unsubscribed")

    # -- change detection ----------------------------------------------------

    def mark_dirty(self, pid: int) -> None:
        """Note that ``pid``'s content may have changed (gossip applied a
        filter update or join, or we published locally).  Cheap no-op
        while nothing is subscribed or being baselined."""
        if self._baseline_marks:
            for marks in self._baseline_marks.values():
                marks.add(pid)
        if not self.queries.rows:
            return
        self._dirty.add(pid)
        self._wake.set()
        self._ensure_task()

    def mark_all_dirty(self) -> None:
        """Probe the whole directory (warm-restart catch-up: rumors that
        arrived and were checkpointed before the crash never re-apply, so
        their publishes would otherwise be missed)."""
        if not self.queries.rows:
            return
        self._dirty.update(self.node.peer.directory)
        self._dirty.add(self.node.peer_id)
        self._wake.set()
        self._ensure_task()

    async def _retry_round(self) -> None:
        """Round hook: wake the worker for peers whose fetch or notify
        failed, so a retry needs no fresh gossip (one per round)."""
        if self._dirty:
            self._wake.set()
            self._ensure_task()

    def _ensure_task(self) -> None:
        if self._task is not None and not self._task.done():
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # sync context; the next async touch starts the worker
        self._task = loop.create_task(self._worker())

    async def _worker(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            with contextlib.suppress(TransportError, CodecError):
                await self.drain()

    async def stop(self) -> None:
        """Cancel the worker and write a final checkpoint."""
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if self.queries:
            self.checkpoint()

    # -- probing & delivery --------------------------------------------------

    async def drain(self) -> int:
        """Probe every dirty peer now; returns upcalls delivered.

        The worker calls this on wakeup; tests call it directly for
        deterministic delivery without sleeping.
        """
        dirty, self._dirty = self._dirty, set()
        if not dirty or not self.queries:
            return 0
        fired = 0
        for pid in sorted(dirty):
            fired += await self._probe(pid)
        self.checkpoint()
        return fired

    async def _probe(self, pid: int) -> int:
        self._c_probes.inc()
        bf = self.node.replica_of(pid)
        if bf is None:
            return 0
        fired = 0
        for sub in self.queries.candidates(bf.contains_all):
            for doc_id in await self._matching_ids(pid, sub.terms):
                # Asked per id: an unsubscribe or another drain may have
                # raced any earlier await.
                if not self.queries.deliverable(sub, (doc_id,)):
                    continue
                doc = await self._fetch(pid, doc_id)
                if doc is None:
                    self._dirty.add(pid)  # fetch failed; retry next wake
                    continue
                if await self._notify(sub, pid, doc):
                    self.queries.acked(sub, doc_id)
                    fired += 1
                else:
                    self._dirty.add(pid)  # unacked; retry next wake
        return fired

    async def _matching_ids(self, pid: int, terms: tuple[str, ...]) -> list[str]:
        if pid == self.node.peer_id:
            return exhaustive_local_match(self.node.peer.store.index, list(terms))
        reply = await self.node.request_peer(pid, ExhaustiveQuery(terms))
        if isinstance(reply, ExhaustiveResponse):
            return list(reply.doc_ids)
        return []

    async def _fetch(self, pid: int, doc_id: str) -> Document | None:
        if pid == self.node.peer_id:
            try:
                return self.node.peer.store.get(doc_id)
            except KeyError:
                return None
        reply = await self.node.request_peer(pid, SnippetFetch(doc_id))
        if isinstance(reply, SnippetResponse) and reply.found:
            return Document(reply.doc_id, reply.text)
        return None

    async def _notify(self, sub: Subscription, origin: int, doc: Document) -> bool:
        msg = Notify(sub.sub_id, origin, doc.doc_id, doc.text)
        try:
            reply = await self.node.request_address(sub.notify_address, msg)
        except (TransportError, CodecError):
            reply = None
        if isinstance(reply, AENothing):
            self._c_notifies.inc()
            self.obs.emit(
                "notify_delivered",
                peer=self.node.peer_id,
                sub=sub.sub_id,
                doc=doc.doc_id,
                origin=origin,
            )
            return True
        self._c_notify_failures.inc()
        return False

    def __len__(self) -> int:
        return len(self.queries)


class SubscriptionClient:
    """Client half: posts standing queries and receives their upcalls.

    Owns a transport endpoint serving ``Notify`` frames; callbacks are
    keyed by subscription id and receive the raw :class:`~repro.gossip.
    wire.Notify` (sub id, origin peer, doc id, full text).  A ``Notify``
    for an unknown id is answered with an error, so the server keeps the
    document queued for redelivery.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        transport: Transport | None = None,
        net_config: NetConfig | None = None,
        registry: Registry | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self.transport = transport or TcpTransport(net_config or NetConfig())
        self.obs = registry if registry is not None else global_registry()
        self.transport.bind_registry(self.obs)
        self.address: str | None = None
        self._callbacks: dict[int, Callable[[Notify], None]] = {}

    async def start(self) -> str:
        """Bind the notify endpoint; returns its address."""
        self.address = await self.transport.serve(
            f"{self._host}:{self._port}", self._serve
        )
        return self.address

    async def _serve(self, body: bytes) -> bytes:
        try:
            msg = codec.decode(body)
        except CodecError as exc:
            return codec.encode(ErrorReply(f"bad frame: {exc}"))
        if isinstance(msg, Notify):
            callback = self._callbacks.get(msg.sub_id)
            if callback is None:
                return codec.encode(
                    ErrorReply(f"unknown subscription {msg.sub_id}")
                )
            callback(msg)
            self.obs.counter(
                "serve", "notifies_received_total", "upcalls received and acked"
            ).inc()
            return codec.encode(AENothing())
        return codec.encode(ErrorReply(f"unexpected message {type(msg).__name__}"))

    async def subscribe(
        self,
        server_address: str,
        query: str | Sequence[str],
        callback: Callable[[Notify], None],
        sub_id: int = 0,
    ) -> int:
        """Post a standing query at ``server_address``; returns its id.

        ``sub_id`` other than 0 reattaches to an existing subscription
        (after a client restart).  Raises :class:`TransportError` if the
        server declines.
        """
        if self.address is None:
            raise RuntimeError("call start() before subscribe()")
        terms = tuple(query.split()) if isinstance(query, str) else tuple(query)
        msg = SubscribeRequest(sub_id, terms, self.address, time.time())
        reply = await codec.call(self.transport, server_address, msg)
        if not isinstance(reply, SubscribeAck) or not reply.accepted:
            detail = getattr(reply, "message", type(reply).__name__)
            raise TransportError(f"subscribe declined: {detail}")
        self._callbacks[reply.sub_id] = callback
        return reply.sub_id

    async def unsubscribe(self, server_address: str, sub_id: int) -> bool:
        """Cancel a standing query; returns whether the server knew it."""
        self._callbacks.pop(sub_id, None)
        reply = await codec.call(self.transport, server_address, Unsubscribe(sub_id))
        return isinstance(reply, SubscribeAck) and reply.accepted

    async def close(self) -> None:
        """Stop serving upcalls and release the transport."""
        await self.transport.close()
