"""Transports: how frame bodies move between peers.

Everything above this layer is request/response: a peer sends one encoded
frame and awaits exactly one frame in reply (the gossip exchanges of
Section 3 map onto such pairs — push/reply, digest/summary, pull/data).
A :class:`Transport` therefore needs only two verbs: ``serve`` (register
an async handler at an address) and ``request`` (send bytes, get bytes).

Two implementations:

* :class:`TcpTransport` — real asyncio sockets.  Frames are 4-byte
  big-endian length prefixes + body, with a max-frame guard against
  malformed peers.  Outbound connections are cached per address and
  reused across requests (one in-flight request per connection, as the
  protocol is strictly request/response).  Connection-level failures are
  retried with exponential backoff + jitter under an overall per-request
  deadline (framing violations are never retried — retrying a protocol
  error cannot help).
* :class:`LoopbackTransport` — an in-memory :class:`LoopbackNetwork` with
  injectable latency, for deterministic tests of the full node logic
  without sockets.

For fault injection on top of either transport (partitions, crash
windows, per-edge loss and jitter) see :mod:`repro.net.chaos`.
Callers that fan RPCs out (search, content retrieval) share a
:class:`PeerGate` of per-peer in-flight caps.

Every transport is observable: after :meth:`Transport.bind_registry`, an
endpoint records bytes in/out, request counts, retries/failures, backoff
delay, and a per-request latency histogram into a
:class:`~repro.obs.Registry` (component ``transport``), so a live node's
traffic is measurable against the Table 2 byte model.
"""

from __future__ import annotations

import asyncio
import struct
import time
from abc import ABC, abstractmethod
from collections.abc import Awaitable, Callable

import numpy as np

from repro.constants import NetConfig
from repro.obs import Registry

__all__ = [
    "TransportError",
    "RetryableTransportError",
    "PeerGate",
    "Handler",
    "Transport",
    "TcpTransport",
    "LoopbackNetwork",
    "LoopbackTransport",
]

#: An async server callback: one request frame body in, one reply out.
Handler = Callable[[bytes], Awaitable[bytes]]

_LEN = struct.Struct(">I")


class TransportError(ConnectionError):
    """A peer could not be reached, timed out, or broke framing rules."""


class RetryableTransportError(TransportError):
    """A transient failure (refused/reset/timeout) worth retrying."""


class PeerGate:
    """Per-peer in-flight RPC caps, shared across all callers.

    ``slot(key)`` returns that peer's semaphore (created on first use),
    usable as ``async with gate.slot(key): ...`` — so the cap holds
    community-wide no matter how many concurrent searches or fetches fan
    out.  Keys are peer ids (an address-keyed caller hashes to one).
    """

    def __init__(self, per_peer_inflight: int) -> None:
        if per_peer_inflight < 1:
            raise ValueError("per_peer_inflight must be >= 1")
        self.per_peer_inflight = per_peer_inflight
        self._sems: dict[int, asyncio.Semaphore] = {}

    def slot(self, pid: int) -> asyncio.Semaphore:
        """The in-flight cap for RPCs targeting ``pid``."""
        sem = self._sems.get(pid)
        if sem is None:
            sem = self._sems[pid] = asyncio.Semaphore(self.per_peer_inflight)
        return sem


class Transport(ABC):
    """Abstract request/response frame carrier."""

    #: observability home; set by :meth:`bind_registry`, else silent.
    registry: Registry | None = None

    def bind_registry(self, registry: Registry) -> None:
        """Record this endpoint's traffic into ``registry``.

        Idempotent and safe to call before or after :meth:`serve`;
        decorating transports (see :class:`~repro.net.chaos.
        FaultyTransport`) override this to bind their inner transport
        too, so one call instruments the whole stack.
        """
        self.registry = registry
        # Resolve the hot-path instruments once; per-request accounting
        # must not pay a registry lookup per increment.
        self._c_requests = registry.counter(
            "transport", "requests_total", "client RPCs issued"
        )
        self._c_served = registry.counter(
            "transport", "served_requests_total", "inbound RPCs handled"
        )
        self._c_bytes_sent = registry.counter(
            "transport", "bytes_sent_total", "frame-body bytes written"
        )
        self._c_bytes_recv = registry.counter(
            "transport", "bytes_recv_total", "frame-body bytes read"
        )
        self._h_latency = registry.histogram(
            "transport",
            "request_latency_seconds",
            "client-observed per-request latency",
        )

    # -- shared accounting helpers (no-ops until a registry is bound) -------

    def _count_sent(self, nbytes: int) -> None:
        if self.registry is not None:
            self._c_requests.inc()
            self._c_bytes_sent.inc(nbytes)

    def _count_reply(self, nbytes: int, latency_s: float) -> None:
        if self.registry is not None:
            self._c_bytes_recv.inc(nbytes)
            self._h_latency.observe(latency_s)

    def _count_served(self, in_bytes: int, out_bytes: int) -> None:
        if self.registry is not None:
            self._c_served.inc()
            self._c_bytes_recv.inc(in_bytes)
            self._c_bytes_sent.inc(out_bytes)

    @abstractmethod
    async def serve(self, address: str, handler: Handler) -> str:
        """Start serving ``handler`` at ``address``; return the bound
        address (which may differ, e.g. an ephemeral TCP port)."""

    @abstractmethod
    async def request(self, address: str, body: bytes) -> bytes:
        """Send one frame to ``address`` and await the reply frame.

        Raises :class:`TransportError` on connection failure, timeout, or
        framing violation.
        """

    @abstractmethod
    async def close(self) -> None:
        """Stop serving and release all connections."""


# ---------------------------------------------------------------------------
# real sockets
# ---------------------------------------------------------------------------


async def _read_frame(reader: asyncio.StreamReader, max_frame: int) -> bytes:
    """Read one length-prefixed frame; raises on EOF or oversize."""
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > max_frame:
        raise TransportError(f"frame of {length} bytes exceeds max {max_frame}")
    return await reader.readexactly(length)


def _write_frame(writer: asyncio.StreamWriter, body: bytes) -> None:
    """Queue one length-prefixed frame for writing."""
    writer.write(_LEN.pack(len(body)) + body)


class TcpTransport(Transport):
    """Asyncio TCP transport with a per-peer connection cache.

    ``seed`` fixes the retry-jitter stream for reproducible tests; the
    default is nondeterministic jitter, which is what a deployment wants.
    """

    def __init__(
        self, config: NetConfig | None = None, *, seed: int | None = None
    ) -> None:
        self.config = config or NetConfig()
        self._server: asyncio.AbstractServer | None = None
        self._handler: Handler | None = None
        self._client_tasks: set[asyncio.Task] = set()
        self._rng = np.random.default_rng(seed)
        #: requests that needed at least one retry / that exhausted retries.
        self.retried_requests = 0
        self.failed_requests = 0
        #: address -> (reader, writer, lock); one in-flight request each.
        self._conns: dict[
            str, tuple[asyncio.StreamReader, asyncio.StreamWriter, asyncio.Lock]
        ] = {}

    @staticmethod
    def _split(address: str) -> tuple[str, int]:
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise TransportError(f"bad address {address!r}; want host:port")
        return host, int(port)

    async def serve(self, address: str, handler: Handler) -> str:
        """Bind a TCP server at ``host:port`` (port 0 picks an ephemeral
        one) and return the actual ``host:port`` bound."""
        host, port = self._split(address)
        self._handler = handler
        self._server = await asyncio.start_server(self._on_client, host, port)
        bound_port = self._server.sockets[0].getsockname()[1]
        return f"{host}:{bound_port}"

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve request/response pairs on one inbound connection."""
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                body = await _read_frame(reader, self.config.max_frame_bytes)
                assert self._handler is not None
                reply = await self._handler(body)
                _write_frame(writer, reply)
                await writer.drain()
                self._count_served(len(body), len(reply))
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionError,
            TransportError,
        ):
            pass  # client went away, server shut down, or framing broke
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            writer.close()

    async def _connection(
        self, address: str
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, asyncio.Lock]:
        conn = self._conns.get(address)
        if conn is not None and not conn[1].is_closing():
            return conn
        host, port = self._split(address)
        try:
            async with asyncio.timeout(self.config.connect_timeout_s):
                reader, writer = await asyncio.open_connection(host, port)
        except (OSError, TimeoutError) as exc:
            raise RetryableTransportError(
                f"cannot connect to {address}: {exc}"
            ) from exc
        # Concurrent first requests to one address each opened a socket
        # while we awaited ours: keep the one already cached, close ours.
        cached = self._conns.get(address)
        if cached is not None and not cached[1].is_closing():
            writer.close()
            return cached
        conn = (reader, writer, asyncio.Lock())
        self._conns[address] = conn
        return conn

    async def request(self, address: str, body: bytes) -> bytes:
        """One RPC to ``address``, retrying transient failures.

        Connection-level failures (refused, reset, timed out) are retried
        up to ``config.request_retries`` times with exponential backoff and
        jitter, all under ``config.request_deadline_s``.  Framing
        violations raise immediately.  The request may be *delivered* more
        than once (the failure could have hit the reply); callers needing
        exactly-once must make their handlers idempotent — every gossip
        message of Section 3 already is.
        """
        cfg = self.config
        reg = self.registry
        started = time.monotonic()
        deadline = started + cfg.request_deadline_s
        attempt = 0
        self._count_sent(0)  # the request itself; bytes counted per attempt
        while True:
            try:
                reply = await self._attempt(address, body)
                self._count_reply(len(reply), time.monotonic() - started)
                return reply
            except RetryableTransportError:
                attempt += 1
                if attempt > cfg.request_retries:
                    self._count_failed(reg)
                    raise
                delay = min(
                    cfg.retry_backoff_s * 2.0 ** (attempt - 1),
                    cfg.retry_backoff_max_s,
                )
                delay *= 1.0 + cfg.retry_jitter_frac * float(self._rng.random())
                if time.monotonic() + delay > deadline:
                    self._count_failed(reg)
                    raise
                self.retried_requests += 1
                if reg is not None:
                    reg.counter(
                        "transport", "retries_total", "RPC attempts retried"
                    ).inc()
                    reg.counter(
                        "transport",
                        "backoff_seconds_total",
                        "cumulative retry backoff delay",
                    ).inc(delay)
                    reg.emit(
                        "retry_scheduled",
                        address=address,
                        attempt=attempt,
                        delay_s=round(delay, 6),
                    )
                await asyncio.sleep(delay)

    def _count_failed(self, reg: Registry | None) -> None:
        self.failed_requests += 1
        if reg is not None:
            reg.counter(
                "transport", "failed_requests_total", "RPCs that exhausted retries"
            ).inc()

    async def _attempt(self, address: str, body: bytes) -> bytes:
        """One try of one RPC over the cached connection to ``address``."""
        conn = await self._connection(address)
        reader, writer, lock = conn
        async with lock:
            # A connection is reusable only once this request's reply has
            # been read off it.  Any other exit — framing violated, socket
            # error, timeout, or the caller cancelled between write and
            # reply — leaves it unusable: the reply would be read by the
            # next request to this peer.
            replied = False
            try:
                _write_frame(writer, body)
                await writer.drain()
                if self.registry is not None:
                    self._c_bytes_sent.inc(len(body))
                async with asyncio.timeout(self.config.request_timeout_s):
                    reply = await _read_frame(reader, self.config.max_frame_bytes)
                replied = True
                return reply
            except TransportError:
                raise  # framing violated: retrying a protocol error cannot help
            except (OSError, TimeoutError, asyncio.IncompleteReadError) as exc:
                raise RetryableTransportError(
                    f"request to {address} failed: {exc}"
                ) from exc
            finally:
                if not replied:
                    self._drop(address, conn)

    def _drop(self, address: str, conn: tuple) -> None:
        """Close ``conn``; forget it unless the cache has moved on."""
        conn[1].close()
        if self._conns.get(address) is conn:
            del self._conns[address]

    async def close(self) -> None:
        """Close the server, inbound handlers, and cached connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        self._client_tasks.clear()
        for address, conn in list(self._conns.items()):
            self._drop(address, conn)


# ---------------------------------------------------------------------------
# deterministic in-memory network
# ---------------------------------------------------------------------------


class LoopbackNetwork:
    """Shared in-memory fabric for :class:`LoopbackTransport` endpoints.

    ``latency_s`` is applied on each direction of every request; seeded
    drops and the other faults come from wrapping its endpoints in
    :class:`~repro.net.chaos.FaultyTransport`.
    """

    def __init__(self, latency_s: float = 0.0) -> None:
        self.latency_s = latency_s
        self.handlers: dict[str, Handler] = {}
        #: total frame bodies carried, for tests that audit traffic.
        self.frames_carried = 0
        self.bytes_carried = 0

    def transport(self) -> LoopbackTransport:
        """Create a new endpoint attached to this fabric."""
        return LoopbackTransport(self)

    async def deliver(self, address: str, body: bytes) -> bytes:
        """Route one request to the handler serving ``address``."""
        handler = self.handlers.get(address)
        if handler is None:
            raise TransportError(f"no peer serving at {address}")
        if self.latency_s > 0.0:
            await asyncio.sleep(self.latency_s)
        self.frames_carried += 1
        self.bytes_carried += len(body)
        reply = await handler(body)
        if self.latency_s > 0.0:
            await asyncio.sleep(self.latency_s)
        self.frames_carried += 1
        self.bytes_carried += len(reply)
        return reply


class LoopbackTransport(Transport):
    """One endpoint of a :class:`LoopbackNetwork`."""

    def __init__(self, network: LoopbackNetwork) -> None:
        self.network = network
        self._addresses: list[str] = []

    async def serve(self, address: str, handler: Handler) -> str:
        """Register ``handler`` at ``address`` on the shared fabric."""
        if address in self.network.handlers:
            raise TransportError(f"address {address} already in use")

        async def accounted(body: bytes) -> bytes:
            reply = await handler(body)
            self._count_served(len(body), len(reply))
            return reply

        self.network.handlers[address] = accounted
        self._addresses.append(address)
        return address

    async def request(self, address: str, body: bytes) -> bytes:
        """Route the request through the fabric (latency applied)."""
        self._count_sent(len(body))
        started = time.monotonic()
        reply = await self.network.deliver(address, body)
        self._count_reply(len(reply), time.monotonic() - started)
        return reply

    async def close(self) -> None:
        """Deregister this endpoint's addresses."""
        for address in self._addresses:
            self.network.handlers.pop(address, None)
        self._addresses.clear()
