"""Transports carry frames faithfully: loopback determinism, real TCP."""

import asyncio

import pytest

from repro.constants import NetConfig
from repro.net.chaos import EdgeFaults, FaultPlan, FaultyTransport
from repro.net.transport import (
    LoopbackNetwork,
    TcpTransport,
    TransportError,
)


async def _echo(body: bytes) -> bytes:
    return b"echo:" + body


# -- loopback ---------------------------------------------------------------


def test_loopback_request_response():
    async def scenario():
        net = LoopbackNetwork()
        server = net.transport()
        await server.serve("a:1", _echo)
        client = net.transport()
        reply = await client.request("a:1", b"hello")
        assert reply == b"echo:hello"
        assert net.frames_carried == 2
        assert net.bytes_carried == len(b"hello") + len(b"echo:hello")

    asyncio.run(scenario())


def test_loopback_unknown_address():
    async def scenario():
        net = LoopbackNetwork()
        with pytest.raises(TransportError, match="no peer serving"):
            await net.transport().request("nowhere:1", b"x")

    asyncio.run(scenario())


def test_loopback_duplicate_address_rejected():
    async def scenario():
        net = LoopbackNetwork()
        await net.transport().serve("a:1", _echo)
        with pytest.raises(TransportError, match="already in use"):
            await net.transport().serve("a:1", _echo)

    asyncio.run(scenario())


def test_loopback_injected_drops_are_deterministic():
    async def drops_with(seed: int) -> list[bool]:
        net = LoopbackNetwork()
        plan = FaultPlan(seed=seed, default=EdgeFaults(drop_rate=0.5))
        t = FaultyTransport(net.transport(), plan)
        await t.serve("a:1", _echo)
        outcomes = []
        for _ in range(20):
            try:
                await t.request("a:1", b"x")
                outcomes.append(True)
            except TransportError:
                outcomes.append(False)
        return outcomes

    first = asyncio.run(drops_with(7))
    second = asyncio.run(drops_with(7))
    assert first == second
    assert True in first and False in first


def test_loopback_close_deregisters():
    async def scenario():
        net = LoopbackNetwork()
        t = net.transport()
        await t.serve("a:1", _echo)
        await t.close()
        with pytest.raises(TransportError, match="no peer serving"):
            await net.transport().request("a:1", b"x")

    asyncio.run(scenario())


# -- TCP --------------------------------------------------------------------


def test_tcp_request_response_and_connection_reuse():
    async def scenario():
        server = TcpTransport()
        address = await server.serve("127.0.0.1:0", _echo)
        assert address != "127.0.0.1:0"  # an ephemeral port was bound
        client = TcpTransport()
        try:
            assert await client.request(address, b"one") == b"echo:one"
            conn_after_first = client._conns[address]
            assert await client.request(address, b"two") == b"echo:two"
            assert client._conns[address] is conn_after_first
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


def test_tcp_concurrent_requests_share_one_connection():
    # Every first request awaits its own connect; the losers of that race
    # must close their sockets and use the cached one, not carry their
    # request over a socket orphaned beside it.
    async def scenario():
        carriers = set()  # one server task per inbound connection

        async def handler(body: bytes) -> bytes:
            carriers.add(asyncio.current_task())
            return await _echo(body)

        server = TcpTransport()
        address = await server.serve("127.0.0.1:0", handler)
        client = TcpTransport()
        try:
            replies = await asyncio.gather(
                *(client.request(address, b"%d" % i) for i in range(8))
            )
            assert sorted(replies) == sorted(b"echo:%d" % i for i in range(8))
            assert len(client._conns) == 1
            assert len(carriers) == 1
            for _ in range(100):  # the losers' handlers see EOF and exit
                if len(server._client_tasks) <= 1:
                    break
                await asyncio.sleep(0.01)
            assert len(server._client_tasks) == 1
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


def test_tcp_connect_failure_raises():
    async def scenario():
        client = TcpTransport(NetConfig(connect_timeout_s=0.5))
        # A port nothing listens on: bind one, close it, then dial it.
        probe = TcpTransport()
        address = await probe.serve("127.0.0.1:0", _echo)
        await probe.close()
        with pytest.raises(TransportError, match="cannot connect"):
            await client.request(address, b"x")
        await client.close()

    asyncio.run(scenario())


def test_tcp_oversized_reply_rejected_by_client():
    async def big(body: bytes) -> bytes:
        return b"y" * 4096

    async def scenario():
        server = TcpTransport()
        address = await server.serve("127.0.0.1:0", big)
        client = TcpTransport(NetConfig(max_frame_bytes=1024))
        try:
            with pytest.raises(TransportError, match="exceeds max"):
                await client.request(address, b"x")
            assert address not in client._conns
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


def test_tcp_bad_address_rejected():
    async def scenario():
        with pytest.raises(TransportError, match="want host:port"):
            await TcpTransport().request("no-port-here", b"x")

    asyncio.run(scenario())


# -- retry / backoff --------------------------------------------------------

_FAST_RETRY = NetConfig(
    request_retries=2,
    retry_backoff_s=0.01,
    retry_backoff_max_s=0.02,
    retry_jitter_frac=0.0,
)


def test_tcp_retry_recovers_from_transient_connection_error():
    calls = []

    async def flaky(body: bytes) -> bytes:
        calls.append(body)
        if len(calls) == 1:
            raise ConnectionResetError("simulated mid-stream reset")
        return b"ok:" + body

    async def scenario():
        server = TcpTransport()
        address = await server.serve("127.0.0.1:0", flaky)
        client = TcpTransport(_FAST_RETRY)
        try:
            assert await client.request(address, b"x") == b"ok:x"
            assert len(calls) == 2
            assert client.retried_requests == 1
            assert client.failed_requests == 0
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


def test_tcp_retries_exhaust_then_fail():
    calls = []

    async def always_resets(body: bytes) -> bytes:
        calls.append(body)
        raise ConnectionResetError("still down")

    async def scenario():
        server = TcpTransport()
        address = await server.serve("127.0.0.1:0", always_resets)
        client = TcpTransport(_FAST_RETRY)
        try:
            with pytest.raises(TransportError):
                await client.request(address, b"x")
            assert len(calls) == 1 + _FAST_RETRY.request_retries
            assert client.failed_requests == 1
            assert client.retried_requests == _FAST_RETRY.request_retries
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


def test_tcp_framing_violation_is_not_retried():
    async def big(body: bytes) -> bytes:
        return b"y" * 4096

    async def scenario():
        server = TcpTransport()
        address = await server.serve("127.0.0.1:0", big)
        client = TcpTransport(
            NetConfig(
                max_frame_bytes=1024,
                request_retries=5,
                retry_backoff_s=0.01,
                retry_jitter_frac=0.0,
            )
        )
        try:
            with pytest.raises(TransportError, match="exceeds max"):
                await client.request(address, b"x")
            # A protocol violation will not heal with time: no retries.
            assert client.retried_requests == 0
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


def test_tcp_deadline_cuts_retries_short():
    async def scenario():
        client = TcpTransport(
            NetConfig(
                connect_timeout_s=0.2,
                request_retries=50,
                retry_backoff_s=5.0,
                retry_backoff_max_s=5.0,
                retry_jitter_frac=0.0,
                request_deadline_s=0.5,
            )
        )
        probe = TcpTransport()
        address = await probe.serve("127.0.0.1:0", _echo)
        await probe.close()
        try:
            with pytest.raises(TransportError, match="cannot connect"):
                await client.request(address, b"x")
            # The 5 s backoff would overshoot the 0.5 s deadline, so the
            # request fails after the first attempt instead of sleeping.
            assert client.retried_requests == 0
            assert client.failed_requests == 1
        finally:
            await client.close()

    asyncio.run(scenario())


def test_tcp_cancelled_request_does_not_leave_its_reply_for_the_next():
    """A request abandoned between write and reply (a caller's deadline)
    must take its connection with it: the late reply would otherwise be
    read as the answer to the next request to that peer."""

    async def handler(body: bytes) -> bytes:
        if body == b"slow":
            await asyncio.sleep(0.2)
        return b"reply-to-" + body

    async def scenario():
        server = TcpTransport()
        address = await server.serve("127.0.0.1:0", handler)
        client = TcpTransport()
        try:
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.request(address, b"slow"), 0.05)
            assert address not in client._conns
            assert await client.request(address, b"fast") == b"reply-to-fast"
            assert client.retried_requests == 0
            # The same under the deadline form the search client uses.
            with pytest.raises(TimeoutError):
                async with asyncio.timeout(0.05):
                    await client.request(address, b"slow")
            assert await client.request(address, b"fast") == b"reply-to-fast"
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


def test_tcp_reply_timeout_drops_the_connection_and_retries():
    async def handler(body: bytes) -> bytes:
        await asyncio.sleep(0.3)
        return b"late"

    async def scenario():
        server = TcpTransport()
        address = await server.serve("127.0.0.1:0", handler)
        client = TcpTransport(
            NetConfig(request_timeout_s=0.05, request_retries=1, retry_backoff_s=0.01)
        )
        try:
            with pytest.raises(TransportError, match="failed"):
                await client.request(address, b"x")
            assert client.retried_requests == 1
            assert client.failed_requests == 1
            assert address not in client._conns
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())
