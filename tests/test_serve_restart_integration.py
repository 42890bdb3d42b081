"""Persistent queries across a real kill -9 (the ISSUE 6 acceptance run).

A serving node runs as a ``python -m repro.net`` subprocess with a
``--data-dir``; an in-test peer joins it over real TCP and publishes, an
in-test :class:`SubscriptionClient` posts a standing query at the server
and receives the upcall.  The server is then SIGKILLed mid-flight and
restarted on the same port and data dir: the subscription (and its
delivered set) must come back from the ``PPSUB001`` checkpoint, and a
document published on the *other* peer while serving resumes must reach
the very same client — with no duplicate delivery of the pre-crash
document.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.net.node import NetworkPeer
from repro.obs import Registry
from repro.serve.subscriptions import SubscriptionClient
from repro.text.document import Document

import pytest

pytestmark = pytest.mark.recovery


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class _Lines:
    """Collects a process's stdout lines from a reader thread."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.lines: list[str] = []
        self._thread = threading.Thread(
            target=self._drain, args=(proc,), daemon=True
        )
        self._thread.start()

    def _drain(self, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            self.lines.append(line.rstrip("\n"))

    def await_match(self, substr: str, deadline_s: float = 30.0) -> str:
        end = time.monotonic() + deadline_s
        while time.monotonic() < end:
            for line in list(self.lines):
                if substr in line:
                    return line
            time.sleep(0.05)
        raise AssertionError(
            f"never saw {substr!r} in output; got: {self.lines}"
        )


def _spawn_server(port: int, data_dir: Path) -> tuple[subprocess.Popen, _Lines]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.net",
            "--peer-id", "0", "--port", str(port),
            "--data-dir", str(data_dir),
            "--gossip-interval", "0.2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    return proc, _Lines(proc)


async def _publish_and_await_upcall(
    publisher: NetworkPeer,
    doc: Document,
    events: list,
    want: int,
    deadline_s: float = 30.0,
) -> None:
    """Publish on ``publisher`` and gossip until ``events`` reaches
    ``want`` entries (the server's worker notifies asynchronously)."""
    publisher.publish(doc)
    end = time.monotonic() + deadline_s
    while len(events) < want and time.monotonic() < end:
        try:
            await publisher.gossip_round()
        except ConnectionError:
            pass  # the server may still be coming up
        await asyncio.sleep(0.1)
    assert len(events) >= want, (
        f"expected {want} upcalls within {deadline_s}s, got "
        f"{[e.doc_id for e in events]}"
    )


def test_persistent_query_survives_server_sigkill(tmp_path):
    port = _free_port()
    server_addr = f"127.0.0.1:{port}"
    data_dir = tmp_path / "state"
    procs: list[subprocess.Popen] = []

    async def scenario():
        proc, lines = _spawn_server(port, data_dir)
        procs.append(proc)
        lines.await_match("serving at")

        peer = NetworkPeer(1, "127.0.0.1", 0, registry=Registry())
        client = SubscriptionClient(registry=Registry())
        events = []
        try:
            await peer.start()
            await peer.join(server_addr)
            await client.start()
            sub_id = await client.subscribe(server_addr, "gossip", events.append)

            # Publish on the OTHER peer: gossip carries it to the server,
            # whose probe pushes the upcall back to the client.
            await _publish_and_await_upcall(
                peer, Document("d1", "gossip spreads rumors epidemically"),
                events, want=1,
            )
            assert events[0].sub_id == sub_id
            assert events[0].origin == 1
            await asyncio.sleep(0.3)  # let the post-notify checkpoint land

            os.kill(proc.pid, signal.SIGKILL)  # no shutdown, no checkpoint
            proc.wait(timeout=10)

            proc2, lines2 = _spawn_server(port, data_dir)
            procs.append(proc2)
            lines2.await_match("serving at")
            # The community heals: the surviving peer re-introduces
            # itself, then publishes fresh content.
            await peer.join(server_addr)
            await _publish_and_await_upcall(
                peer, Document("d2", "gossip resumes after the crash"),
                events, want=2,
            )
            delivered = [e.doc_id for e in events]
            assert delivered.count("d1") == 1, f"d1 re-delivered: {delivered}"
            assert "d2" in delivered
            assert all(e.sub_id == sub_id for e in events)

            proc2.terminate()
            proc2.wait(timeout=10)
        finally:
            await peer.stop()
            await client.close()

    try:
        asyncio.run(scenario())
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
