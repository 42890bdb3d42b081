"""Warm restart end to end: checkpointed rejoin, and kill -9 via the CLI.

The in-process scenarios run over the deterministic loopback fabric and
cover the acceptance criteria of ISSUE 5: a node restarted from its
``--data-dir`` recovers every acknowledged document and Bloom filter,
resumes gossiping from its checkpointed directory, and spends fewer
directory bytes rejoining than a cold join costs.  The subprocess
scenario does the same through ``python -m repro.net`` with a real
SIGKILL (this is the test CI's kill-and-restart step runs on its own).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.constants import StoreConfig
from repro.core.datastore import LocalDataStore
from repro.net.codec import StatsRequest
from repro.net.node import RID_RESTART_GAP, NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.store.wal import WriteAheadLog
from repro.text.document import Document

pytestmark = pytest.mark.recovery

FAST_STORE = StoreConfig(fsync=False)


def _node(net: LoopbackNetwork, pid: int, port: int | None = None, **kwargs) -> NetworkPeer:
    kwargs.setdefault("registry", Registry())
    return NetworkPeer(
        pid, "peer", port if port is not None else pid,
        transport=net.transport(), seed=pid, **kwargs,
    )


async def _converge_on(b2: NetworkPeer, others: list[NetworkPeer], rounds: int = 12) -> bool:
    """Gossip until every other member sees ``b2`` online at its address."""
    for _ in range(rounds):
        await b2.gossip_round()
        for other in others:
            await other.gossip_round()
        views = [other.peer.directory.get(b2.peer_id) for other in others]
        if all(
            e is not None and e.address == b2.address and other.membership.is_online(b2.peer_id)
            for e, other in zip(views, others)
        ):
            return True
    return False


def test_warm_restart_recovers_store_and_rejoins_gossip(tmp_path):
    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0)
        c = _node(net, 2)
        b = _node(net, 1, data_dir=tmp_path, store_config=FAST_STORE)
        for n in (a, c, b):
            await n.start()
        a.publish(Document("d-a", "gossip spreads rumors epidemically"))
        c.publish(Document("d-c", "ranking orders documents by similarity"))
        b.publish(Document("d-b", "bloom filters summarize term membership"))
        await b.join(a.address)
        await c.join(a.address)
        assert await _converge_on(b, [a, c])
        b_filter = b.peer.store.bloom_filter.copy()
        b.write_checkpoint()
        await b.transport.close()  # SIGKILL: no node.stop(), no store close

        b2 = _node(net, 1, port=101, data_dir=tmp_path, store_config=FAST_STORE)
        # Documents and filter recovered from WAL before any gossip.
        assert sorted(b2.peer.store.document_ids()) == ["d-b"]
        assert b2.peer.store.bloom_filter == b_filter
        assert b2.restored_members == 2
        # The checkpoint restored both replicas and the rumor digest.
        assert b2.replica_of(0) == a.peer.store.bloom_filter
        assert b2.replica_of(2) == c.peer.store.bloom_filter
        await b2.start()
        assert await _converge_on(b2, [a, c])
        assert a.peer.directory[1].address == b2.address
        assert a.replica_of(1) == b2.peer.store.bloom_filter
        for n in (a, c, b2):
            await n.stop()

    asyncio.run(scenario())


def test_a_durable_nodes_store_is_its_local_store(tmp_path):
    async def scenario():
        net = LoopbackNetwork()
        node = _node(net, 0, data_dir=tmp_path, store_config=FAST_STORE)
        assert type(node.peer.store) is LocalDataStore
        assert node.persistence.store is node.peer.store
        await node.start()
        node.publish(Document("d", "journaled through the node's own store"))
        reader = WriteAheadLog(tmp_path / "wal.log", fsync=False, registry=Registry())
        records = reader.open()
        reader.close()
        assert [(r["op"], r["id"]) for r in records] == [("publish", "d")]
        await node.transport.close()  # SIGKILL: no stop(), no snapshot

        again = _node(net, 0, port=100, data_dir=tmp_path, store_config=FAST_STORE)
        assert type(again.peer.store) is LocalDataStore
        assert again.persistence.last_recovery.replayed_records == 1
        assert again.peer.store.get("d").text == "journaled through the node's own store"
        node.persistence.close(snapshot=False)
        again.persistence.close(snapshot=False)

    asyncio.run(scenario())


def test_restart_never_reuses_rumor_ids(tmp_path):
    """Regression: a restarted node must mint rids beyond its previous
    life's, or its REJOIN rumor is "already known" everywhere and can
    never spread (the directory would keep the dead address forever)."""

    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0)
        b = _node(net, 1, data_dir=tmp_path, store_config=FAST_STORE)
        await a.start()
        await b.start()
        b.publish(Document("d", "some rumor minting material"))
        await b.join(a.address)
        for _ in range(3):
            await b.gossip_round()
            await a.gossip_round()
        old_known = set(b.core.known)
        b.write_checkpoint()
        await b.transport.close()

        b2 = _node(net, 1, port=101, data_dir=tmp_path, store_config=FAST_STORE)
        assert b2._rid_seq >= RID_RESTART_GAP
        await b2.start()  # mints the REJOIN rumor
        fresh = set(b2.core.known) - old_known
        assert fresh, "the REJOIN rumor collided with a previous-life rid"
        assert all(rid >> 32 == 1 for rid in fresh)
        assert await _converge_on(b2, [a])
        await a.stop()
        await b2.stop()

    asyncio.run(scenario())


def test_warm_rejoin_costs_fewer_directory_bytes_than_cold_join(tmp_path):
    """Measured from the restarted node's own transport counters: the
    background gossip the *other* members exchange while the news
    spreads is steady-state traffic, not a cost of joining."""

    def node_bytes(registry: Registry) -> int:
        return int(
            registry.value("transport", "bytes_sent_total")
            + registry.value("transport", "bytes_recv_total")
        )

    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0)
        c = _node(net, 2)
        b = _node(net, 1, data_dir=tmp_path, store_config=FAST_STORE)
        for n in (a, c, b):
            await n.start()
        a.publish(Document("d-a", "epidemic algorithms for replicated maintenance"))
        c.publish(Document("d-c", "content addressable publishing for communities"))
        b.publish(Document("d-b", "compressed bloom filters across the wire"))
        await b.join(a.address)
        await c.join(a.address)
        assert await _converge_on(b, [a, c])
        b.write_checkpoint()
        await b.transport.close()

        # Warm: checkpoint seeds the directory; one REJOIN rumor heals it.
        warm_reg = Registry()
        b2 = _node(net, 1, port=101, data_dir=tmp_path,
                   store_config=FAST_STORE, registry=warm_reg)
        await b2.start()
        assert b2.restored_members == 2
        assert await _converge_on(b2, [a, c])
        warm_bytes = node_bytes(warm_reg)
        await b2.transport.close()

        # Cold: same node, checkpoint gone — full join snapshot transfer.
        (tmp_path / "directory.ckpt").unlink()
        cold_reg = Registry()
        b3 = _node(net, 1, port=102, data_dir=tmp_path,
                   store_config=FAST_STORE, registry=cold_reg)
        await b3.start()
        assert b3.restored_members == 0
        await b3.join(a.address)
        assert await _converge_on(b3, [a, c])
        cold_bytes = node_bytes(cold_reg)

        assert warm_bytes < cold_bytes, (
            f"warm rejoin ({warm_bytes}B) should undercut a cold join "
            f"({cold_bytes}B)"
        )
        for n in (a, c, b3):
            await n.stop()

    asyncio.run(scenario())


def test_a_restored_checkpoint_equals_a_join_snapshot(tmp_path):
    """A warm restart adopts the directory a joiner downloads: node C,
    restored from B's checkpoint, and node D, joined via B, hold the same
    members, online beliefs, filters and digest.  Only the recent window
    differs (a checkpoint brings none)."""

    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0)
        e = _node(net, 2)
        f = _node(net, 4)
        b = _node(net, 1, data_dir=tmp_path, store_config=FAST_STORE)
        d = _node(net, 3)
        for n in (a, e, f, b, d):
            await n.start()
        for n in (a, e, f, b):
            n.publish(Document(f"d-{n.peer_id}", f"document {n.peer_id} gossip bloom"))
        for n in (b, e, f):
            await n.join(a.address)
        assert await _converge_on(b, [a, e, f]) and await _converge_on(f, [a, b, e])
        # B believes F dead: a member the snapshot ships as an offline row.
        await f.transport.close()
        assert await b.request_peer(4, StatsRequest()) is None
        assert 4 in b.membership and not b.membership.is_online(4)

        await d.join(b.address)  # D has minted nothing but its JOIN
        b.write_checkpoint()
        await b.transport.close()
        c = _node(net, 1, port=101, data_dir=tmp_path, store_config=FAST_STORE)

        assert c.restored_members == 4
        members = c.membership.members()
        assert members == d.membership.members() == [0, 1, 2, 3, 4]
        online = [c.membership.is_online(pid) for pid in members]
        assert online == [d.membership.is_online(pid) for pid in members]
        assert online == [True, True, True, True, False]
        for pid in members:
            assert c.replica_of(pid) == d.replica_of(pid), pid
        assert c.core.digest == d.core.digest
        assert not c.core.recent_learned and d.core.recent_learned
        c.persistence.close()
        for n in (a, e, d):
            await n.stop()

    asyncio.run(scenario())


def test_checkpoint_for_another_peer_id_is_ignored(tmp_path):
    async def scenario():
        net = LoopbackNetwork()
        b = _node(net, 1, data_dir=tmp_path, store_config=FAST_STORE)
        await b.start()
        await b.stop()  # writes peer 1's checkpoint
        # The data dir is reused by a different identity: cold start.
        other = _node(net, 5, port=105, data_dir=tmp_path, store_config=FAST_STORE)
        assert other.restored_members == 0
        await other.start()
        await other.stop()

    asyncio.run(scenario())


# -- the CLI, killed for real -------------------------------------------------


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


def _spawn_node(data_dir: Path, corpus: Path) -> tuple[subprocess.Popen, _Lines]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.net",
            "--peer-id", "0", "--port", "0",
            "--corpus", str(corpus), "--data-dir", str(data_dir),
            "--gossip-interval", "0.2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    return proc, _Lines(proc)


def test_cli_node_survives_sigkill(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "alpha.txt").write_text("gossip protocols spread information")
    (corpus / "beta.txt").write_text("bloom filters compress membership")
    data_dir = tmp_path / "state"

    proc, lines = _spawn_node(data_dir, corpus)
    try:
        lines.await_match("published 2 documents")
        os.kill(proc.pid, signal.SIGKILL)  # no shutdown, no snapshot
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()

    proc, lines = _spawn_node(data_dir, corpus)
    try:
        lines.await_match("warm start: 2 documents recovered (2 WAL records replayed)")
        # Recovery made re-publishing unnecessary.
        lines.await_match("published 0 documents")
        proc.terminate()
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
