"""One schedule, two drivers of Section 5.1's persistent queries.

The in-process community (:class:`InProcessCommunity`, synchronous
upcalls) and a 3-node loopback community serving a
:class:`SubscriptionClient` (gossip-fed probes, ``Notify`` upcalls) run
the same script of posts, publishes, removes, cancels and a callback
that cancels another query.  Both drive the same ``StandingQueries``
core, so once the socket side has settled after a step, each live
subscription's delivered set must be equal in both worlds.

The drivers deliberately differ in two places:

* the ack point — in-process acks before its upcall, the socket node
  after the subscriber's ack.  It shows only while the subscriber is
  away: the socket side then holds a subset, and is equal again once the
  subscriber reattaches and a gossip round passes;
* a cancel made inside an upcall is its own RPC over the wire, so it
  cannot stop an upcall already in flight to the cancelled query, as it
  does in-process.  The cancelled row is gone from both worlds either
  way, which is what the comparison sees.
"""

from __future__ import annotations

import asyncio

from repro.core.community import InProcessCommunity
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.serve.subscriptions import SubscriptionClient
from repro.text.document import Document

PEERS = 3

#: ("post", label, query) | ("cancel", label) | ("publish", peer, doc, text)
#: | ("remove", peer, doc) | ("offline",) | ("online",)
#: Posting "assassin" makes a query whose first upcall cancels "doomed".
SCRIPT = [
    ("publish", 1, "d0", "gossip that predates every query"),
    ("post", "a", "gossip"),
    ("post", "b", "gossip bloom"),
    ("publish", 1, "d1", "gossip rumors spread"),
    ("publish", 2, "d2", "gossip bloom filter summaries"),
    ("publish", 0, "d3", "bloom filters alone"),
    # remove then republish the same id: the delivered set outlives it
    ("remove", 1, "d1"),
    ("publish", 1, "d1", "gossip rumors spread"),
    ("remove", 1, "d1"),
    ("publish", 2, "d1", "gossip rumors retold elsewhere"),
    # a callback cancelling a later query wins the race for its doc
    ("post", "assassin", "epidemic"),
    ("post", "doomed", "epidemic"),
    ("publish", 2, "d4", "epidemic gossip"),
    # the socket subscriber goes away; its upcalls queue at the server
    ("offline",),
    ("publish", 1, "d5", "gossip while the subscriber is away"),
    ("publish", 0, "d6", "gossip bloom at the serving node"),
    ("online",),
    ("cancel", "b"),
    ("publish", 0, "d7", "gossip bloom after the cancel"),
    ("post", "c", "gossip"),
    ("publish", 1, "d8", "gossip for the late subscriber"),
]


class InProcessWorld:
    def __init__(self) -> None:
        self.community = InProcessCommunity(PEERS)
        self.ids: dict[str, int] = {}
        self.got: dict[str, set[str]] = {}

    def _callback(self, label: str):
        got = self.got.setdefault(label, set())

        def upcall(doc: Document) -> None:
            got.add(doc.doc_id)
            if label == "assassin" and "doomed" in self.ids:
                self.community.cancel_persistent_query(self.ids.pop("doomed"))

        return upcall

    def step(self, op: tuple) -> None:
        if op[0] == "post":
            sub = self.community.post_persistent_query(op[2], self._callback(op[1]))
            self.ids[op[1]] = sub.sub_id
        elif op[0] == "cancel":
            self.community.cancel_persistent_query(self.ids.pop(op[1]))
        elif op[0] == "publish":
            self.community.publish(op[1], Document(op[2], op[3]))
        elif op[0] == "remove":
            self.community.remove(op[2])

    def delivered(self) -> dict[int, set[str]]:
        return {sid: set(s.delivered) for sid, s in self.community.standing.rows.items()}


class SocketWorld:
    def __init__(self) -> None:
        self.net = LoopbackNetwork()
        self.nodes: list[NetworkPeer] = []
        self.client: SubscriptionClient | None = None
        self.ids: dict[str, int] = {}
        self.queries: dict[str, str] = {}
        self.tasks: list[asyncio.Task] = []

    async def start(self) -> None:
        self.nodes = [
            NetworkPeer(
                pid, "peer", pid, transport=self.net.transport(), seed=pid,
                registry=Registry(),
            )
            for pid in range(PEERS)
        ]
        for node in self.nodes:
            await node.start()
        for node in self.nodes[1:]:
            await node.join(self.nodes[0].address)
        self.client = await self._client()
        await self.settle()

    async def _client(self) -> SubscriptionClient:
        client = SubscriptionClient(
            "client", 9000, transport=self.net.transport(), registry=Registry()
        )
        await client.start()
        return client

    def _callback(self, label: str):
        def upcall(notify) -> None:
            if label == "assassin" and "doomed" in self.ids:
                cancel = self.client.unsubscribe(
                    self.nodes[0].address, self.ids.pop("doomed")
                )
                self.tasks.append(asyncio.get_running_loop().create_task(cancel))

        return upcall

    async def step(self, op: tuple) -> None:
        server = self.nodes[0].address
        if op[0] == "post":
            self.queries[op[1]] = op[2]
            self.ids[op[1]] = await self.client.subscribe(
                server, op[2], self._callback(op[1])
            )
        elif op[0] == "cancel":
            assert await self.client.unsubscribe(server, self.ids.pop(op[1]))
        elif op[0] == "publish":
            self.nodes[op[1]].publish(Document(op[2], op[3]))
        elif op[0] == "remove":
            node = self.nodes[op[1]]
            node.peer.remove(op[2])
            node.content.remove_local(op[2])
        elif op[0] == "offline":
            await self.client.close()
        elif op[0] == "online":
            self.client = await self._client()
            for label, sid in self.ids.items():
                await self.client.subscribe(
                    server, self.queries[label], self._callback(label), sub_id=sid
                )
        await self.settle()

    async def settle(self, rounds: int = 12) -> None:
        """Gossip until the change reaches the serving node, letting its
        worker run between rounds, then drain what is left."""
        for _ in range(rounds):
            for node in self.nodes:
                await node.gossip_round()
        while True:
            while self.tasks:  # cancels made by upcalls
                await self.tasks.pop()
            if not await self.nodes[0].subscriptions.drain():
                break

    def delivered(self) -> dict[int, set[str]]:
        rows = self.nodes[0].subscriptions.queries.rows
        return {sid: set(s.delivered) for sid, s in rows.items()}

    async def stop(self) -> None:
        for node in self.nodes:
            await node.stop()
        await self.client.close()


def test_in_process_and_socket_drivers_deliver_the_same_documents():
    async def scenario():
        local, remote = InProcessWorld(), SocketWorld()
        await remote.start()
        away = withheld = False
        for n, op in enumerate(SCRIPT):
            local.step(op)
            await remote.step(op)
            away = {"offline": True, "online": False}.get(op[0], away)
            where = f"step {n} {op}"
            assert remote.ids == local.ids, where
            want, got = local.delivered(), remote.delivered()
            if away:
                assert got.keys() == want.keys(), where
                for sid, ids in got.items():
                    assert ids <= want[sid], where
                withheld = withheld or got != want
            else:
                assert got == want, where
        # The script exercised every path it names.
        assert withheld
        assert local.got["a"] == {"d1", "d2", "d4", "d5", "d6", "d7", "d8"}
        assert local.got["b"] == {"d2", "d6"}
        assert local.got["assassin"] == {"d4"}
        assert local.got["doomed"] == set()
        assert local.got["c"] == {"d8"}
        await remote.stop()

    asyncio.run(scenario())
