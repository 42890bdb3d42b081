"""End-to-end community tests: convergence and search parity over the wire.

The two acceptance scenarios of the network layer:

* a three-node loopback community converges to **bit-identical** Bloom
  filter replicas purely through gossip; and
* a three-node community over **real TCP sockets** answers a ranked
  TF×IPF query with exactly the same top-k as the in-process community on
  the same corpus — the protocol machinery changes, the results don't.
"""

import asyncio
import random

from repro.core.community import InProcessCommunity
from repro.gossip.wire import RumorData
from repro.net.client import NetworkSearchClient
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document

CORPUS = [
    (0, "d-epidemic", "epidemic algorithms maintain replicated databases"),
    (0, "d-gossip", "gossip protocols spread rumors through random exchanges"),
    (1, "d-bloom", "bloom filters summarize set membership compactly"),
    (1, "d-rank", "tf ipf ranking weights terms by peer frequency"),
    (2, "d-chord", "chord routes lookups over consistent hashing"),
    (2, "d-mix", "peers gossip bloom summaries and rank results"),
]


def _publish_corpus(nodes: list[NetworkPeer]) -> None:
    for pid, doc_id, text in CORPUS:
        nodes[pid].publish(Document(doc_id, text))


async def _converge(nodes: list[NetworkPeer], max_rounds: int = 30) -> int:
    """Drive gossip rounds until every digest agrees; returns rounds used."""
    for rnd in range(1, max_rounds + 1):
        for node in nodes:
            await node.gossip_round()
        if len({node.core.digest for node in nodes}) == 1:
            return rnd
    raise AssertionError(
        f"no convergence in {max_rounds} rounds: "
        f"{[hex(node.core.digest) for node in nodes]}"
    )


def test_loopback_community_converges_bit_identical():
    async def scenario():
        net = LoopbackNetwork()
        nodes = [
            NetworkPeer(pid, "peer", pid, transport=net.transport(), seed=pid)
            for pid in range(3)
        ]
        for node in nodes:
            await node.start()
        _publish_corpus(nodes)
        await nodes[1].join(nodes[0].address)
        await nodes[2].join(nodes[1].address)
        rounds = await _converge(nodes)
        assert rounds < 30
        # Every replica is bit-identical to the publisher's live filter.
        for owner in nodes:
            for observer in nodes:
                assert (
                    observer.replica_of(owner.peer_id) == owner.peer.store.bloom_filter
                ), f"peer {observer.peer_id}'s replica of {owner.peer_id} diverged"
        assert all(node.membership.members() == [0, 1, 2] for node in nodes)
        for node in nodes:
            await node.stop()

    asyncio.run(scenario())


def test_tcp_ranked_search_matches_in_process_community():
    query, k = "gossip bloom peers", 4

    # Reference: the same corpus in the in-process community.
    community = InProcessCommunity(num_peers=3)
    for pid, doc_id, text in CORPUS:
        community.publish(pid, Document(doc_id, text))
    expected = community.ranked_search(query, k=k)

    async def scenario():
        nodes = [NetworkPeer(pid, "127.0.0.1", 0, seed=pid) for pid in range(3)]
        for node in nodes:
            await node.start()
        _publish_corpus(nodes)
        await nodes[1].join(nodes[0].address)
        await nodes[2].join(nodes[0].address)
        await _converge(nodes)
        try:
            result = await NetworkSearchClient(nodes[0]).ranked_search(query, k=k)
        finally:
            for node in nodes:
                await node.stop()
        return result

    result = asyncio.run(scenario())
    assert [d.doc_id for d in result.results] == [d.doc_id for d in expected.results]
    for got, want in zip(result.results, expected.results):
        assert got.score == want.score
    assert result.ipf == expected.ipf


def test_tcp_exhaustive_search_matches_in_process_community():
    query = "gossip"

    community = InProcessCommunity(num_peers=3)
    for pid, doc_id, text in CORPUS:
        community.publish(pid, Document(doc_id, text))
    expected = sorted(d.doc_id for d in community.exhaustive_search(query))

    async def scenario():
        nodes = [NetworkPeer(pid, "127.0.0.1", 0, seed=pid) for pid in range(3)]
        for node in nodes:
            await node.start()
        _publish_corpus(nodes)
        await nodes[1].join(nodes[0].address)
        await nodes[2].join(nodes[0].address)
        await _converge(nodes)
        try:
            return await NetworkSearchClient(nodes[2]).exhaustive_search(query)
        finally:
            for node in nodes:
                await node.stop()

    assert asyncio.run(scenario()) == expected


def test_query_replies_heal_offline_entries_and_stale_outcomes_are_ignored():
    """Directory liveness evidence from the query plane.

    A successful RPC reply is the same positive evidence a gossip
    exchange is: it must heal an entry a failed contact marked offline
    (or a restarted peer stays invisible to ranked search until gossip
    happens to pick it).  And an outcome from an RPC that raced a
    JOIN/REJOIN re-addressing is about the *old* incarnation: it must
    not flip the fresh entry either way.
    """

    async def scenario():
        nodes = [NetworkPeer(pid, "127.0.0.1", 0, seed=pid) for pid in range(2)]
        for node in nodes:
            await node.start()
        for pid, doc_id, text in CORPUS:
            if pid < len(nodes):
                nodes[pid].publish(Document(doc_id, text))
        await nodes[1].join(nodes[0].address)
        await _converge(nodes)
        client = NetworkSearchClient(nodes[0])
        address = nodes[0].peer.directory[1].address
        members = nodes[0].membership
        try:
            nodes[0]._record_contact(1, address, ok=False)
            assert not members.is_online(1)
            # The peer still answers at its recorded address: the reply
            # heals the entry and it reappears in ranking candidates.
            assert await client.fetch(1, "d-bloom") is not None
            assert members.is_online(1)
            assert 1 in [pid for pid, _r in
                         (await client.ranked_search("bloom", k=2)).peer_ranking]

            # A late failure from the peer's previous address (it was
            # re-addressed mid-flight) must not mark the entry offline...
            nodes[0]._record_contact(1, "127.0.0.1:1", ok=False)
            assert members.is_online(1)
            # ...and a late success from it must not resurrect one.
            nodes[0]._record_contact(1, address, ok=False)
            nodes[0]._record_contact(1, "127.0.0.1:1", ok=True)
            assert not members.is_online(1)
            # Evidence about the current address still lands.
            nodes[0]._record_contact(1, address, ok=True)
            assert members.is_online(1)
        finally:
            for node in nodes:
                await node.stop()

    asyncio.run(scenario())


WORDS = [
    "gossip", "bloom", "rumor", "filter", "peer", "rank",
    "chord", "digest", "replica", "shard", "index", "query",
]


async def _wide_community(net: LoopbackNetwork, n: int) -> list[NetworkPeer]:
    """``n`` converged loopback nodes, four seeded six-word documents each."""
    rng = random.Random(7)
    nodes = [
        NetworkPeer(pid, "peer", pid, transport=net.transport(), seed=pid)
        for pid in range(n)
    ]
    for node in nodes:
        await node.start()
        for d in range(4):
            text = " ".join(rng.choices(WORDS, k=6))
            node.publish(Document(f"d{node.peer_id}-{d}", text))
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    await _converge(nodes, max_rounds=60)
    return nodes


def test_concurrent_searches_return_their_serial_answers():
    """Eq. 4's streak belongs to one search: eight searches in flight on
    one client must each stop where they would have stopped alone."""
    queries = [f"{a} {b}" for a, b in zip(WORDS[:8], WORDS[4:])]

    async def scenario():
        net = LoopbackNetwork(latency_s=0.001)  # searches interleave per hop
        nodes = await _wide_community(net, 16)
        client = NetworkSearchClient(nodes[0])
        try:
            serial = [await client.ranked_search(q, k=5) for q in queries]
            together = await asyncio.gather(
                *(client.ranked_search(q, k=5) for q in queries)
            )
        finally:
            for node in nodes:
                await node.stop()
        # The test is vacuous unless the stopping rule is doing the work.
        assert any(len(r.peers_contacted) < len(r.peer_ranking) for r in serial)
        for query, alone, shared in zip(queries, serial, together):
            assert shared.peers_contacted == alone.peers_contacted, query
            assert shared.results == alone.results, query

    asyncio.run(scenario())


def test_a_member_without_an_address_is_not_a_candidate():
    """A filter rumor can overtake its member's JOIN: the filter then
    waits in the directory, and the member enters the member table only
    with its addressed record.  Until then it is not ranked — that would
    book a contact nobody can make against eq. 4's streak (and lose the
    peers behind it)."""
    query = "gossip bloom peers"

    async def scenario():
        net = LoopbackNetwork()
        nodes = [
            NetworkPeer(
                pid, "peer", pid, transport=net.transport(), seed=pid, registry=Registry()
            )
            for pid in range(4)
        ]
        for node in nodes:
            await node.start()
        _publish_corpus(nodes[:3])
        await nodes[1].join(nodes[0].address)
        await nodes[2].join(nodes[0].address)
        await _converge(nodes[:3])
        querier, late = nodes[0], nodes[3]
        client = NetworkSearchClient(querier)
        try:
            full = await client.ranked_search(query, k=4)
            late.publish(Document("d-late", query))
            late.flush_updates()  # the announcement its next round would make
            (update,) = late.rumors.values()
            await late.request_address(querier.address, RumorData((update,)))
            assert querier.replica_of(3) is not None and 3 not in querier.membership
            blind = await client.ranked_search(query, k=4)
            assert 3 not in [pid for pid, _r in blind.peer_ranking]
            assert 3 not in blind.peers_contacted
            assert blind.results == full.results
            # The JOIN record arrives: the member is a candidate, its
            # filter the union of both rumors'.
            await late.join(querier.address)
            healed = await client.ranked_search(query, k=4)
            assert 3 in healed.peers_contacted
            assert "d-late" in {d.doc_id for d in healed.results}
        finally:
            for node in nodes:
                await node.stop()

    asyncio.run(scenario())
