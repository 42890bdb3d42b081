#!/usr/bin/env python
"""Chaos demo: a gossiping community survives drops, jitter, a partition.

Ten PlanetP peers run over the in-memory loopback fabric, but every
request passes through a seeded :class:`~repro.net.chaos.FaultPlan`:
20 % of requests vanish, the rest suffer 50–500 ms of jitter, and for a
twenty-minute window the community is split into two halves that cannot
reach each other.  A :class:`~repro.net.chaos.VirtualClock` advances
simulated time, so hours of chaos replay in well under a second — and the
same seed always produces byte-identical results.

After the fault window closes, the directories converge bit-for-bit and a
ranked TF×IPF search returns exactly what the in-process reference
community computes on the same corpus.

Run:  python examples/chaos_demo.py [seed]
"""

import asyncio
import sys

from repro.core.community import InProcessCommunity
from repro.net.client import NetworkSearchClient
from repro.net.node import NetworkPeer
from repro.net.chaos import EdgeFaults, FaultPlan, FaultyTransport, VirtualClock
from repro.net.transport import LoopbackNetwork, TransportError
from repro.text.document import Document

ARTICLES = [
    ("epidemics", "epidemic algorithms for replicated database maintenance"),
    ("gossip-survey", "gossip protocols spread rumors through random peer exchanges"),
    ("bloom", "bloom filters summarize set membership with compact bit arrays"),
    ("chord", "chord is a scalable peer to peer lookup service"),
    ("planetp", "planetp peers gossip bloom filter summaries to rank searches"),
    ("tapestry", "tapestry routes messages through overlay neighbor tables"),
    ("pastry", "pastry object location in a self organizing overlay"),
    ("can", "a scalable content addressable network partitions a torus"),
    ("freenet", "freenet offers anonymous peer to peer file storage"),
    ("tfipf", "tf ipf ranks documents without global corpus statistics"),
]

NUM_PEERS = 10
CHAOS_END = 6000.0  # simulated seconds of drops + jitter
GOSSIP_DT = 30.0  # the paper's base gossip interval T_g


async def main(seed: int) -> None:
    clock = VirtualClock()
    plan = FaultPlan(seed=seed, clock=clock)
    plan.set_default(
        EdgeFaults(drop_rate=0.2, latency_min_s=0.05, latency_max_s=0.5),
        start=0.0,
        end=CHAOS_END,
    )
    half_a = [f"peer:{p}" for p in range(NUM_PEERS // 2)]
    half_b = [f"peer:{p}" for p in range(NUM_PEERS // 2, NUM_PEERS)]
    plan.partition(half_a, half_b, start=600.0, end=1800.0)
    print(f"chaos seed {seed}: 20% drops, 50-500ms jitter until t={CHAOS_END:.0f}s,")
    print("  partition {0..4} x {5..9} from t=600s to t=1800s\n")

    net = LoopbackNetwork()
    nodes = [
        NetworkPeer(
            pid,
            "peer",
            pid,
            transport=FaultyTransport(net.transport(), plan, sleep=clock.sleep),
            seed=(seed << 16) | pid,
            clock=clock,
        )
        for pid in range(NUM_PEERS)
    ]
    for node in nodes:
        await node.start()
    for node in nodes[1:]:
        while True:  # the fault plan can kill the join; retry in virtual time
            try:
                await node.join(nodes[0].address)
                break
            except TransportError:
                clock.advance(1.0)
    for node, (doc_id, text) in zip(nodes, ARTICLES):
        node.publish(Document(doc_id, text))
    print(f"{NUM_PEERS} peers joined and published under fire")

    def converged() -> bool:
        # Same digest, bit-identical replicas, and everyone marked online —
        # ranked search only consults peers the querier believes are alive.
        if len({n.core.digest for n in nodes}) != 1:
            return False
        return all(
            a.replica_of(b.peer_id) == b.peer.store.bloom_filter
            and a.membership.is_online(b.peer_id)
            for a in nodes
            for b in nodes
        )

    rounds = 0
    for rounds in range(1, 400):
        clock.advance(GOSSIP_DT)
        for node in nodes:
            await node.gossip_round()
        if clock() > CHAOS_END and converged():
            break
        if rounds % 40 == 0:
            digests = len({n.core.digest for n in nodes})
            print(
                f"  t={clock():7.0f}s round {rounds:3d}: {digests} distinct "
                f"digests, {plan.dropped} dropped, {plan.blocked} blocked"
            )
    if not converged():
        raise SystemExit(f"did not converge (seed {seed})")
    print(f"\nconverged bit-for-bit after {rounds} rounds, t={clock():.0f}s")
    print(
        f"faults injected: {plan.dropped} dropped, {plan.blocked} blocked, "
        f"{plan.resets} resets, {plan.delivered} delivered, "
        f"{plan.delay_total_s:.1f}s total jitter"
    )

    oracle = InProcessCommunity(num_peers=NUM_PEERS)
    for pid, (doc_id, text) in enumerate(ARTICLES):
        oracle.publish(pid, Document(doc_id, text))
    query = "gossip bloom filter peers"
    got = await NetworkSearchClient(nodes[7]).ranked_search(query, k=4)
    want = oracle.ranked_search(query, k=4)
    print(f"\nranked {query!r} from peer 7 after the chaos:")
    for doc in got.results:
        print(f"  {doc.doc_id:15s} score={doc.score:.3f}")
    matches = [(d.doc_id, d.score) for d in got.results] == [
        (d.doc_id, d.score) for d in want.results
    ]
    print(f"matches the in-process oracle exactly: {matches}")
    if not matches:
        raise SystemExit(f"oracle disagreement (seed {seed})")

    for node in nodes:
        await node.stop()
    print("all peers stopped")


if __name__ == "__main__":
    asyncio.run(main(int(sys.argv[1]) if len(sys.argv) > 1 else 1337))
