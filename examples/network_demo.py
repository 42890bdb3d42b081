#!/usr/bin/env python
"""Network demo: five PlanetP peers gossiping over real TCP sockets.

Starts five :class:`~repro.net.node.NetworkPeer` servers on ephemeral
localhost ports, bootstraps them into one community, publishes a small
corpus, lets the gossip protocol replicate the Bloom filter directory
over the wire, and finally runs a ranked TF×IPF search — every peer
contact a real socket round-trip.

Run:  python examples/network_demo.py
"""

import asyncio

from repro.net.client import NetworkSearchClient
from repro.net.node import NetworkPeer
from repro.text.document import Document

ARTICLES = [
    ("epidemics", "epidemic algorithms for replicated database maintenance"),
    ("gossip-survey", "gossip protocols spread rumors through random peer exchanges"),
    ("bloom", "bloom filters summarize set membership with compact bit arrays"),
    ("chord", "chord is a scalable peer to peer lookup service"),
    ("planetp", "planetp peers gossip bloom filter summaries to rank searches"),
]


async def main() -> None:
    """Run the five-peer TCP community end to end."""
    nodes = [NetworkPeer(pid, "127.0.0.1", 0, seed=pid) for pid in range(5)]
    for node in nodes:
        address = await node.start()
        print(f"peer {node.peer_id} listening on {address}")

    # Each peer publishes one article, then bootstraps off peer 0.
    for node, (doc_id, text) in zip(nodes, ARTICLES):
        node.publish(Document(doc_id, text))
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    print(f"\nall {len(nodes)} peers joined via {nodes[0].address}")

    # Drive gossip rounds explicitly (a daemon would use node.run()).
    for rnd in range(1, 31):
        for node in nodes:
            await node.gossip_round()
        if len({node.core.digest for node in nodes}) == 1:
            print(f"directories converged after {rnd} gossip rounds")
            break
    else:
        raise SystemExit("gossip did not converge")

    client = NetworkSearchClient(nodes[4])
    result = await client.ranked_search("gossip peer protocols", k=3)
    print("\nranked 'gossip peer protocols' over TCP:")
    for doc in result.results:
        print(f"  {doc.doc_id:15s} score={doc.score:.3f}")
    print(f"  peers contacted: {sorted(result.peers_contacted)}")

    doc = await client.fetch(0, "epidemics")
    assert doc is not None
    print(f"\nfetched from peer 0: {doc.doc_id!r}: {doc.text[:40]}...")

    for node in nodes:
        await node.stop()
    print("all peers stopped")


if __name__ == "__main__":
    asyncio.run(main())
