#!/usr/bin/env python
"""Serve demo: the production query plane on a three-peer community.

Walks the :mod:`repro.serve` subsystem end to end over real TCP sockets:

1. a :class:`~repro.serve.scheduler.QueryScheduler` fronts one peer — a repeated
   query is answered from the version-keyed result cache;
2. a publish on *another* peer moves the directory generation, so the
   stale entry is evicted and the fresh answer includes the new document;
3. an overload burst against a one-slot scheduler is shed with
   ``retry_after`` backpressure hints instead of queueing unboundedly;
4. a :class:`~repro.serve.subscriptions.SubscriptionClient` posts a persistent query
   and receives a wire upcall for a document published on a peer that
   never heard of the subscription.

Run:  python examples/serve_demo.py
"""

import asyncio

from repro.constants import ServeConfig
from repro.net.node import NetworkPeer
from repro.serve.scheduler import QueryRejected, QueryScheduler
from repro.serve.subscriptions import SubscriptionClient
from repro.text.document import Document

ARTICLES = [
    ("epidemics", "epidemic algorithms for replicated database maintenance"),
    ("gossip-survey", "gossip protocols spread rumors through random peer exchanges"),
    ("bloom", "bloom filters summarize set membership with compact bit arrays"),
]


async def converge(nodes: list[NetworkPeer], rounds: int = 40) -> None:
    """Drive gossip until every directory digest agrees."""
    for _ in range(rounds):
        for node in nodes:
            await node.gossip_round()
        if len({node.core.digest for node in nodes}) == 1:
            return
    raise SystemExit("gossip did not converge")


async def main() -> None:
    """Run the serve-plane walkthrough end to end."""
    nodes = [NetworkPeer(pid, "127.0.0.1", 0, seed=pid) for pid in range(3)]
    for node in nodes:
        await node.start()
    for node, (doc_id, text) in zip(nodes, ARTICLES):
        node.publish(Document(doc_id, text))
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    await converge(nodes)
    print(f"3 peers converged; serving from peer 0 at {nodes[0].address}")

    # -- the result cache ---------------------------------------------------
    sched = QueryScheduler(nodes[0])
    reg = nodes[0].obs
    first = await sched.ranked("gossip protocols", k=3)
    await sched.ranked("gossip protocols", k=3)
    hits = int(reg.value("serve", "result_cache_hits_total"))
    print(f"\nranked 'gossip protocols' twice: {len(first.results)} results, "
          f"cache hit on the repeat ({hits} hit)")

    # -- invalidation on publish -------------------------------------------
    nodes[2].publish(Document("fresh", "fresh gossip protocols just published"))
    await converge(nodes)
    after = await sched.ranked("gossip protocols", k=3)
    stale = int(reg.value("serve", "result_cache_stale_total"))
    assert any(d.doc_id == "fresh" for d in after.results)
    print(f"peer 2 published 'fresh': stale entry evicted ({stale} stale), "
          f"new answer includes it")

    # -- admission control under overload ----------------------------------
    tiny = QueryScheduler(
        nodes[0], ServeConfig(max_concurrent=1, max_queue=1)
    )
    gate = asyncio.Event()
    inner = tiny.client.ranked_search

    async def slowed(query: str, k: int = 20):
        await gate.wait()
        return await inner(query, k)

    tiny.client.ranked_search = slowed
    burst = [
        asyncio.ensure_future(tiny.ranked(q, k=3))
        for q in ("epidemic algorithms", "bloom membership", "random exchanges",
                  "replicated database")
    ]
    await asyncio.sleep(0.05)
    gate.set()
    outcomes = await asyncio.gather(*burst, return_exceptions=True)
    rejected = [r for r in outcomes if isinstance(r, QueryRejected)]
    served = [r for r in outcomes if not isinstance(r, BaseException)]
    print(f"\nburst of {len(burst)} queries at a 1-slot scheduler: "
          f"{len(served)} served, {len(rejected)} rejected "
          f"(retry_after {rejected[0].retry_after_s:.2f}s)" if rejected else
          "overload burst was fully absorbed")

    # -- persistent queries over the wire ----------------------------------
    client = SubscriptionClient()
    await client.start()
    upcalls: list = []
    sub_id = await client.subscribe(nodes[0].address, "gossip", upcalls.append)
    print(f"\nsubscribed #{sub_id} at peer 0; publishing on peer 1...")
    nodes[1].publish(Document("late-news", "late gossip reaches subscribers"))
    for _ in range(40):
        for node in nodes:
            await node.gossip_round()
        await asyncio.sleep(0)
        if upcalls:
            break
    for note in upcalls:
        print(f"upcall sub={note.sub_id} origin=peer-{note.origin} "
              f"doc={note.doc_id!r}")
    assert upcalls and upcalls[0].doc_id == "late-news"

    await client.close()
    for node in nodes:
        await node.stop()
    print("all peers stopped")


if __name__ == "__main__":
    asyncio.run(main())
