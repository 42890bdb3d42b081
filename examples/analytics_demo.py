#!/usr/bin/env python
"""Analytics demo: frequent-term mining and the popularity-ranked namespace.

Walks the :mod:`repro.analytics` subsystem end to end on a small
community with a deliberately **skewed** corpus:

1. five peers publish documents drawn from a head-heavy topic
   distribution, so the community has a true top-10 of frequent terms;
2. each gossip round piggybacks one push-pull sketch exchange, and after
   a handful of rounds *every* node's estimated top-10 matches the exact
   central oracle (computed by summing true term frequencies over every
   index — something no real peer could do);
3. once converged, further rounds adopt nothing: a quiescent community
   trades (origin, epoch) digests only;
4. the community is *browsed* — ``/gossip`` is the query "gossip", and
   the listing comes back ordered by gossiped access counts, most
   popular document first, each entry carrying a ``planetp://`` link.

Run:  python examples/analytics_demo.py
"""

import asyncio
import random
from collections import Counter

from repro.analytics.browse import CommunityBrowser
from repro.constants import AnalyticsConfig
from repro.net.node import NetworkPeer
from repro.serve.scheduler import QueryScheduler
from repro.text.document import Document

TOPICS = [
    "gossip", "bloom", "filter", "rumor", "epidemic", "replica",
    "directory", "snippet", "ranking", "summary", "membership", "search",
    "namespace", "popularity", "sketch", "frequency", "community", "peer",
]
TOP_K = 10


def skewed_text(rng: random.Random, pid: int, d: int) -> str:
    """Six topic words, head-heavy: topic i picked with weight 1/(i+1)."""
    weights = [1.0 / (i + 1) for i in range(len(TOPICS))]
    words = set()
    while len(words) < 6:
        words.add(rng.choices(TOPICS, weights=weights)[0])
    filler = " ".join(f"peer{pid}note{d}x{i}" for i in range(3))
    return " ".join(sorted(words)) + " " + filler


def oracle_top_terms(nodes: list[NetworkPeer], k: int) -> list[str]:
    """The exact community top-k: true frequencies over every index."""
    totals: Counter[str] = Counter()
    for node in nodes:
        index = node.peer.store.index
        for term in index.terms():
            totals[term] += index.collection_frequency(term)
    return [t for t, _ in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))][:k]


async def main() -> None:
    """Run the analytics walkthrough end to end."""
    rng = random.Random(2003)
    nodes = [
        NetworkPeer(
            pid, "127.0.0.1", 0, seed=pid, analytics_config=AnalyticsConfig()
        )
        for pid in range(5)
    ]
    for node in nodes:
        await node.start()
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    for node in nodes:
        for d in range(4):
            node.publish(Document(f"p{node.peer_id}-d{d}",
                                  skewed_text(rng, node.peer_id, d)))
    print(f"5 peers up, 20 documents published from a skewed topic mix")

    # -- sketch gossip until every estimate matches the oracle --------------
    expected = oracle_top_terms(nodes, TOP_K)
    print(f"\ncentral oracle's top-{TOP_K}: {' '.join(expected)}")
    for round_no in range(1, 31):
        for node in nodes:
            await node.gossip_round()
        worst = min(
            len({t for t, _ in n.analytics.sketch.top_terms(TOP_K)} & set(expected))
            / TOP_K
            for n in nodes
        )
        if worst >= 1.0:
            print(f"after {round_no} round(s): every node's estimated "
                  f"top-{TOP_K} matches the oracle exactly")
            break
    else:
        raise SystemExit("sketches did not converge")
    estimate = nodes[-1].analytics.sketch.top_terms(TOP_K)
    print("peer 4's converged estimate: "
          + " ".join(f"{t}={c}" for t, c in estimate[:5]) + " ...")

    # -- a converged community goes digest-only -----------------------------
    # Estimates can agree before every straggler holds every entry; wait
    # for full digest convergence so the quiescent window is honest.
    for _ in range(30):
        if len({n.analytics.sketch.versions() for n in nodes}) == 1:
            break
        for node in nodes:
            await node.gossip_round()
    adopted_before = sum(
        int(n.obs.value("analytics", "entries_merged_total")) for n in nodes
    )
    for _ in range(3):
        for node in nodes:
            await node.gossip_round()
    adopted = sum(
        int(n.obs.value("analytics", "entries_merged_total")) for n in nodes
    ) - adopted_before
    print(f"\n3 quiescent rounds later: {adopted} entries adopted — the "
          f"community now trades ~12-byte digests only")

    # -- browsing the popularity-ranked namespace ---------------------------
    sched = QueryScheduler(nodes[0])
    sched.attach_browser(CommunityBrowser(sched))
    star = "p2-d0"
    for _ in range(7):
        nodes[2].analytics.record_access(star)  # hot on its holder ...
    for _ in range(6):  # ... and gossiped to the browsing peer
        for node in nodes:
            await node.gossip_round()
    listing = await sched.browse("/gossip", k=5)
    print(f"\nbrowsing /gossip (query {listing.query!r}), most popular first:")
    for entry in listing.entries:
        print(f"  {entry.doc_id:<8s} pop={entry.popularity:<3d} {entry.link}")
    assert listing.names()[0] == star

    for node in nodes:
        await node.stop()
    print("\nall peers stopped")


if __name__ == "__main__":
    asyncio.run(main())
