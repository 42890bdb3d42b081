#!/usr/bin/env python
"""Analytics-plane benchmark: top-k accuracy, sketch traffic, browse.

Boots a loopback community with the analytics plane on and a **skewed**
corpus (Zipf-ish topic popularity, so a true top-k exists), and measures
the three things the analytics plane promises:

* **accuracy** — gossip rounds until *every* node's estimated top-10
  frequent terms reach >= 0.9 precision against the exact central
  oracle (the oracle sums true collection frequencies over every node's
  live index);
* **traffic** — per-node-round analytics bytes during convergence, and
  again over a quiescent tail where a converged community must go
  digest-only (entries stop moving; only (origin, epoch) digests do);
* **browse** — popularity-ordered listings served through the
  :class:`~repro.serve.scheduler.QueryScheduler`: a repeated listing is a cache
  hit, and a publish moves the directory generation so the stale
  listing is evicted — never served.

Usage::

    PYTHONPATH=src python benchmarks/bench_analytics.py --write BENCH_analytics.json
    PYTHONPATH=src python benchmarks/bench_analytics.py --quick --check BENCH_analytics.json

``--check`` enforces hard floors (precision >= 0.9, zero stale browse
serves, popularity-ordered listings, cache hit on repeat) and gates the
per-round sketch traffic below the committed baseline's ceiling — a
*byte* gate, not a time gate, so one machine's baseline is meaningful on
CI hardware.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
from collections import Counter

import numpy as np

from repro.analytics.browse import CommunityBrowser
from repro.constants import AnalyticsConfig
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.serve.scheduler import QueryScheduler
from repro.text.document import Document

#: Hard floors from the issue's acceptance criteria.
FLOORS = {
    "precision_min": 0.9,  # at least, for the *worst* node
    "stale_served": 0,  # exactly equal
}

#: Topic vocabulary the skew is drawn over.  Documents sample topics
#: Zipf-ishly, so community-wide term frequencies have a clear head the
#: oracle and the sketches must agree on.
TOPICS = [
    "gossip", "bloom", "filter", "rumor", "epidemic", "replica",
    "directory", "snippet", "ranking", "summary", "membership", "search",
    "namespace", "popularity", "sketch", "frequency", "community", "peer",
    "index", "retrieval", "propagation", "convergence", "shard", "census",
]
TOP_K = 10


def _skewed_text(rng: np.random.Generator, pid: int, d: int) -> str:
    """6 topic words, head-heavy: term i drawn with weight 1/(i+1)."""
    weights = 1.0 / (np.arange(len(TOPICS)) + 1.0)
    weights /= weights.sum()
    words = rng.choice(TOPICS, size=6, replace=False, p=weights)
    filler = " ".join(f"peer{pid}noise{d}x{i}" for i in range(4))
    return " ".join(words) + " " + filler


async def build_community(
    num_peers: int, docs_per_peer: int, rng: np.random.Generator
) -> list[NetworkPeer]:
    """A converged loopback community, analytics on, skewed corpus."""
    net = LoopbackNetwork()
    nodes = [
        NetworkPeer(
            pid, "peer", pid, transport=net.transport(), seed=pid,
            registry=Registry(), analytics_config=AnalyticsConfig(),
        )
        for pid in range(num_peers)
    ]
    for node in nodes:
        await node.start()
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    for _ in range(60):
        for node in nodes:
            await node.gossip_round()
        if len({node.core.digest for node in nodes}) == 1:
            break
    else:
        raise RuntimeError("community never converged")
    # Publish only *after* the directory converges, so the accuracy
    # segment measures sketch propagation, not directory warm-up.
    for node in nodes:
        for d in range(docs_per_peer):
            node.publish(
                Document(f"p{node.peer_id}-d{d}", _skewed_text(rng, node.peer_id, d))
            )
    return nodes


def oracle_top_terms(nodes: list[NetworkPeer], k: int) -> set[str]:
    """The exact community top-k: true frequencies over every index."""
    totals: Counter[str] = Counter()
    for node in nodes:
        index = node.peer.store.index
        for term in index.terms():
            totals[term] += index.collection_frequency(term)
    ordered = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return {term for term, _ in ordered[:k]}


def _precisions(nodes: list[NetworkPeer], expected: set[str]) -> list[float]:
    return [
        len(set(t for t, _ in node.analytics.sketch.top_terms(TOP_K)) & expected)
        / len(expected)
        for node in nodes
    ]


def _analytics_bytes(nodes: list[NetworkPeer]) -> float:
    return sum(
        node.obs.value("node", "analytics_real_bytes_total") for node in nodes
    )


async def segment_accuracy(nodes: list[NetworkPeer], max_rounds: int) -> dict:
    """Rounds until the worst node's top-10 covers >= 90% of the oracle's."""
    expected = oracle_top_terms(nodes, TOP_K)
    bytes_before = _analytics_bytes(nodes)
    rounds = 0
    precision_min = min(_precisions(nodes, expected))
    while precision_min < FLOORS["precision_min"] and rounds < max_rounds:
        for node in nodes:
            await node.gossip_round()
        rounds += 1
        precision_min = min(_precisions(nodes, expected))
    # Keep gossiping to full digest convergence for the traffic segment.
    extra = 0
    while extra < max_rounds and len(
        {node.analytics.sketch.versions() for node in nodes}
    ) > 1:
        for node in nodes:
            await node.gossip_round()
        extra += 1
    spent = _analytics_bytes(nodes) - bytes_before
    per_node_round = spent / (max(1, rounds + extra) * len(nodes))
    return {
        "oracle_top_k": sorted(expected),
        "precision_min": precision_min,
        "rounds_to_precision": rounds,
        "rounds_to_digest_convergence": rounds + extra,
        "converge_bytes_per_node_round": per_node_round,
    }


async def segment_traffic(nodes: list[NetworkPeer], tail_rounds: int) -> dict:
    """Quiescent tail: a converged community must trade digests only."""
    merged_before = sum(
        node.obs.value("analytics", "entries_merged_total") for node in nodes
    )
    bytes_before = _analytics_bytes(nodes)
    for _ in range(tail_rounds):
        for node in nodes:
            await node.gossip_round()
    merged = sum(
        node.obs.value("analytics", "entries_merged_total") for node in nodes
    ) - merged_before
    spent = _analytics_bytes(nodes) - bytes_before
    return {
        "tail_rounds": tail_rounds,
        "entries_adopted_in_tail": int(merged),
        "steady_bytes_per_node_round": spent / (tail_rounds * len(nodes)),
    }


async def segment_browse(nodes: list[NetworkPeer]) -> dict:
    """Scheduler-fronted browse: ordering, caching, zero stale serves."""
    server = nodes[0]
    sched = QueryScheduler(server)
    sched.attach_browser(CommunityBrowser(sched))
    reg = server.obs
    # Make one document communally popular so the re-rank has teeth.
    popular = f"p{server.peer_id}-d0"
    for _ in range(5):
        server.analytics.record_access(popular)
    path = "/gossip"
    first = await sched.browse(path, k=TOP_K)
    again = await sched.browse(path, k=TOP_K)
    pops = [e.popularity for e in first.entries]
    ordered = pops == sorted(pops, reverse=True)
    hits = reg.value("serve", "result_cache_hits_total")

    # A remote publish moves the generation once gossip delivers it; the
    # re-issued listing must include the fresh document, never the stale
    # cached page.  The marker word is unique, so "fresh missing" is
    # unambiguously a stale serve.
    publisher = nodes[-1]
    publisher.publish(Document("fresh-doc", "quagga gossip page added late"))
    for _ in range(80):
        for node in nodes:
            await node.gossip_round()
        if server.replica_of(publisher.peer_id) == publisher.peer.store.bloom_filter:
            break
    else:
        raise RuntimeError("publish never reached the serving replica")
    after = await sched.browse(path, k=4 * TOP_K)
    fresh_served = "fresh-doc" in after.names()
    return {
        "popularity_ordered": ordered,
        "top_listing_is_popular": bool(first.names() and first.names()[0] == popular),
        "cache_hits": int(hits),
        "repeat_was_cached": hits >= 1 and again.names() == first.names(),
        "fresh_after_publish": fresh_served,
        "stale_served": 0 if fresh_served else 1,
        "stale_evictions": int(reg.value("serve", "result_cache_stale_total")),
    }


def run_sweep(quick: bool, seed: int = 20030612) -> dict:
    rng = np.random.default_rng(seed)

    async def sweep() -> dict:
        nodes = await build_community(
            num_peers=8 if quick else 16,
            docs_per_peer=3 if quick else 6,
            rng=rng,
        )
        try:
            accuracy = await segment_accuracy(nodes, max_rounds=40)
            traffic = await segment_traffic(nodes, tail_rounds=5 if quick else 10)
            browse = await segment_browse(nodes)
        finally:
            for node in nodes:
                await node.stop()
        return {
            "meta": {
                "quick": quick,
                "num_peers": len(nodes),
                "top_k": TOP_K,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "accuracy": accuracy,
            "traffic": traffic,
            "browse": browse,
        }

    return asyncio.run(sweep())


def check_regression(results: dict, baseline: dict, threshold: float) -> list[str]:
    """Failures vs floors and the committed byte ceiling; empty means pass."""
    failures = []
    acc, tr, br = results["accuracy"], results["traffic"], results["browse"]
    if acc["precision_min"] < FLOORS["precision_min"]:
        failures.append(
            f"accuracy: worst node's top-{TOP_K} precision "
            f"{acc['precision_min']:.0%} is below the 90% floor"
        )
    if br["stale_served"] != FLOORS["stale_served"]:
        failures.append(
            f"browse: {br['stale_served']} stale listing(s) served after "
            f"the directory moved"
        )
    if not br["fresh_after_publish"]:
        failures.append(
            "browse: the re-issued listing missed the freshly published document"
        )
    if not br["popularity_ordered"]:
        failures.append("browse: listing was not popularity-ordered")
    if not br["repeat_was_cached"]:
        failures.append("browse: the repeated listing was not a cache hit")
    # The byte gate: per-round sketch traffic must stay below the
    # committed ceiling (baseline x (1 + threshold)), both converging
    # and quiescent — and quiescence must actually be digest-only.
    base_tr = baseline.get("traffic", {})
    base_acc = baseline.get("accuracy", {})
    for label, spent, ceiling in [
        (
            "converging",
            acc["converge_bytes_per_node_round"],
            base_acc.get("converge_bytes_per_node_round"),
        ),
        (
            "steady-state",
            tr["steady_bytes_per_node_round"],
            base_tr.get("steady_bytes_per_node_round"),
        ),
    ]:
        if ceiling and spent > ceiling * (1.0 + threshold):
            failures.append(
                f"traffic: {label} sketch traffic {spent:.0f} B/node-round "
                f"exceeds the committed ceiling {ceiling:.0f} x "
                f"(1 + {threshold:.0%})"
            )
    if tr["entries_adopted_in_tail"] != 0:
        failures.append(
            f"traffic: a quiescent community still adopted "
            f"{tr['entries_adopted_in_tail']} entries — not digest-only"
        )
    return failures


def _report(results: dict) -> str:
    acc, tr, br = results["accuracy"], results["traffic"], results["browse"]
    return "\n".join(
        [
            f"accuracy ({results['meta']['num_peers']} peers, top-{TOP_K}):",
            f"  min precision {acc['precision_min']:.0%} after "
            f"{acc['rounds_to_precision']} round(s); full digest convergence "
            f"after {acc['rounds_to_digest_convergence']}",
            f"  converging traffic {acc['converge_bytes_per_node_round']:.0f} "
            f"B/node-round",
            f"traffic (quiescent tail of {tr['tail_rounds']} rounds):",
            f"  {tr['steady_bytes_per_node_round']:.0f} B/node-round, "
            f"{tr['entries_adopted_in_tail']} entries adopted (digest-only)",
            "browse:",
            f"  popularity-ordered: {br['popularity_ordered']}; most popular "
            f"listed first: {br['top_listing_is_popular']}; repeat cached: "
            f"{br['repeat_was_cached']}",
            f"  fresh document after remote publish: {br['fresh_after_publish']} "
            f"({br['stale_evictions']} stale eviction); stale listings served: "
            f"{br['stale_served']}",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    # __doc__ is None under python -OO; the benches must still run there.
    parser = argparse.ArgumentParser(
        description=(__doc__ or "analytics-plane benchmark").splitlines()[0]
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--write", metavar="PATH", help="write results JSON")
    parser.add_argument(
        "--check", metavar="PATH", help="compare against a baseline JSON"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.40,
        help="allowed fractional traffic growth vs baseline (default 0.40)",
    )
    args = parser.parse_args(argv)

    results = run_sweep(quick=args.quick)
    print(_report(results))
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.write}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_regression(results, baseline, args.threshold)
        if failures:
            print("REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"ok: no analytics-plane regression vs {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
