#!/usr/bin/env python
"""Query-plane benchmark: QPS, tail latency, caching, and load shedding.

Boots a loopback community (every RPC crosses the in-memory fabric with
a small injected latency), fronts one member with a
:class:`~repro.serve.scheduler.QueryScheduler`, and measures three things the
serving plane promises:

* **throughput** — a repeated-query mix at the default admission limits:
  queries per second, executed-search p50/p99 from the scheduler's
  ``serve.query_latency_seconds`` histogram, the result-cache hit rate,
  and the wall-clock speedup of an all-hits pass over the cold pass;
* **invalidation** — a document published on a *different* peer moves
  the directory generation once gossip delivers it; the re-issued query
  must return the new document (stale answers are never served);
* **overload** — a burst at a one-slot scheduler: arrivals beyond the
  bounded queue are rejected with ``retry_after`` hints, counted, and
  the plane keeps answering what it admitted.

Usage::

    PYTHONPATH=src python benchmarks/bench_qps.py --write BENCH_qps.json
    PYTHONPATH=src python benchmarks/bench_qps.py --quick --check BENCH_qps.json

``--check`` enforces hard floors (cache hit rate > 0, zero stale serves,
fresh-after-publish, rejections under overload) and compares *ratios*
(hit rate, capped cache speedup) against the committed baseline — never
absolute times, so one machine's baseline is meaningful on CI hardware.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time

import numpy as np

from repro.constants import ServeConfig
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.serve.scheduler import QueryRejected, QueryScheduler
from repro.text.document import Document

#: Hard floors from the issue's acceptance criteria.
FLOORS = {
    "cache_hit_rate": 0.0,  # strictly greater than
    "stale_served": 0,  # exactly equal
    "rejected_min": 1,  # at least
}

#: An all-hits pass can be arbitrarily faster than the cold pass; cap the
#: ratio before baseline comparison so the gate is stable across machines.
SPEEDUP_CAP = 50.0

#: Shared topic vocabulary: queries drawn from it match some-but-not-all
#: peers, so ranked search exercises real fan-out.
TOPICS = [
    "gossip", "bloom", "filter", "rumor", "epidemic", "replica",
    "directory", "snippet", "ranking", "summary", "membership", "search",
]


async def build_community(
    num_peers: int, docs_per_peer: int, rng: np.random.Generator,
    latency_s: float,
) -> list[NetworkPeer]:
    """A converged loopback community with topic-word documents."""
    net = LoopbackNetwork(latency_s=latency_s)
    nodes = [
        NetworkPeer(
            pid, "peer", pid, transport=net.transport(), seed=pid,
            registry=Registry(),
        )
        for pid in range(num_peers)
    ]
    for node in nodes:
        await node.start()
    for node in nodes:
        for d in range(docs_per_peer):
            words = rng.choice(TOPICS, size=6, replace=False)
            filler = " ".join(f"peer{node.peer_id}noise{i}" for i in range(8))
            node.publish(
                Document(f"p{node.peer_id}-d{d}", " ".join(words) + " " + filler)
            )
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    for _ in range(60):
        for node in nodes:
            await node.gossip_round()
        if len({node.core.digest for node in nodes}) == 1:
            break
    else:
        raise RuntimeError("community never converged")
    return nodes


def _query_mix(rng: np.random.Generator, distinct: int) -> list[str]:
    queries = []
    for _ in range(distinct):
        a, b = rng.choice(TOPICS, size=2, replace=False)
        queries.append(f"{a} {b}")
    return queries


async def _run_pass(
    sched: QueryScheduler, queries: list[str], concurrency: int
) -> float:
    """Issue every query (bounded concurrency); returns wall seconds."""
    started = time.perf_counter()
    for at in range(0, len(queries), concurrency):
        await asyncio.gather(
            *(sched.ranked(q, k=10) for q in queries[at : at + concurrency])
        )
    return time.perf_counter() - started


async def segment_throughput(
    sched: QueryScheduler, rng: np.random.Generator,
    distinct: int, passes: int,
) -> dict:
    queries = _query_mix(rng, distinct)
    reg = sched.obs
    cold_s = await _run_pass(sched, queries, concurrency=8)
    warm_s = cold_s
    total_s = cold_s
    for _ in range(passes - 1):
        warm_s = await _run_pass(sched, queries, concurrency=8)
        total_s += warm_s
    snap = reg.snapshot("serve", "query_latency_seconds")
    hits = reg.value("serve", "result_cache_hits_total")
    misses = reg.value("serve", "result_cache_misses_total")
    executed = int(snap.total) if snap is not None else 0
    return {
        "queries": distinct * passes,
        "distinct": distinct,
        "passes": passes,
        "qps": distinct * passes / total_s,
        "p50_ms": snap.quantile(0.5) * 1e3 if executed else 0.0,
        "p99_ms": snap.quantile(0.99) * 1e3 if executed else 0.0,
        "executed_searches": executed,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cold_pass_s": cold_s,
        "warm_pass_s": warm_s,
        "cache_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
    }


async def segment_invalidation(
    sched: QueryScheduler, nodes: list[NetworkPeer]
) -> dict:
    """Publish on a remote peer; the cached answer must go stale, and the
    re-issued query must include the new document."""
    # A term no seeded document carries: the pre-publish answer is a
    # cached empty set, and after the publish only the fresh document can
    # satisfy it — so "fresh missing" is unambiguously a stale serve, not
    # a ranking artifact of topic words shared across the community.
    query = "quagga gossip"
    before = await sched.ranked(query, k=10)
    await sched.ranked(query, k=10)  # ensure the entry is cached & hot
    reg = sched.obs
    stale_before = reg.value("serve", "result_cache_stale_total")

    publisher = nodes[-1]
    publisher.publish(
        Document("fresh-doc", "quagga gossip news published after caching")
    )
    server = sched.node
    for _ in range(80):
        for node in nodes:
            await node.gossip_round()
        if server.replica_of(publisher.peer_id) == publisher.peer.store.bloom_filter:
            break
    else:
        raise RuntimeError("publish never reached the serving replica")

    after = await sched.ranked(query, k=10)
    fresh_served = any(d.doc_id == "fresh-doc" for d in after.results)
    # A stale serve would be the *old* result coming back after the
    # replica update: fresh missing even though the directory moved.
    stale_served = 0 if fresh_served else 1
    return {
        "fresh_after_publish": fresh_served,
        "stale_served": stale_served,
        "stale_evictions": int(
            reg.value("serve", "result_cache_stale_total") - stale_before
        ),
        "results_before": len(before.results),
        "results_after": len(after.results),
    }


async def segment_overload(
    node: NetworkPeer, rng: np.random.Generator, burst: int
) -> dict:
    """A burst at a one-slot scheduler: bounded queue, counted rejects."""
    sched = QueryScheduler(node, ServeConfig(max_concurrent=1, max_queue=2))
    queries = _query_mix(rng, burst)
    outcomes = await asyncio.gather(
        *(sched.ranked(q, k=10) for q in queries), return_exceptions=True
    )
    rejections = [r for r in outcomes if isinstance(r, QueryRejected)]
    errors = [
        r for r in outcomes
        if isinstance(r, BaseException) and not isinstance(r, QueryRejected)
    ]
    if errors:
        raise errors[0]
    return {
        "burst": burst,
        "served": burst - len(rejections),
        "rejected": len(rejections),
        "retry_after_hint_s": (
            float(np.mean([r.retry_after_s for r in rejections]))
            if rejections
            else 0.0
        ),
        "rejected_counter": int(
            node.obs.value("serve", "queries_rejected_total")
        ),
    }


def run_sweep(quick: bool, seed: int = 20030612) -> dict:
    rng = np.random.default_rng(seed)

    async def sweep() -> dict:
        nodes = await build_community(
            num_peers=6 if quick else 12,
            docs_per_peer=3 if quick else 6,
            rng=rng,
            latency_s=0.0005,
        )
        sched = QueryScheduler(nodes[0])
        try:
            throughput = await segment_throughput(
                sched, rng,
                distinct=8 if quick else 16,
                passes=3 if quick else 5,
            )
            invalidation = await segment_invalidation(sched, nodes)
            overload = await segment_overload(
                nodes[0], rng, burst=12 if quick else 24
            )
        finally:
            for node in nodes:
                await node.stop()
        return {
            "meta": {
                "quick": quick,
                "num_peers": len(nodes),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "throughput": throughput,
            "invalidation": invalidation,
            "overload": overload,
        }

    return asyncio.run(sweep())


def check_regression(results: dict, baseline: dict, threshold: float) -> list[str]:
    """Failures vs floors and the committed baseline; empty means pass."""
    failures = []
    t, inv, ovl = results["throughput"], results["invalidation"], results["overload"]
    if t["cache_hit_rate"] <= FLOORS["cache_hit_rate"]:
        failures.append(
            f"throughput: cache hit rate {t['cache_hit_rate']:.0%} — the "
            f"repeated-query mix never hit the cache"
        )
    if inv["stale_served"] != FLOORS["stale_served"]:
        failures.append(
            f"invalidation: {inv['stale_served']} stale result(s) served "
            f"after the directory moved"
        )
    if not inv["fresh_after_publish"]:
        failures.append(
            "invalidation: the re-issued query missed the freshly "
            "published document"
        )
    if ovl["rejected"] < FLOORS["rejected_min"]:
        failures.append(
            f"overload: burst of {ovl['burst']} produced no rejections — "
            f"admission control is not shedding"
        )
    base_t = baseline.get("throughput", {})
    base_rate = base_t.get("cache_hit_rate")
    if base_rate and t["cache_hit_rate"] < base_rate * (1.0 - threshold):
        failures.append(
            f"throughput: hit rate {t['cache_hit_rate']:.0%} regressed >"
            f"{threshold:.0%} from baseline {base_rate:.0%}"
        )
    base_speedup = base_t.get("cache_speedup")
    if base_speedup:
        capped = min(t["cache_speedup"], SPEEDUP_CAP)
        base_capped = min(base_speedup, SPEEDUP_CAP)
        if capped < base_capped * (1.0 - threshold):
            failures.append(
                f"throughput: cache speedup {capped:.1f}x regressed >"
                f"{threshold:.0%} from baseline {base_capped:.1f}x"
            )
    return failures


def _report(results: dict) -> str:
    t, inv, ovl = results["throughput"], results["invalidation"], results["overload"]
    return "\n".join(
        [
            f"throughput ({t['distinct']} distinct x {t['passes']} passes, "
            f"{results['meta']['num_peers']} peers):",
            f"  {t['qps']:8.1f} queries/s   p50 {t['p50_ms']:.1f} ms   "
            f"p99 {t['p99_ms']:.1f} ms  ({t['executed_searches']} searches ran)",
            f"  cache hit rate {t['cache_hit_rate']:.0%}; all-hits pass "
            f"{min(t['cache_speedup'], SPEEDUP_CAP):.1f}x faster than cold",
            "invalidation:",
            f"  fresh document served after remote publish: "
            f"{inv['fresh_after_publish']} ({inv['stale_evictions']} stale "
            f"eviction); stale results served: {inv['stale_served']}",
            f"overload (burst {ovl['burst']} at 1 slot, queue 2):",
            f"  served {ovl['served']}, rejected {ovl['rejected']} "
            f"(retry_after hint {ovl['retry_after_hint_s']:.2f}s)",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    # __doc__ is None under python -OO; the benches must still run there.
    parser = argparse.ArgumentParser(
        description=(__doc__ or "query-plane benchmark").splitlines()[0]
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--write", metavar="PATH", help="write results JSON")
    parser.add_argument(
        "--check", metavar="PATH", help="compare ratios against a baseline JSON"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.40,
        help="allowed fractional ratio regression vs baseline (default 0.40)",
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
        print(f"ok: no query-plane regression vs {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
