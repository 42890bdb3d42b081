"""The serving-plane scheduler (repro.serve.scheduler) and the bounded
search client it drives.

Admission control is exercised with a blocked search slot: arrivals past
``max_queue`` bounce immediately, a queued query that outlives its
deadline is shed when its slot finally frees, and both rejections carry a
``retry_after_s`` hint that tracks the measured mean latency.  Caching is
exercised end to end — a repeated query is answered without re-running
the search, and a publish moves the directory generation so the stale
entry is evicted, never served.  The client half covers the fan-out
semaphore and the per-peer deadline.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.constants import ServeConfig
from repro.net.client import NetworkSearchClient
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.serve.scheduler import PeerGate, QueryRejected, QueryScheduler
from repro.text.document import Document

DOCS = [
    Document("d-gossip", "gossip protocols spread rumors epidemically"),
    Document("d-bloom", "bloom filters summarize term membership compactly"),
    Document("d-rank", "ranking orders documents by similarity scores"),
]


def _node(net: LoopbackNetwork, pid: int) -> NetworkPeer:
    return NetworkPeer(
        pid, "peer", pid, transport=net.transport(), seed=pid, registry=Registry()
    )


async def _solo_scheduler(config: ServeConfig | None = None):
    """One started node holding DOCS, fronted by a scheduler."""
    net = LoopbackNetwork()
    node = _node(net, 0)
    await node.start()
    for doc in DOCS:
        node.publish(doc)
    return node, QueryScheduler(node, config)


def test_repeated_query_is_a_cache_hit():
    async def scenario():
        node, sched = await _solo_scheduler()
        first = await sched.ranked("gossip protocols", k=5)
        again = await sched.ranked("gossip protocols", k=5)
        assert [d.doc_id for d in again.results] == [
            d.doc_id for d in first.results
        ]
        reg = node.obs
        assert reg.value("serve", "result_cache_hits_total") == 1
        assert reg.value("serve", "queries_completed_total") == 2
        # The hit never re-ran the search: only one admission.
        assert reg.value("serve", "queries_admitted_total") == 1
        await node.stop()

    asyncio.run(scenario())


def test_publish_invalidates_the_cache():
    async def scenario():
        node, sched = await _solo_scheduler()
        before = await sched.ranked("gossip", k=5)
        assert "d-fresh" not in [d.doc_id for d in before.results]
        node.publish(Document("d-fresh", "fresh gossip just published"))
        after = await sched.ranked("gossip", k=5)
        assert "d-fresh" in [d.doc_id for d in after.results]
        reg = node.obs
        # The old entry was detected stale and evicted — never served.
        assert reg.value("serve", "result_cache_stale_total") == 1
        assert reg.value("serve", "result_cache_hits_total") == 0
        await node.stop()

    asyncio.run(scenario())


def test_exhaustive_is_cached_and_invalidated_too():
    async def scenario():
        node, sched = await _solo_scheduler()
        assert await sched.exhaustive("bloom filters") == ["d-bloom"]
        await sched.exhaustive("bloom filters")
        assert node.obs.value("serve", "result_cache_hits_total") == 1
        node.publish(Document("d-b2", "more bloom filters arrive"))
        assert await sched.exhaustive("bloom filters") == ["d-b2", "d-bloom"]
        await node.stop()

    asyncio.run(scenario())


def test_input_validation():
    async def scenario():
        node, sched = await _solo_scheduler()
        with pytest.raises(ValueError):
            await sched.ranked("gossip", k=0)
        with pytest.raises(ValueError):
            await sched.ranked("...")  # analyzes to zero terms
        assert await sched.exhaustive("...") == []
        await node.stop()

    asyncio.run(scenario())


def _block_searches(sched: QueryScheduler) -> asyncio.Event:
    """Make the scheduler's searches park until the event is set."""
    release = asyncio.Event()

    async def parked(query: str, k: int = 20):
        await release.wait()
        return f"answer:{query}"

    sched.client.ranked_search = parked  # type: ignore[method-assign]
    return release


def test_full_queue_rejects_with_retry_hint():
    async def scenario():
        node, sched = await _solo_scheduler(
            ServeConfig(max_concurrent=1, max_queue=1)
        )
        release = _block_searches(sched)
        running = asyncio.ensure_future(sched.ranked("gossip"))
        await asyncio.sleep(0)  # let it take the only slot
        queued = asyncio.ensure_future(sched.ranked("bloom"))
        await asyncio.sleep(0)  # let it occupy the one queue spot
        with pytest.raises(QueryRejected) as excinfo:
            await sched.ranked("ranking")
        assert excinfo.value.reason == "admission queue full"
        assert excinfo.value.retry_after_s > 0
        assert node.obs.value("serve", "queries_rejected_total") == 1
        release.set()
        assert await running == "answer:gossip"
        assert await queued == "answer:bloom"
        assert node.obs.value("serve", "queries_completed_total") == 2
        assert node.obs.value("serve", "queries_queued") == 0
        assert node.obs.value("serve", "queries_inflight") == 0
        await node.stop()

    asyncio.run(scenario())


def test_expired_queued_query_is_shed_not_run():
    async def scenario():
        node, sched = await _solo_scheduler(
            ServeConfig(max_concurrent=1, max_queue=4)
        )
        release = _block_searches(sched)
        running = asyncio.ensure_future(sched.ranked("gossip"))
        await asyncio.sleep(0)
        doomed = asyncio.ensure_future(sched.ranked("bloom", deadline_s=0.0))
        await asyncio.sleep(0.01)  # any real wait exceeds a zero deadline
        release.set()
        await running
        with pytest.raises(QueryRejected) as excinfo:
            await doomed
        assert excinfo.value.reason == "deadline exceeded while queued"
        assert node.obs.value("serve", "queries_shed_total") == 1
        # The shed query was never admitted or run.
        assert node.obs.value("serve", "queries_admitted_total") == 1
        await node.stop()

    asyncio.run(scenario())


def test_retry_after_tracks_measured_latency():
    async def scenario():
        node, sched = await _solo_scheduler(ServeConfig(max_concurrent=1))
        assert sched.retry_after() == pytest.approx(0.25)  # coarse default
        node.obs.histogram(
            "serve", "query_latency_seconds", "admission-to-answer time"
        ).observe(2.0)
        assert sched.retry_after() == pytest.approx(2.0)
        await node.stop()

    asyncio.run(scenario())


def test_queued_twin_query_is_answered_from_cache():
    """A query that queued behind an identical one must reuse its answer
    instead of re-running the search (the post-wait cache re-check)."""

    async def scenario():
        node, sched = await _solo_scheduler(
            ServeConfig(max_concurrent=1, max_queue=4)
        )
        release = _block_searches(sched)
        first = asyncio.ensure_future(sched.ranked("gossip"))
        await asyncio.sleep(0)
        twin = asyncio.ensure_future(sched.ranked("gossip"))
        await asyncio.sleep(0)
        release.set()
        assert await first == await twin == "answer:gossip"
        assert node.obs.value("serve", "result_cache_hits_total") == 1
        await node.stop()

    asyncio.run(scenario())


def test_a_miss_is_counted_and_fingerprinted_once(monkeypatch):
    """A query that takes a free slot cannot have been overtaken (no
    await in between): one generation fold, one miss.  Only a query that
    really queued looks again, and that look is a re-check, not a miss."""
    import repro.serve.scheduler as scheduler_module

    folds = 0
    fold = scheduler_module.directory_generation

    def counted(node):
        nonlocal folds
        folds += 1
        return fold(node)

    monkeypatch.setattr(scheduler_module, "directory_generation", counted)

    async def scenario():
        node, sched = await _solo_scheduler(ServeConfig(max_concurrent=1))
        await sched.ranked("gossip protocols", k=5)
        assert folds == 1
        assert node.obs.value("serve", "result_cache_misses_total") == 1
        assert node.obs.value("serve", "result_cache_rechecks_total") == 0

        release = _block_searches(sched)
        running = asyncio.ensure_future(sched.ranked("bloom"))
        await asyncio.sleep(0)
        queued = asyncio.ensure_future(sched.ranked("ranking"))
        await asyncio.sleep(0)
        release.set()
        await asyncio.gather(running, queued)
        assert folds == 1 + 1 + 2  # only the queued one folded twice
        assert node.obs.value("serve", "result_cache_misses_total") == 3
        assert node.obs.value("serve", "result_cache_rechecks_total") == 1
        await node.stop()

    asyncio.run(scenario())


# -- PeerGate -----------------------------------------------------------------


def test_peer_gate_hands_out_one_semaphore_per_peer():
    async def scenario():
        gate = PeerGate(2)
        assert gate.slot(5) is gate.slot(5)
        assert gate.slot(5) is not gate.slot(6)
        async with gate.slot(5):
            async with gate.slot(5):
                assert gate.slot(5).locked()  # cap of 2 reached
            assert not gate.slot(5).locked()

    asyncio.run(scenario())
    with pytest.raises(ValueError):
        PeerGate(0)


# -- the bounded search client ------------------------------------------------


async def _community(net: LoopbackNetwork, n: int) -> list[NetworkPeer]:
    nodes = [_node(net, pid) for pid in range(n)]
    for node in nodes:
        await node.start()
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    for pid, node in enumerate(nodes):
        node.publish(Document(f"d{pid}", f"gossip shard {pid} of the corpus"))
    for _ in range(20):
        await asyncio.gather(*(node.gossip_round() for node in nodes))
    return nodes


def test_fanout_limit_bounds_concurrent_rpcs():
    async def scenario():
        net = LoopbackNetwork(latency_s=0.001)  # force request overlap
        nodes = await _community(net, 5)
        querier = nodes[0]
        inflight, seen_max = 0, 0
        inner = querier.transport.request

        async def counted(address: str, body: bytes) -> bytes:
            nonlocal inflight, seen_max
            inflight += 1
            seen_max = max(seen_max, inflight)
            try:
                return await inner(address, body)
            finally:
                inflight -= 1

        querier.transport.request = counted  # type: ignore[method-assign]
        client = NetworkSearchClient(querier, group_size=4, fanout_limit=1)
        await client.ranked_search("gossip corpus", k=10)
        assert seen_max == 1, f"fan-out cap leaked: {seen_max} concurrent RPCs"
        for node in nodes:
            await node.stop()

    asyncio.run(scenario())


def test_peer_deadline_abandons_a_stalled_peer():
    async def scenario():
        net = LoopbackNetwork()
        nodes = await _community(net, 3)
        querier, stalled = nodes[0], nodes[2]
        inner = querier.transport.request

        async def wedged(address: str, body: bytes) -> bytes:
            if address == stalled.address:
                await asyncio.sleep(60.0)
            return await inner(address, body)

        querier.transport.request = wedged  # type: ignore[method-assign]
        # One wave covering everyone, so the wedged peer is contacted.
        client = NetworkSearchClient(querier, group_size=3, peer_deadline_s=0.05)
        result = await client.ranked_search("gossip corpus", k=10)
        # The wedged peer contributed nothing, everyone else answered.
        got = {d.doc_id for d in result.results}
        assert "d0" in got and "d1" in got and "d2" not in got
        assert (
            querier.obs.value("client", "peer_deadline_timeouts_total") == 1
        )
        # A deadline miss is a failed contact: marked offline locally.
        assert not querier.membership.is_online(stalled.peer_id)
        for node in nodes:
            await node.stop()

    asyncio.run(scenario())


def test_client_bound_validation():
    async def scenario():
        net = LoopbackNetwork()
        node = _node(net, 0)
        with pytest.raises(ValueError):
            NetworkSearchClient(node, fanout_limit=0)
        with pytest.raises(ValueError):
            NetworkSearchClient(node, peer_deadline_s=0.0)

    asyncio.run(scenario())
