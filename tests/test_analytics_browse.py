"""The popularity-ranked browsable namespace, local and community-wide.

``local_listing`` answers the node-side BrowseRequest RPC from the local
index; :class:`CommunityBrowser` runs community listings through the
:class:`~repro.serve.scheduler.QueryScheduler`, so browse traffic gets
the same admission control, result caching, and generation-keyed
invalidation as search — a publish moves the directory generation and
the stale listing is evicted, never served.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analytics.browse import CommunityBrowser, local_listing
from repro.constants import AnalyticsConfig
from repro.gossip.wire import BrowseRequest
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.serve.scheduler import QueryScheduler
from repro.text.document import Document

pytestmark = pytest.mark.analytics

DOCS = [
    Document("d-gossip", "gossip protocols spread rumors epidemically"),
    Document("d-bloom", "gossip summarized by bloom filters compactly"),
    Document("d-rank", "gossip ranking orders documents by similarity"),
]


def _node(net: LoopbackNetwork, pid: int) -> NetworkPeer:
    return NetworkPeer(
        pid,
        "peer",
        pid,
        transport=net.transport(),
        seed=pid,
        registry=Registry(),
        analytics_config=AnalyticsConfig(),
    )


async def _solo():
    """One started node holding DOCS, with d-bloom made popular."""
    net = LoopbackNetwork()
    node = _node(net, 0)
    await node.start()
    for doc in DOCS:
        node.publish(doc)
    for _ in range(5):
        node.analytics.record_access("d-bloom")
    node.analytics.record_access("d-rank")
    return node


def _browse_scheduler(node: NetworkPeer) -> QueryScheduler:
    sched = QueryScheduler(node)
    sched.attach_browser(CommunityBrowser(sched))
    return sched


# -- local_listing ----------------------------------------------------------


def test_local_listing_is_popularity_ordered():
    async def scenario():
        node = await _solo()
        reply = local_listing(node, BrowseRequest("/gossip", 10))
        assert reply.found
        names = [doc_id for doc_id, _, _ in reply.entries]
        # d-bloom (5 accesses) first, d-rank (1) next, d-gossip (0) last.
        assert names == ["d-bloom", "d-rank", "d-gossip"]
        scores = [pop for _, _, pop in reply.entries]
        assert scores == sorted(scores, reverse=True)
        for doc_id, link, _ in reply.entries:
            assert link == f"planetp://{doc_id}"
        await node.stop()

    asyncio.run(scenario())


def test_local_listing_rejects_bad_paths_softly():
    async def scenario():
        node = await _solo()
        for path in ["/", "", "relative/path", "/the/of"]:  # all-stopwords too
            reply = local_listing(node, BrowseRequest(path, 10))
            assert not reply.found
            assert reply.entries == ()
        await node.stop()

    asyncio.run(scenario())


def test_local_listing_clamps_k_and_reports_generation():
    async def scenario():
        node = await _solo()
        reply = local_listing(node, BrowseRequest("/gossip", 1))
        assert len(reply.entries) == 1
        before = reply.generation
        node.publish(Document("d-new", "brand new gossip arrives"))
        after = local_listing(node, BrowseRequest("/gossip", 10))
        assert after.generation != before
        assert "d-new" in [doc_id for doc_id, _, _ in after.entries]
        await node.stop()

    asyncio.run(scenario())


# -- CommunityBrowser through the scheduler --------------------------------


def test_scheduler_browse_requires_an_attached_browser():
    async def scenario():
        node = await _solo()
        sched = QueryScheduler(node)
        with pytest.raises(RuntimeError, match="no browser attached"):
            await sched.browse("/gossip")
        with pytest.raises(ValueError):
            await _browse_scheduler(node).browse("/gossip", k=0)
        await node.stop()

    asyncio.run(scenario())


def test_community_listing_is_popularity_ordered():
    async def scenario():
        node = await _solo()
        sched = _browse_scheduler(node)
        listing = await sched.browse("/gossip", k=10)
        assert listing.query == "gossip"
        assert listing.names() == ["d-bloom", "d-rank", "d-gossip"]
        pops = [e.popularity for e in listing.entries]
        assert pops == sorted(pops, reverse=True)
        await node.stop()

    asyncio.run(scenario())


def test_repeated_browse_is_a_cache_hit():
    async def scenario():
        node = await _solo()
        sched = _browse_scheduler(node)
        first = await sched.browse("/gossip", k=5)
        again = await sched.browse("/gossip", k=5)
        assert again.names() == first.names()
        assert node.obs.value("serve", "result_cache_hits_total") == 1
        assert node.obs.value("serve", "queries_admitted_total") == 1
        await node.stop()

    asyncio.run(scenario())


def test_publish_invalidates_a_cached_listing():
    async def scenario():
        node = await _solo()
        sched = _browse_scheduler(node)
        before = await sched.browse("/gossip", k=10)
        assert "d-fresh" not in before.names()
        node.publish(Document("d-fresh", "fresh gossip just published"))
        after = await sched.browse("/gossip", k=10)
        # The stale listing was evicted, never served: zero stale serves.
        assert "d-fresh" in after.names()
        assert after.generation != before.generation
        assert node.obs.value("serve", "result_cache_stale_total") == 1
        assert node.obs.value("serve", "result_cache_hits_total") == 0
        await node.stop()

    asyncio.run(scenario())


def test_browse_rejects_malformed_paths():
    async def scenario():
        node = await _solo()
        sched = _browse_scheduler(node)
        with pytest.raises(ValueError):
            await sched.browse("/the/of", k=5)  # analyzes to zero terms
        await node.stop()

    asyncio.run(scenario())


def test_community_popularity_dominates_search_relevance():
    async def scenario():
        # d-bloom mentions "gossip" once; d-gossip is far more relevant
        # to the query — but community access counts outrank relevance.
        node = await _solo()
        sched = _browse_scheduler(node)
        listing = await sched.browse("/gossip", k=2)
        assert listing.names()[0] == "d-bloom"
        assert len(listing.entries) == 2  # k truncates after the re-rank
        await node.stop()

    asyncio.run(scenario())
