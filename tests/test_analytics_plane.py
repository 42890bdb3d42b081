"""AnalyticsPlane over loopback: epoch aging, digest exchanges, convergence.

Real :class:`~repro.net.node.NetworkPeer` instances on the deterministic
loopback fabric with an active analytics config, driven by explicit
``gossip_round()`` calls — every sketch exchange piggybacks on the round,
so convergence outcomes are reproducible without sockets or timers.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.constants import AnalyticsConfig
from repro.gossip.wire import (
    SketchExchange,
    SketchReply,
    TopTermsReply,
    TopTermsRequest,
)
from repro.net.codec import ErrorReply
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document

pytestmark = pytest.mark.analytics


class Community:
    """N loopback peers with the analytics plane on (or off)."""

    def __init__(
        self,
        n: int,
        config: AnalyticsConfig | None = AnalyticsConfig(),
        seed: int = 0,
    ) -> None:
        self.net = LoopbackNetwork()
        self.registries = {pid: Registry() for pid in range(n)}
        self.nodes = {
            pid: NetworkPeer(
                pid,
                "peer",
                pid,
                transport=self.net.transport(),
                seed=(seed << 16) | pid,
                registry=self.registries[pid],
                analytics_config=config,
            )
            for pid in range(n)
        }

    async def boot(self) -> None:
        for node in self.nodes.values():
            await node.start()
        for pid in range(1, len(self.nodes)):
            await self.nodes[pid].join(self.nodes[0].address)
        for _ in range(200):
            if all(
                node.membership.members() == sorted(self.nodes) for node in self.nodes.values()
            ):
                return
            for node in self.nodes.values():
                await node.gossip_round()
        raise AssertionError("loopback community failed to converge")

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()

    async def rounds(self, n: int) -> None:
        for _ in range(n):
            for node in self.nodes.values():
                await node.gossip_round()

    def sketches_converged(self) -> bool:
        digests = {node.analytics.sketch.versions() for node in self.nodes.values()}
        return len(digests) == 1 and len(next(iter(digests))) == len(self.nodes)


def _run(coro):
    return asyncio.run(coro)


def _doc(doc_id: str, text: str) -> Document:
    return Document(doc_id, text)


# -- epoch aging ------------------------------------------------------------


def test_refresh_bumps_epoch_only_on_change():
    async def scenario():
        community = Community(1)
        node = community.nodes[0]
        await node.start()
        node.publish(_doc("d1", "gossip gossip bloom"))
        assert node.analytics.refresh_local()
        entry = node.analytics.sketch.entries[0]
        assert entry.epoch == 1
        # Nothing changed: the rebuild must NOT bump — a gratuitous bump
        # would make every exchange re-ship the identical entry forever.
        assert not node.analytics.refresh_local()
        assert node.analytics.sketch.entries[0].epoch == 1
        # Publishing changes the index, so the next rebuild bumps.
        node.publish(_doc("d2", "epidemic protocols"))
        assert node.analytics.refresh_local()
        assert node.analytics.sketch.entries[0].epoch == 2
        await node.stop()

    _run(scenario())


def test_removal_shrinks_the_summary_under_a_new_epoch():
    async def scenario():
        community = Community(1)
        node = community.nodes[0]
        await node.start()
        node.publish(_doc("d1", "gossip bloom"))
        node.publish(_doc("d2", "zanzibar zanzibar zanzibar"))
        node.analytics.refresh_local()
        before = dict(node.analytics.sketch.entries[0].terms)
        assert "zanzibar" in before
        node.peer.remove("d2")
        assert node.analytics.refresh_local()
        entry = node.analytics.sketch.entries[0]
        assert entry.epoch == 2
        assert "zanzibar" not in dict(entry.terms)
        await node.stop()

    _run(scenario())


# -- exchange protocol ------------------------------------------------------


def test_on_exchange_serves_exactly_what_the_digest_lacks():
    async def scenario():
        community = Community(2)
        await community.boot()
        a, b = community.nodes[0], community.nodes[1]
        a.publish(_doc("d1", "gossip bloom filters"))
        a.analytics.refresh_local()
        b.publish(_doc("d2", "epidemic replication"))
        b.analytics.refresh_local()
        # A requester whose digest already covers everything gets nothing
        # back but the digest ...
        reply = b.analytics.on_exchange(
            SketchExchange((), b.analytics.sketch.versions())
        )
        assert isinstance(reply, SketchReply)
        assert reply.entries == ()
        assert reply.versions == b.analytics.sketch.versions()
        # ... a stale digest gets exactly the origins it is behind on ...
        stale = tuple((origin, 0) for origin, _ in b.analytics.sketch.versions())
        reply = b.analytics.on_exchange(SketchExchange((), stale))
        assert {e.origin for e in reply.entries} == {
            origin for origin, _ in b.analytics.sketch.versions()
        }
        # ... and an empty digest means "push-only leg": merge, ship nothing.
        reply = b.analytics.on_exchange(SketchExchange((), ()))
        assert reply.entries == ()
        # Pushed entries are merged in (the push-back leg of a round).
        own = a.analytics.sketch.entries[0]
        b.analytics.on_exchange(SketchExchange((own,), ()))
        assert b.analytics.sketch.entries[0] == own
        await community.stop()

    _run(scenario())


def test_community_converges_to_one_digest():
    async def scenario():
        community = Community(4)
        await community.boot()
        for pid, node in community.nodes.items():
            node.publish(_doc(f"d{pid}", f"topic{pid} gossip shared"))
        await community.rounds(12)
        assert community.sketches_converged()
        # Every node computes the same top-k from the same merged state.
        estimates = {
            tuple(node.analytics.sketch.top_terms(5))
            for node in community.nodes.values()
        }
        assert len(estimates) == 1
        await community.stop()

    _run(scenario())


def test_converged_community_goes_digest_only():
    async def scenario():
        community = Community(3)
        await community.boot()
        for pid, node in community.nodes.items():
            node.publish(_doc(f"d{pid}", f"subject{pid} gossip"))
        await community.rounds(12)
        assert community.sketches_converged()
        # Quiescent: further rounds must adopt nothing anywhere.
        merged_before = {
            pid: community.registries[pid].value("analytics", "entries_merged_total")
            for pid in community.nodes
        }
        await community.rounds(5)
        for pid in community.nodes:
            assert (
                community.registries[pid].value("analytics", "entries_merged_total")
                == merged_before[pid]
            )
        await community.stop()

    _run(scenario())


def test_top_terms_rpc_answers_lazily_before_any_round():
    async def scenario():
        community = Community(1)
        node = community.nodes[0]
        await node.start()
        node.publish(_doc("d1", "gossip gossip bloom"))
        # No gossip round has run, but the RPC still serves the node's
        # own contribution via the lazy rebuild.
        reply = node.analytics.on_top_terms(TopTermsRequest(10))
        assert isinstance(reply, TopTermsReply)
        assert reply.origin_count == 1
        assert dict(reply.entries).get("gossip", 0) >= 2
        await node.stop()

    _run(scenario())


def test_departed_origin_is_forgotten_with_its_directory_row():
    async def scenario():
        community = Community(3)
        await community.boot()
        for pid, node in community.nodes.items():
            node.publish(_doc(f"d{pid}", f"area{pid} gossip"))
        await community.rounds(12)
        assert community.sketches_converged()
        survivor = community.nodes[0]
        survivor.analytics.forget(2)
        assert 2 not in survivor.analytics.sketch.entries
        assert survivor.analytics.sketch.versions() == tuple(
            (o, e.epoch)
            for o, e in sorted(survivor.analytics.sketch.entries.items())
        )
        await community.stop()

    _run(scenario())


# -- opt-in gating ----------------------------------------------------------


def test_disabled_plane_rejects_analytics_rpcs():
    async def scenario():
        community = Community(2, config=None)
        await community.boot()
        a = community.nodes[0]
        assert not a.analytics.enabled
        reply = await a.request_peer(1, SketchExchange((), ()))
        assert isinstance(reply, ErrorReply)
        reply = await a.request_peer(1, TopTermsRequest(10))
        assert isinstance(reply, ErrorReply)
        await community.stop()

    _run(scenario())


def test_disabled_plane_costs_nothing():
    async def scenario():
        community = Community(2, config=None)
        await community.boot()
        for pid, node in community.nodes.items():
            node.publish(_doc(f"d{pid}", f"field{pid} gossip"))
            node.analytics.record_access(f"d{pid}")  # gated off
        await community.rounds(8)
        for pid in community.nodes:
            reg = community.registries[pid]
            assert reg.value("node", "analytics_real_bytes_total") == 0
            assert reg.value("analytics", "sketch_exchanges_total") == 0
            assert not community.nodes[pid].analytics.accesses
        await community.stop()

    _run(scenario())


def test_access_counters_feed_the_own_entry():
    async def scenario():
        community = Community(1)
        node = community.nodes[0]
        await node.start()
        node.publish(_doc("d1", "gossip bloom"))
        node.publish(_doc("d2", "epidemic push"))
        for _ in range(3):
            node.analytics.record_access("d1")
        node.analytics.record_access("d2")
        node.analytics.record_access("ghost")  # not held: filtered out
        node.analytics.refresh_local()
        entry = node.analytics.sketch.entries[0]
        assert entry.docs == (("d1", 3), ("d2", 1))
        await node.stop()

    _run(scenario())
