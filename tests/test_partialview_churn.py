"""Partial-view behavior under churn: shard rebalance and member death.

Two failure surfaces:

* **shard churn** — adding or removing a shard on the consistent-hash
  ring may move at most its fair share of pid assignments
  (``ceil(N / (S+1)) + 1``), every mover must involve the changed shard,
  and removal must restore the original assignment exactly (the ring is
  deterministic, not history-dependent);
* **member death** — killing a shard member mid-community must neither
  break search (the fan-out falls through to the shard's runner-up) nor
  permanently lose its shard-mates' filters: a survivor that dropped a
  home filter re-learns it through the ``want_members`` backfill path.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.constants import BloomConfig, PartialViewConfig
from repro.gossip.partialview import ShardMap
from repro.net.client import NetworkSearchClient
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document

pytestmark = [pytest.mark.chaos, pytest.mark.partialview]

BLOOM = BloomConfig(num_bits=4096, num_hashes=2)
PVIEW = PartialViewConfig(num_shards=3, sample_size=2)


# -- consistent-hash rebalance bounds -----------------------------------------

#: (num_pids, num_shards) — the bounds below hold at POINTS_PER_SHARD
#: virtual points per shard for each of these.
REBALANCE_CONFIGS = [(200, 8), (500, 8), (256, 8)]


@pytest.mark.parametrize("n,s", REBALANCE_CONFIGS)
def test_adding_a_shard_moves_at_most_its_fair_share(n, s):
    smap = ShardMap(s)
    before = {pid: smap.shard_of(pid) for pid in range(n)}
    smap.add_shard(s)  # shard id s joins the ring
    after = {pid: smap.shard_of(pid) for pid in range(n)}
    movers = {pid for pid in before if before[pid] != after[pid]}
    bound = math.ceil(n / (s + 1)) + 1
    assert len(movers) <= bound, (len(movers), bound)
    # Every mover moved TO the new shard — no unrelated reshuffling.
    assert all(after[pid] == s for pid in movers)


@pytest.mark.parametrize("n,s", REBALANCE_CONFIGS)
def test_removing_a_shard_moves_only_its_own_pids(n, s):
    smap = ShardMap(s + 1)
    before = {pid: smap.shard_of(pid) for pid in range(n)}
    victim = s  # the highest shard id leaves the ring
    smap.remove_shard(victim)
    after = {pid: smap.shard_of(pid) for pid in range(n)}
    movers = {pid for pid in before if before[pid] != after[pid]}
    # Exactly the victim's pids move (their arcs fall to successors);
    # everyone else's successor position is untouched.
    assert movers == {pid for pid in before if before[pid] == victim}
    bound = math.ceil(n / (s + 1)) + 1
    assert len(movers) <= bound, (len(movers), bound)


@pytest.mark.parametrize("n,s", REBALANCE_CONFIGS)
def test_shard_churn_round_trip_restores_assignments(n, s):
    smap = ShardMap(s)
    before = {pid: smap.shard_of(pid) for pid in range(n)}
    smap.add_shard(s)
    smap.remove_shard(s)
    assert {pid: smap.shard_of(pid) for pid in range(n)} == before


def test_two_instances_agree_after_identical_churn():
    # Shard membership is gossip-free state: any two nodes applying the
    # same shard set must compute identical assignments.
    a, b = ShardMap(4), ShardMap(4)
    a.add_shard(4)
    b.add_shard(4)
    a.remove_shard(1)
    b.remove_shard(1)
    assert [a.shard_of(pid) for pid in range(300)] == [
        b.shard_of(pid) for pid in range(300)
    ]


# -- member death in a live partial-view community ----------------------------


def _pv_node(net: LoopbackNetwork, pid: int) -> NetworkPeer:
    return NetworkPeer(
        pid,
        "peer",
        pid,
        transport=net.transport(),
        seed=pid,
        registry=Registry(),
        bloom_config=BLOOM,
        partial_view=PVIEW,
    )


async def _converge(nodes: list[NetworkPeer], rounds: int = 40) -> None:
    for _ in range(rounds):
        for node in nodes:
            await node.gossip_round()


def test_killed_shard_member_neither_breaks_search_nor_loses_filters():
    async def scenario():
        net = LoopbackNetwork()
        nodes = [_pv_node(net, pid) for pid in range(9)]
        for node in nodes:
            await node.start()
        for node in nodes:
            pid = node.peer_id
            node.publish(Document(f"doc-{pid}", f"topic{pid} shared corpus term"))
        for node in nodes[1:]:
            await node.join(nodes[0].address)
        await _converge(nodes)

        # Kill one member of a shard that is foreign to the searcher and
        # has at least one survivor to fall through to.
        searcher = nodes[0]
        pview = searcher.pview
        assert pview is not None
        by_shard: dict[int, list[NetworkPeer]] = {}
        for node in nodes[1:]:
            by_shard.setdefault(pview.shard_of(node.peer_id), []).append(node)
        shard, members = next(
            (s, m)
            for s, m in sorted(by_shard.items())
            if s != pview.home and len(m) >= 2
        )
        victim, survivor = members[0], members[1]
        await victim.stop()

        # Search still answers: the fan-out's first contact may hit the
        # corpse, fail, and fall through to the shard's runner-up.
        client = NetworkSearchClient(searcher)
        result = await client.ranked_search("shared corpus", k=9)
        got = {d.doc_id for d in result.results}
        live = {f"doc-{n.peer_id}" for n in nodes if n is not victim}
        assert live <= got

        # A survivor in the victim's shard drops one of its home filters
        # (as a restart-from-empty would): the want_members backfill path
        # re-learns it from whichever peer still holds a copy.
        mate = survivor
        lost_pid = next(
            pid
            for pid, entry in mate.peer.directory.items()
            if pid != mate.peer_id
            and mate.pview is not None
            and mate.pview.shard_of(pid) == mate.pview.home
            and entry.bloom_filter is not None
        )
        mate.peer.directory[lost_pid].bloom_filter = None
        for _ in range(30):
            await mate.partialview.pull_summaries(backfill=True)  # random target
            if mate.peer.directory[lost_pid].bloom_filter is not None:
                break
        relearned = mate.peer.directory[lost_pid].bloom_filter
        assert relearned is not None
        # Bit-identical to the authoritative copy, not merely non-None.
        owner = next(n for n in nodes if n.peer_id == lost_pid)
        if owner is not victim:
            assert relearned == owner.peer.store.bloom_filter

        for node in nodes:
            if node is not victim:
                await node.stop()

    asyncio.run(scenario())
