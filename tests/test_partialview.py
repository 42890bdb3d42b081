"""The partial-view layer: shard maps, summaries, and sharded search.

Three levels, cheapest first:

* pure :class:`~repro.gossip.partialview.ShardMap` /
  :class:`~repro.gossip.partialview.ShardSummary` properties — hashing
  determinism, full pid coverage, the summary-as-OR semantics that make
  shard fan-out false-negative-free;
* :class:`~repro.gossip.partialview.PartialView` admission bounds — a
  node never pins more than home + sample full filters;
* a loopback community in partial-view mode — every node converges to a
  bounded filter set plus complete summaries, ranked and exhaustive
  search agree with a flat node on the same corpus, and the serve
  generation still moves on a *remote* publish even when the publisher's
  full filter was never kept.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.bloom.filter import BloomFilter
from repro.constants import BloomConfig, PartialViewConfig
from repro.gossip.partialview import PartialView, ShardMap, ShardSummary
from repro.gossip.wire import RumorData
from repro.net.client import NetworkSearchClient
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.serve.cache import directory_generation
from repro.text.document import Document

pytestmark = pytest.mark.partialview

BLOOM = BloomConfig(num_bits=4096, num_hashes=2)
PVIEW = PartialViewConfig(num_shards=3, sample_size=2)


# -- ShardMap -----------------------------------------------------------------


def test_shard_map_is_deterministic_across_instances():
    a, b = ShardMap(8), ShardMap(8)
    for pid in range(500):
        assert a.shard_of(pid) == b.shard_of(pid)


def test_shard_map_covers_every_shard():
    smap = ShardMap(8)
    seen = {smap.shard_of(pid) for pid in range(2000)}
    assert seen == set(range(8))


def test_shard_map_assignment_is_roughly_balanced():
    smap = ShardMap(8)
    counts = [0] * 8
    for pid in range(4000):
        counts[smap.shard_of(pid)] += 1
    # Consistent hashing with 64 virtual points per shard: no shard may
    # own more than ~3x its fair share (4000/8 = 500).
    assert max(counts) < 1500
    assert min(counts) > 100


def test_shard_map_peer_churn_never_remaps():
    # The ring's occupants are shards, not peers — learning about new
    # pids (any amount of peer churn) cannot move existing assignments.
    smap = ShardMap(8)
    before = {pid: smap.shard_of(pid) for pid in range(100)}
    for pid in range(100, 10_000):
        smap.shard_of(pid)
    assert {pid: smap.shard_of(pid) for pid in before} == before


def test_shard_map_rejects_degenerate_configs():
    with pytest.raises(ValueError):
        ShardMap(0)
    smap = ShardMap(4)
    with pytest.raises(ValueError):
        smap.add_shard(2)  # already placed
    with pytest.raises(KeyError):
        smap.remove_shard(99)


# -- ShardSummary -------------------------------------------------------------


def _filter_with(terms: list[str]) -> BloomFilter:
    bf = BloomFilter(BLOOM.num_bits, BLOOM.num_hashes)
    bf.add_many(terms)
    return bf


def test_summary_is_the_bitwise_or_of_member_filters():
    members = [
        _filter_with([f"term-{pid}-{j}" for j in range(6)]) for pid in range(5)
    ]
    summary = ShardSummary(1, BLOOM.num_bits, BLOOM.num_hashes)
    for bf in members:
        summary.fold_filter(bf)
    expected = BloomFilter(BLOOM.num_bits, BLOOM.num_hashes)
    for bf in members:
        expected.union_inplace(bf)
    assert summary.bloom == expected
    assert summary.version == len(members)
    # The defining guarantee: no member term is ever a summary miss.
    for pid in range(5):
        for j in range(6):
            assert f"term-{pid}-{j}" in summary.bloom


def test_summary_skips_foreign_geometry():
    summary = ShardSummary(0, BLOOM.num_bits, BLOOM.num_hashes)
    summary.fold_filter(BloomFilter(8192, 2))  # wrong num_bits
    summary.fold_filter(BloomFilter(BLOOM.num_bits, 4))  # wrong num_hashes
    assert summary.version == 0


def test_summary_install_is_monotone_and_adopts_freshness():
    local = ShardSummary(0, BLOOM.num_bits, BLOOM.num_hashes)
    local.fold_filter(_filter_with(["alpha"]))
    remote = _filter_with(["beta", "gamma"])
    local.install(remote, member_count=7, version=40)
    assert "alpha" in local.bloom  # union, never replace
    assert "beta" in local.bloom
    assert local.version == 40
    assert local.member_count == 7
    local.install(_filter_with(["delta"]), member_count=0, version=3)
    assert local.version == 41  # stale version ignored; the fold counted
    assert local.member_count == 7  # zero census carries no information


# -- PartialView admission bounds ---------------------------------------------


def test_view_keeps_home_filters_unconditionally():
    view = PartialView(0, PVIEW, BLOOM)
    home_pids = [pid for pid in range(200) if view.shard_of(pid) == view.home]
    assert all(view.keeps_filter(pid) for pid in home_pids)
    assert view.sample == set()  # home admission never consumes sample room


def test_view_sample_is_bounded():
    view = PartialView(0, PVIEW, BLOOM)
    foreign = [pid for pid in range(200) if view.shard_of(pid) != view.home]
    kept = [pid for pid in foreign if view.maybe_admit(pid)]
    assert len(kept) == PVIEW.sample_size
    assert len(view.sample) == PVIEW.sample_size
    # Everyone else is refused — and stays refused on a retry.
    refused = [pid for pid in foreign if pid not in view.sample]
    assert refused and not any(view.maybe_admit(pid) for pid in refused)


def test_view_forget_frees_sample_room():
    view = PartialView(0, PVIEW, BLOOM)
    foreign = [pid for pid in range(200) if view.shard_of(pid) != view.home]
    for pid in foreign:
        view.maybe_admit(pid)
    victim = next(iter(view.sample))
    view.forget(victim)
    newcomer = next(pid for pid in foreign if pid not in view.sample)
    assert view.maybe_admit(newcomer)
    assert len(view.sample) == PVIEW.sample_size


def test_unknown_shards_shrink_as_summaries_arrive():
    view = PartialView(0, PVIEW, BLOOM)
    foreign = [s for s in view.shard_map.shards if s != view.home]
    assert view.unknown_shards() == foreign
    covered = foreign[0]
    view.summary_for(covered).fold_filter(_filter_with(["x"]))
    assert covered not in view.unknown_shards()


# -- loopback community in partial-view mode ----------------------------------


def _pv_node(net: LoopbackNetwork, pid: int, pview: bool = True) -> NetworkPeer:
    return NetworkPeer(
        pid,
        "peer",
        pid,
        transport=net.transport(),
        seed=pid,
        registry=Registry(),
        bloom_config=BLOOM,
        partial_view=PVIEW if pview else None,
    )


async def _converge(nodes: list[NetworkPeer], rounds: int = 40) -> None:
    for _ in range(rounds):
        for node in nodes:
            await node.gossip_round()


def _corpus(nodes: list[NetworkPeer]) -> None:
    for node in nodes:
        pid = node.peer_id
        node.publish(Document(f"doc-{pid}", f"topic{pid} shared corpus term"))


def test_partialview_community_bounds_filters_and_answers_searches():
    async def scenario():
        net = LoopbackNetwork()
        nodes = [_pv_node(net, pid) for pid in range(8)]
        # One flat observer proves search parity across modes.
        flat = _pv_node(net, 8, pview=False)
        for node in [*nodes, flat]:
            await node.start()
        _corpus(nodes)
        for node in [*nodes[1:], flat]:
            await node.join(nodes[0].address)
        await _converge([*nodes, flat])

        for node in nodes:
            pview = node.pview
            assert pview is not None
            held = [
                pid
                for pid, entry in node.peer.directory.items()
                if pid != node.peer_id and entry.bloom_filter is not None
            ]
            # The admission bound: home members + at most sample_size.
            home_members = [
                pid
                for pid in node.peer.directory
                if pid != node.peer_id and pview.shard_of(pid) == pview.home
            ]
            assert len(held) <= len(home_members) + PVIEW.sample_size
            # ... but the *record* directory is complete.
            assert len(node.peer.directory) == 9
            # Complete summary coverage of every foreign shard.
            assert pview.unknown_shards() == []

        # Ranked search through shard fan-out matches the flat observer.
        pv_client = NetworkSearchClient(nodes[2])
        flat_client = NetworkSearchClient(flat)
        for query in ("topic5", "shared corpus", "topic0 shared"):
            got = await pv_client.ranked_search(query, k=8)
            want = await flat_client.ranked_search(query, k=8)
            assert {d.doc_id for d in got.results} == {
                d.doc_id for d in want.results
            }, query

        # Exhaustive search agrees too (conjunctive, Section 5.1).
        got_docs = await pv_client.exhaustive_search("shared corpus term")
        want_docs = await flat_client.exhaustive_search("shared corpus term")
        assert got_docs == want_docs
        assert len(got_docs) == 8

        # A member whose address has not arrived yet (its filter rumor
        # overtook its JOIN) is no candidate in this id list either
        # (nobody could contact it).
        late = _pv_node(net, 9)
        await late.start()
        late.publish(Document("doc-9", "topic9 shared corpus term"))
        late.flush_updates()  # the announcement its next round would make
        (update,) = late.rumors.values()
        await late.request_address(nodes[2].address, RumorData((update,)))
        assert 9 in nodes[2].peer.directory and 9 not in nodes[2].membership
        blind = await pv_client.ranked_search("shared corpus", k=8)
        assert 9 not in [pid for pid, _r in blind.peer_ranking]

        for node in [*nodes, flat, late]:
            await node.stop()

    asyncio.run(scenario())


def test_remote_publish_moves_generation_without_the_full_filter():
    async def scenario():
        net = LoopbackNetwork()
        nodes = [_pv_node(net, pid) for pid in range(8)]
        for node in nodes:
            await node.start()
        _corpus(nodes)
        for node in nodes[1:]:
            await node.join(nodes[0].address)
        await _converge(nodes)

        # Pick an observer that does NOT hold the publisher's filter, so
        # invalidation must come from the replicated version counters and
        # summary folds, not from a local filter mutation.
        publisher, observer = None, None
        for cand in nodes:
            for other in nodes:
                if (
                    other is not cand
                    and cand.peer.directory[other.peer_id].bloom_filter is None
                ):
                    observer, publisher = cand, other
                    break
            if observer is not None:
                break
        assert observer is not None and publisher is not None

        g0 = directory_generation(observer)
        publisher.publish(Document("d-new", "zeta freshly published content"))
        await _converge(nodes, rounds=12)
        assert directory_generation(observer) != g0
        # And the new content is actually searchable from the observer.
        client = NetworkSearchClient(observer)
        docs = await client.exhaustive_search("zeta")
        assert docs == ["d-new"]

        for node in nodes:
            await node.stop()

    asyncio.run(scenario())
