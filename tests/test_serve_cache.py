"""The query plane's version-keyed result cache (repro.serve.cache).

Two halves: :class:`ResultCache` as a pure LRU with generation-checked
lookups (hit/miss/stale/eviction accounting), and
:func:`directory_generation` as a live fingerprint over real loopback
nodes — it must hold still while nothing changes and move on exactly the
events that can change a search answer: a local publish, a gossip-applied
replica update, and an online flip.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.serve.cache import ResultCache, directory_generation
from repro.text.document import Document


def _node(net: LoopbackNetwork, pid: int) -> NetworkPeer:
    return NetworkPeer(
        pid, "peer", pid, transport=net.transport(), seed=pid, registry=Registry()
    )


async def _spread(nodes: list[NetworkPeer], rounds: int = 12) -> None:
    for _ in range(rounds):
        for node in nodes:
            await node.gossip_round()


# -- ResultCache --------------------------------------------------------------


def test_cache_roundtrip_hits():
    reg = Registry()
    cache = ResultCache(4, registry=reg)
    cache.put(("ranked", ("gossip",), 10), 7, "answer")
    assert cache.get(("ranked", ("gossip",), 10), 7) == "answer"
    assert reg.value("serve", "result_cache_hits_total") == 1
    assert reg.value("serve", "result_cache_misses_total") == 0
    assert len(cache) == 1


def test_cache_misses_on_absent_key():
    reg = Registry()
    cache = ResultCache(4, registry=reg)
    assert cache.get("nope", 1) is None
    assert reg.value("serve", "result_cache_misses_total") == 1
    assert reg.value("serve", "result_cache_stale_total") == 0


def test_generation_mismatch_evicts_and_counts_stale():
    reg = Registry()
    cache = ResultCache(4, registry=reg)
    cache.put("q", 1, "old")
    assert cache.get("q", 2) is None  # the directory moved on
    assert reg.value("serve", "result_cache_stale_total") == 1
    assert reg.value("serve", "result_cache_misses_total") == 1
    # The stale entry is gone, not resurrectable at its old generation.
    assert cache.get("q", 1) is None
    assert len(cache) == 0


def test_lru_evicts_least_recently_used():
    reg = Registry()
    cache = ResultCache(2, registry=reg)
    cache.put("a", 1, "A")
    cache.put("b", 1, "B")
    assert cache.get("a", 1) == "A"  # refresh a; b is now the LRU
    cache.put("c", 1, "C")
    assert reg.value("serve", "result_cache_evictions_total") == 1
    assert cache.get("b", 1) is None
    assert cache.get("a", 1) == "A"
    assert cache.get("c", 1) == "C"
    assert reg.value("serve", "result_cache_size") == 2


def test_zero_capacity_stores_nothing():
    cache = ResultCache(0, registry=Registry())
    cache.put("q", 1, "dropped")
    assert len(cache) == 0
    assert cache.get("q", 1) is None


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ResultCache(-1, registry=Registry())


def test_clear_empties_the_cache():
    reg = Registry()
    cache = ResultCache(4, registry=reg)
    cache.put("q", 1, "gone")
    cache.clear()
    assert len(cache) == 0
    assert reg.value("serve", "result_cache_size") == 0


# -- directory_generation -----------------------------------------------------


def test_generation_stable_while_nothing_changes():
    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        await _spread([a, b])
        g0 = directory_generation(a)
        assert directory_generation(a) == g0  # pure read, no side effects
        await _spread([a, b], rounds=3)  # quiescent gossip: no new content
        assert directory_generation(a) == g0
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_local_publish_moves_generation():
    async def scenario():
        net = LoopbackNetwork()
        a = _node(net, 0)
        await a.start()
        g0 = directory_generation(a)
        a.publish(Document("d", "bloom filters summarize membership"))
        assert directory_generation(a) != g0
        await a.stop()

    asyncio.run(scenario())


def test_replica_update_moves_generation():
    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        await _spread([a, b])
        g0 = directory_generation(a)
        b.publish(Document("d-b", "gossip spreads rumors epidemically"))
        # Until the rumor reaches a, its view (and generation) holds.
        assert directory_generation(a) == g0
        await _spread([a, b])
        assert a.replica_of(1) == b.peer.store.bloom_filter
        assert directory_generation(a) != g0
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


def test_online_flip_moves_generation():
    async def scenario():
        net = LoopbackNetwork()
        a, b = _node(net, 0), _node(net, 1)
        await a.start()
        await b.start()
        await b.join(a.address)
        await _spread([a, b])
        g0 = directory_generation(a)
        a.membership.contact_failed(1, 0.0)  # a failed contact's verdict
        assert directory_generation(a) != g0
        a.membership.seen_alive(1)
        assert directory_generation(a) == g0
        await a.stop()
        await b.stop()

    asyncio.run(scenario())


# -- the XOR mixing itself: order-insensitive, perturbation-sensitive ---------
#
# directory_generation folds per-member (pid, filter_version, bloom
# version, online) tuples with XOR, so iteration order must never matter
# (dict order is an implementation accident of gossip arrival), while
# any single-field change in any single member must move the fingerprint.
# These run against a stub directory, so every permutation and
# perturbation is exercised without sockets.


class _StubFilter:
    def __init__(self, version: int) -> None:
        self.version = version


class _StubEntry:
    def __init__(self, version: int, bloom: int | None, online: bool) -> None:
        self.filter_version = version
        self.bloom_filter = None if bloom is None else _StubFilter(bloom)
        self.online = online


class _StubNode:
    """Just the attribute paths directory_generation reads."""

    def __init__(self, members: dict[int, _StubEntry]) -> None:
        from types import SimpleNamespace

        self.peer_id = 0
        self.peer = SimpleNamespace(
            store=SimpleNamespace(filter_version=5, bloom_filter=_StubFilter(9)),
            directory={0: _StubEntry(5, 9, True), **members},
        )
        self.membership = SimpleNamespace(
            is_online=lambda pid: self.peer.directory[pid].online
        )


def _members(seed: int = 0) -> dict[int, _StubEntry]:
    import random

    rng = random.Random(seed)
    return {
        pid: _StubEntry(rng.randrange(100), rng.randrange(100), rng.random() < 0.8)
        for pid in range(1, 9)
    }


def test_generation_is_order_insensitive_over_member_permutations():
    import itertools
    import random

    members = _members()
    reference = directory_generation(_StubNode(members))
    pids = list(members)
    rng = random.Random(42)
    orders = [list(p) for p in itertools.islice(itertools.permutations(pids), 6)]
    orders += [rng.sample(pids, len(pids)) for _ in range(6)]
    for order in orders:
        permuted = {pid: members[pid] for pid in order}
        assert directory_generation(_StubNode(permuted)) == reference


def test_generation_changes_on_any_single_field_perturbation():
    members = _members()
    reference = directory_generation(_StubNode(members))
    seen = {reference}
    for pid in members:
        for mutate in (
            lambda e: setattr(e, "filter_version", e.filter_version + 1),
            lambda e: setattr(e, "bloom_filter", _StubFilter(e.bloom_filter.version + 1)),
            lambda e: setattr(e, "online", not e.online),
        ):
            perturbed = _members()
            mutate(perturbed[pid])
            generation = directory_generation(_StubNode(perturbed))
            assert generation != reference, (pid, mutate)
            seen.add(generation)
    # Each of the 24 perturbations lands on its own fingerprint — the
    # mixing avalanches rather than cancelling between fields.
    assert len(seen) == 3 * len(members) + 1


def test_generation_distinguishes_missing_filter_from_version_zero():
    with_none = _members()
    with_none[3].bloom_filter = None
    with_zero = _members()
    with_zero[3].bloom_filter = _StubFilter(0)
    assert directory_generation(_StubNode(with_none)) != directory_generation(
        _StubNode(with_zero)
    )


@pytest.mark.parametrize("seed", range(8))
def test_single_member_perturbation_flips_composed_generation(seed):
    """The generation XOR-composes one mix per member, so over any seeded
    directory a change to any one member's fields survives the
    composition: the serve cache invalidates on any remote change."""
    composed = directory_generation(_StubNode(_members(seed)))
    for pid in _members(seed):
        for mutate in (
            lambda e: setattr(e, "filter_version", e.filter_version + 1),
            lambda e: setattr(
                e, "bloom_filter", _StubFilter(e.bloom_filter.version + 1)
            ),
            lambda e: setattr(e, "online", not e.online),
        ):
            perturbed = _members(seed)
            mutate(perturbed[pid])
            assert directory_generation(_StubNode(perturbed)) != composed, (pid, mutate)


def test_generation_changes_when_membership_changes():
    members = _members()
    reference = directory_generation(_StubNode(members))
    grown = dict(members)
    grown[99] = _StubEntry(0, 0, True)
    assert directory_generation(_StubNode(grown)) != reference
    shrunk = dict(members)
    del shrunk[4]
    assert directory_generation(_StubNode(shrunk)) != reference
