"""Tests for the information brokerage: ring, broker store, service."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brokerage.broker import Broker, BrokeredSnippet
from repro.brokerage.ring import ConsistentHashRing
from repro.brokerage.service import BrokerageService


class TestRing:
    def test_empty_ring_lookup_raises(self):
        ring = ConsistentHashRing()
        with pytest.raises(LookupError):
            ring.broker_for("key")

    def test_single_broker_owns_everything(self):
        ring = ConsistentHashRing()
        ring.add_broker(7)
        for key in ("a", "b", "zzz"):
            assert ring.broker_for(key) == 7

    def test_deterministic_placement(self):
        a = ConsistentHashRing()
        b = ConsistentHashRing()
        for member in (1, 2, 3):
            a.add_broker(member)
            b.add_broker(member)
        for key in ("gossip", "bloom", "filter", "peer"):
            assert a.broker_for(key) == b.broker_for(key)

    def test_successor_wraps(self):
        ring = ConsistentHashRing(max_id=100)
        ring.add_broker(1, ring_id=10)
        ring.add_broker(2, ring_id=50)
        assert ring.successor_of(5) == 1
        assert ring.successor_of(10) == 1  # least successor includes self
        assert ring.successor_of(30) == 2
        assert ring.successor_of(60) == 1  # wraps past the top

    def test_remove_redistributes_only_arc(self):
        ring = ConsistentHashRing()
        for member in range(10):
            ring.add_broker(member)
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.broker_for(k) for k in keys}
        ring.remove_broker(4)
        moved = sum(1 for k in keys if ring.broker_for(k) != before[k])
        # Only keys owned by broker 4 move.
        owned = sum(1 for k in keys if before[k] == 4)
        assert moved == owned

    def test_duplicate_position_rejected(self):
        ring = ConsistentHashRing(max_id=100)
        ring.add_broker(1, ring_id=10)
        with pytest.raises(ValueError):
            ring.add_broker(2, ring_id=10)

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ConsistentHashRing().remove_broker(99)

    def test_membership_and_len(self):
        ring = ConsistentHashRing()
        ring.add_broker(5)
        assert 5 in ring and 6 not in ring
        assert len(ring) == 1
        assert ring.brokers() == [5]

    def test_arc_of(self):
        ring = ConsistentHashRing(max_id=100)
        ring.add_broker(1, ring_id=20)
        ring.add_broker(2, ring_id=70)
        pred, own = ring.arc_of(2)
        assert (pred, own) == (20, 70)

    def test_invalid_max_id(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(max_id=1)


class TestBroker:
    def _snippet(self, sid="s1", keys=("k1",), discard=100.0):
        return BrokeredSnippet(sid, "<x>body</x>", tuple(keys), publisher=0,
                               discard_at=discard)

    def test_store_and_lookup(self):
        broker = Broker(0)
        broker.store("k1", self._snippet())
        assert [s.snippet_id for s in broker.lookup("k1", now=0.0)] == ["s1"]
        assert broker.lookup("other", now=0.0) == []

    def test_expiry(self):
        broker = Broker(0)
        broker.store("k1", self._snippet(discard=10.0))
        assert broker.lookup("k1", now=9.9)
        assert broker.lookup("k1", now=10.0) == []

    def test_purge(self):
        broker = Broker(0)
        broker.store("k1", self._snippet("a", discard=5.0))
        broker.store("k1", self._snippet("b", discard=50.0))
        assert broker.purge_expired(now=10.0) == 1
        assert broker.num_snippets() == 1

    def test_snippet_needs_keys(self):
        with pytest.raises(ValueError):
            BrokeredSnippet("s", "<x/>", (), 0, 10.0)


class TestService:
    @pytest.fixture
    def service(self):
        clock = [0.0]
        svc = BrokerageService(clock=lambda: clock[0])
        svc._test_clock = clock  # type: ignore[attr-defined]
        for member in (1, 2, 3, 4):
            svc.add_member(member)
        return svc

    def test_publish_and_lookup(self, service):
        service.publish("s1", "<ad>x</ad>", ["gossip", "peer"], 1, ttl_s=100)
        assert [s.snippet_id for s in service.lookup("gossip")] == ["s1"]
        assert [s.snippet_id for s in service.lookup("peer")] == ["s1"]

    def test_conjunctive_lookup(self, service):
        service.publish("s1", "<a/>", ["gossip", "peer"], 1, ttl_s=100)
        service.publish("s2", "<b/>", ["gossip"], 1, ttl_s=100)
        both = service.lookup_all(["gossip", "peer"])
        assert [s.snippet_id for s in both] == ["s1"]
        assert service.lookup_all([]) == []

    def test_ttl(self, service):
        service.publish("s1", "<a/>", ["kk"], 1, ttl_s=60)
        service._test_clock[0] = 61.0
        assert service.lookup("kk") == []

    def test_graceful_leave_keeps_data(self, service):
        service.publish("s1", "<a/>", ["kk"], 1, ttl_s=1000)
        owner = service.broker_of("kk")
        service.remove_member(owner, graceful=True)
        assert [s.snippet_id for s in service.lookup("kk")] == ["s1"]

    def test_abrupt_leave_loses_data(self, service):
        service.publish("s1", "<a/>", ["kk"], 1, ttl_s=1000)
        owner = service.broker_of("kk")
        service.remove_member(owner, graceful=False)
        assert service.lookup("kk") == []

    def test_join_takes_over_arc(self, service):
        keys = [f"key-{i}" for i in range(40)]
        for i, key in enumerate(keys):
            service.publish(f"s{i}", "<a/>", [key], 1, ttl_s=1000)
        service.add_member(99)
        # Every key still resolves, wherever it now lives.
        for i, key in enumerate(keys):
            assert [s.snippet_id for s in service.lookup(key)] == [f"s{i}"]

    def test_no_brokers(self):
        svc = BrokerageService(clock=lambda: 0.0)
        with pytest.raises(LookupError):
            svc.publish("s", "<a/>", ["k"], 0, ttl_s=10)
        assert svc.lookup("k") == []

    def test_duplicate_member_rejected(self, service):
        with pytest.raises(ValueError):
            service.add_member(1)

    def test_bad_ttl(self, service):
        with pytest.raises(ValueError):
            service.publish("s", "<a/>", ["k"], 0, ttl_s=0)

    def test_total_entries(self, service):
        service.publish("s1", "<a/>", ["k1", "k2"], 1, ttl_s=100)
        assert service.total_entries() == 2


@given(st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_property_every_key_has_exactly_one_owner(members):
    """Any key maps to exactly one live broker, whatever the membership."""
    ring = ConsistentHashRing()
    for m in members:
        ring.add_broker(m)
    for key in ("alpha", "beta", "gamma"):
        owner = ring.broker_for(key)
        assert owner in members


class TestSuccessorSets:
    """k-way successor walks: what the content plane's replica placement
    and the partial-view shard map both build on."""

    def test_single_member_ring_yields_that_member_once(self):
        ring = ConsistentHashRing()
        ring.add_broker(7)
        assert ring.successors_for("any-key", 3) == [7]

    def test_successors_are_distinct_members_in_ring_order(self):
        ring = ConsistentHashRing(max_id=100)
        ring.add_broker(1, ring_id=10)
        ring.add_broker(2, ring_id=30)
        ring.add_broker(2, ring_id=40)  # a second virtual point
        ring.add_broker(3, ring_id=60)
        assert ring.successors_of(15, 3) == [2, 3, 1]

    def test_successors_wrap_past_the_top(self):
        ring = ConsistentHashRing(max_id=100)
        ring.add_broker(1, ring_id=10)
        ring.add_broker(2, ring_id=50)
        assert ring.successors_of(80, 2) == [1, 2]

    def test_k_beyond_membership_returns_everyone(self):
        ring = ConsistentHashRing(max_id=100)
        ring.add_broker(1, ring_id=10)
        ring.add_broker(2, ring_id=50)
        assert sorted(ring.successors_of(0, 99)) == [1, 2]

    def test_nonpositive_k_is_empty(self):
        ring = ConsistentHashRing()
        ring.add_broker(1)
        assert ring.successors_of(0, 0) == []


class TestPlacementGoldenDigests:
    """Virtual-point placement must agree across processes: any drift in
    the hash seeds, point labels, or probe order silently strands every
    replica and shard assignment, so the exact placements are pinned."""

    def test_replica_ring_placement_digest(self):
        from repro.content.plane import replica_ring

        ring = replica_ring([0, 1, 2, 3, 4, 5, 6, 7], points_per_member=32)
        lines = [
            ",".join(str(p) for p in ring.successors_for(f"doc-{i}", 3))
            for i in range(64)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "870d68367021d9dccc8d5a9205d250ffdb1b8f42b545e0a1970aeba040095968"
        )

    def test_shard_map_assignment_digest(self):
        from repro.gossip.partialview import ShardMap

        smap = ShardMap(num_shards=4)
        assign = ",".join(str(smap.shard_of(pid)) for pid in range(128))
        digest = hashlib.sha256(assign.encode()).hexdigest()
        assert digest == (
            "484ce3e9f16059aa5ade2b69dcc9704aebc3e42883104808cddc90587fbe36ba"
        )
