"""Tests for the gossip building blocks: rumors, directory views and
member tables, interval policy, message sizing, and target selection."""

import numpy as np
import pytest

from repro.constants import MAX_PEER_ID, MESSAGE_HEADER_BYTES, GossipConfig, bloom_filter_bytes
from repro.gossip.bandwidth_aware import BandwidthAwareSelector, FlatSelector
from repro.gossip.directory import RumorKnowledge
from repro.gossip.intervals import IntervalPolicy
from repro.gossip.members import MemberTable
from repro.gossip.messages import MessageSizer
from repro.gossip.rumor import Rumor, RumorKind, RumorRegistry
from repro.utils.rng import make_rng


class TestRumorRegistry:
    def test_unique_ids(self):
        reg = RumorRegistry()
        a = reg.create(RumorKind.JOIN, 1, 100, 0.0)
        b = reg.create(RumorKind.REJOIN, 2, 50, 1.0)
        assert a.rid != b.rid
        assert reg.get(a.rid) is a
        assert len(reg) == 2
        assert a.rid in reg

    def test_payload_total(self):
        reg = RumorRegistry()
        a = reg.create(RumorKind.BF_UPDATE, 0, 3000, 0.0)
        b = reg.create(RumorKind.REJOIN, 1, 48, 0.0)
        assert reg.payload_total([a.rid, b.rid]) == 3048

    def test_validation(self):
        with pytest.raises(ValueError):
            Rumor(0, RumorKind.JOIN, -1, 10, 0.0)
        with pytest.raises(ValueError):
            Rumor(0, RumorKind.JOIN, 1, -10, 0.0)


class TestDirectoryView:
    """A directory replica: what a peer knows (``RumorKnowledge``) beside
    who it believes is a reachable member (``MemberTable``)."""

    def test_learn_and_digest(self):
        d = RumorKnowledge()
        assert d.learn(5)
        assert not d.learn(5)  # duplicates ignored
        assert d.knows(5)
        other = RumorKnowledge()
        assert not d.same_directory(other)
        other.learn(5)
        assert d.same_directory(other)

    def test_digest_order_independent(self):
        a = RumorKnowledge()
        b = RumorKnowledge()
        for rid in (3, 1, 7):
            a.learn(rid)
        for rid in (7, 3, 1):
            b.learn(rid)
        assert a.same_directory(b)

    def test_missing_from(self):
        d = RumorKnowledge()
        d.learn(1)
        assert d.missing_from({1, 2, 3}) == {2, 3}

    def test_membership_tracking(self):
        d = _table(0)
        d.seen_alive(3)
        assert len(d) == 2  # the owner is always a member
        assert d.is_online(3)
        d.contact_failed(3, now=100.0)
        assert not d.is_online(3) and 3 in d
        assert d.seen_alive(3)  # it came back
        assert d.is_online(3)
        assert 3 not in d.offline_since

    def test_readding_member_not_double_counted(self):
        d = _table(0)
        d.seen_alive(3)
        d.seen_alive(3)
        assert len(d) == 2
        d.contact_failed(3, 0.0)
        d.seen_alive(3)  # rejoin rumor while believed offline
        assert len(d) == 2

    def test_expire_dead(self):
        d = _table(0, t_dead_s=5.0)
        d.seen_alive(3)
        d.seen_alive(4)
        d.contact_failed(3, now=0.0)
        dropped = d.expire(now=10.0)
        assert dropped == [3]
        assert len(d) == 2 and 3 not in d

    def test_online_candidates_exclude_owner(self):
        d = _table(2, slots=5)
        d.establish(range(5))
        assert d.live() == [0, 1, 3, 4]

    def test_copy_membership(self):
        donor = _table(0, slots=5)
        donor.seen_alive(1)
        donor.seen_alive(3)
        donor.contact_failed(3, now=7.0)
        dup = _table(4, slots=5)
        dup.adopt(donor)
        assert dup.members() == [0, 1, 3, 4]  # the donor's, plus ourselves
        assert len(dup) == len(donor) + 1
        assert dup.offline_since == {3: 7.0}
        assert not dup.contact_failures  # contact history is our own

    def test_learn_many_matches_sequential_learn(self):
        batch = RumorKnowledge()
        scalar = RumorKnowledge()
        rids = [3, 1, 7, 1, 3, 99, 2**40]
        fresh = batch.learn_many(rids)
        assert fresh == [3, 1, 7, 99, 2**40]  # dedup, input order
        for rid in rids:
            scalar.learn(rid)
        assert batch.same_directory(scalar)
        assert batch.known == scalar.known
        assert batch.learn_many([3, 7]) == []  # all already known

    def test_mix_rumor_ids_matches_scalar(self):
        from repro.gossip.directory import mix_rumor_id, mix_rumor_ids

        rids = [0, 1, 2, 41, 2**31, 2**63 - 1]
        mixed = mix_rumor_ids(rids)
        assert mixed.tolist() == [mix_rumor_id(r) for r in rids]


def _table(owner, slots=0, **config):
    return MemberTable(owner, GossipConfig(**config), slots)


class TestMemberTable:
    def test_rejoin_after_t_dead_counts_the_member_again(self):
        """A REJOIN of an expired member re-admits it, so the count that
        prices summaries and join snapshots covers it again."""
        d = _table(0, t_dead_s=5.0)
        for pid in (1, 2, 3):
            d.seen_alive(pid)
        d.contact_failed(3, now=0.0)
        assert d.expire(now=10.0) == [3]
        assert len(d) == 3
        d.seen_alive(3)  # the REJOIN rumor
        assert d.live() == [1, 2, 3]
        assert len(d) == 4

    def test_failures_back_off_exponentially_up_to_the_cap(self):
        d = _table(0)
        d.seen_alive(5)
        assert d.contact_failed(5, now=10.0) == (True, 1)
        assert d.contact_backoff_until[5] == 10.0 + 30.0
        backoffs = []
        for failures in range(2, 8):
            assert d.contact_failed(5, now=10.0) == (False, failures)
            backoffs.append(d.contact_backoff_until[5] - 10.0)
        assert backoffs == [60.0, 120.0, 240.0, 480.0, 480.0, 480.0]  # capped at 480 s
        assert d.offline_since == {5: 10.0}  # the first failure started the clock

    def test_hearsay_readmits_but_keeps_the_backoff(self):
        d = _table(0)
        d.seen_alive(5)
        d.contact_failed(5, now=0.0)
        assert d.seen_alive(5, hearsay=True)  # a relayed online row
        assert d.is_online(5) and d.live() == [5]
        assert d.live(now=29.0) == []  # rumor rounds wait out the 30 s backoff
        assert d.live(now=30.0) == [5]
        d.seen_alive(5)  # first-hand evidence ends it
        assert d.live(now=0.0) == [5] and not d.contact_failures

    def test_a_dead_row_never_resurrects_and_starts_t_dead(self):
        d = _table(0, t_dead_s=5.0)
        d.seen_dead(7, now=1.0)  # unknown member: admitted offline
        assert 7 in d and not d.is_online(7) and d.offline_since[7] == 1.0
        d.seen_dead(7, now=4.0)  # its clock keeps running
        assert d.offline_since[7] == 1.0
        d.seen_alive(8)
        d.seen_dead(8, now=4.0)  # we believe it online: left as it is
        assert d.is_online(8) and 8 not in d.offline_since
        assert d.expire(now=6.5) == [7]

    def test_expiry_keeps_members_that_went_offline_later(self):
        d = _table(0, t_dead_s=5.0)
        for pid in (1, 2, 3):
            d.seen_alive(pid)
            d.contact_failed(pid, now=float(pid))
        assert d.expire(now=7.5) == [1, 2]
        assert d.members() == [0, 3]

    def test_expiry_does_not_depend_on_the_order_members_went_offline(self):
        """A clock that stepped back leaves ``offline_since`` out of time
        order; every member past T_Dead is still dropped."""
        d = _table(0, t_dead_s=5.0)
        for pid, at in ((1, 5.0), (2, 1.0)):
            d.seen_alive(pid)
            d.contact_failed(pid, now=at)
        assert d.expire(now=7.5) == [2]
        assert d.members() == [0, 1]

    def test_an_out_of_range_id_is_never_admitted(self):
        """Ids come off the wire as U32: one past MAX_PEER_ID must not size
        the slot array, whatever the evidence."""
        d = _table(0)
        size = d.online.size
        for pid in (2**32 - 1, MAX_PEER_ID + 1, -1):
            assert not d.admits(pid)
            assert not d.seen_alive(pid)
            d.seen_dead(pid, now=0.0)
            assert d.contact_failed(pid, now=0.0) == (False, 0)
            assert pid not in d and not d.is_online(pid)
        assert d.online.size == size and d.members() == [0] and len(d) == 1
        d.seen_alive(MAX_PEER_ID)  # the top of the range is admitted
        assert d.live() == [MAX_PEER_ID]
        with pytest.raises(ValueError, match="outside"):
            _table(2**32 - 1)
        # A simulator sized past MAX_PEER_ID admits every slot it has.
        assert _table(0, slots=MAX_PEER_ID + 10).admits(MAX_PEER_ID + 9)

    def test_a_non_member_failure_changes_nothing(self):
        d = _table(0)
        assert d.contact_failed(9, now=0.0) == (False, 0)
        assert 9 not in d and not d.contact_failures

    def test_sparse_ids_grow_the_slot_array(self):
        d = _table(3)
        d.seen_alive(60_000)
        d.seen_dead(61_000, now=0.0)
        assert d.members() == [3, 60_000, 61_000]
        assert d.live() == [60_000]
        assert not d.is_online(65_535)

    def test_establish_admits_an_established_community(self):
        d = _table(1)
        d.establish([0, 2, 3])
        assert d.members() == [0, 1, 2, 3] and d.live() == [0, 2, 3]


class TestIntervalPolicy:
    def test_slowdown_after_threshold(self):
        cfg = GossipConfig()
        policy = IntervalPolicy(cfg)
        assert policy.interval == 30.0
        assert not policy.record_no_news_contact()
        assert policy.record_no_news_contact()  # second contact: slow down
        assert policy.interval == 35.0

    def test_capped_at_max(self):
        policy = IntervalPolicy(GossipConfig(base_interval_s=30.0))
        for _ in range(100):
            policy.record_no_news_contact()
        assert policy.interval == 60.0  # twice the base (Table 2)

    def test_reset_snaps_to_base(self):
        policy = IntervalPolicy(GossipConfig())
        for _ in range(10):
            policy.record_no_news_contact()
        assert policy.interval > 30.0
        assert policy.reset()
        assert policy.interval == 30.0
        assert not policy.reset()  # already at base


class TestMessageSizer:
    def test_table2_based_sizes(self):
        sizer = MessageSizer()
        assert sizer.rumor_push(0) == 3
        assert sizer.rumor_push(2) == 3 + 12
        assert sizer.rumor_reply(1, 2) == 3 + 18
        assert sizer.rumor_data(3000) == 3003
        assert sizer.ae_request() == 11
        assert sizer.ae_nothing() == 3
        assert sizer.ae_recent(5) == 3 + 30
        assert sizer.ae_summary(1000) == 3 + 48_000
        assert sizer.pull_request(4) == 3 + 24

    def test_join_sizes_match_section72(self):
        """Downloading 1000 filters of 20 000 keys ≈ 16 MB (Section 7.2)."""
        snapshot = MessageSizer().join_snapshot(1000, bloom_filter_bytes(20_000))
        assert snapshot == pytest.approx(16e6, rel=0.05)

    def test_bf_interpolation(self):
        assert bloom_filter_bytes(1000) == 3000
        assert bloom_filter_bytes(20000) == 16000
        assert 3000 < bloom_filter_bytes(10000) < 16000
        assert bloom_filter_bytes(0) == MESSAGE_HEADER_BYTES

    def test_bf_negative_rejected(self):
        with pytest.raises(ValueError):
            bloom_filter_bytes(-1)


class TestSelectors:
    def _directory(self, owner, n):
        d = _table(owner, slots=n)
        d.establish(range(n))
        return d

    def test_flat_never_selects_self_or_offline(self):
        selector = FlatSelector(10)
        d = self._directory(0, 10)
        d.contact_failed(5, 0.0)
        rng = make_rng(0)
        for _ in range(200):
            t = selector.rumor_target(d, rng)
            assert t not in (0, 5)

    def test_flat_none_when_alone(self):
        selector = FlatSelector(1)
        d = self._directory(0, 1)
        assert selector.rumor_target(d, make_rng(0)) is None

    def test_bandwidth_aware_classes(self):
        from repro.constants import LINK_DSL, LINK_MODEM

        speeds = np.array([LINK_DSL] * 8 + [LINK_MODEM] * 2)
        selector = BandwidthAwareSelector(speeds)
        assert selector.fast_pool.tolist() == list(range(8))
        assert selector.slow_pool.tolist() == [8, 9]

    def test_fast_peer_mostly_targets_fast(self):
        from repro.constants import LINK_DSL, LINK_MODEM

        speeds = np.array([LINK_DSL] * 8 + [LINK_MODEM] * 2)
        selector = BandwidthAwareSelector(speeds)
        d = self._directory(0, 10)
        rng = make_rng(1)
        targets = [selector.rumor_target(d, rng) for _ in range(500)]
        slow_fraction = sum(1 for t in targets if t >= 8) / 500
        assert slow_fraction < 0.05  # 1% nominal

    def test_slow_source_pushes_to_fast_first(self):
        from repro.constants import LINK_DSL, LINK_MODEM

        speeds = np.array([LINK_DSL] * 8 + [LINK_MODEM] * 2)
        selector = BandwidthAwareSelector(speeds)
        d = self._directory(9, 10)
        rng = make_rng(2)
        # As rumor source, a slow peer targets the fast tier.
        targets = {selector.rumor_target(d, rng, is_rumor_source=True) for _ in range(50)}
        assert targets <= set(range(8))
        # Otherwise it stays among slow peers.
        targets = {selector.rumor_target(d, rng, is_rumor_source=False) for _ in range(50)}
        assert targets == {8}

    def test_fast_ae_targets_fast(self):
        from repro.constants import LINK_DSL, LINK_MODEM

        speeds = np.array([LINK_DSL] * 5 + [LINK_MODEM] * 5)
        selector = BandwidthAwareSelector(speeds)
        d = self._directory(0, 10)
        rng = make_rng(3)
        targets = {selector.ae_target(d, rng) for _ in range(100)}
        assert targets <= set(range(1, 5))
