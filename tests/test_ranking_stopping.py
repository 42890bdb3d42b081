"""Tests for the stopping policies (eq. 4 and baselines)."""

import pytest

from repro.ranking.stopping import AdaptiveStopping, FirstKStopping, NeverStop, stopping_p


class TestEquation4:
    def test_paper_formula(self):
        # p = floor(2 + N/300) + 2*floor(k/50)
        assert stopping_p(0, 0) == 2
        assert stopping_p(300, 0) == 3
        assert stopping_p(900, 0) == 5
        assert stopping_p(0, 50) == 4
        assert stopping_p(0, 100) == 6
        assert stopping_p(600, 150) == 10
        assert stopping_p(300, 50) == 3 + 2

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            stopping_p(-1, 10)


class TestAdaptiveStopping:
    def test_does_not_stop_before_k_retrieved(self):
        state = AdaptiveStopping().begin(community_size=300, k=10)
        # Lots of unproductive peers but still fewer than k docs: keep going.
        for _ in range(20):
            state.observe(contributed=False, total_retrieved=5)
        assert not state.should_stop()

    def test_stops_after_p_unproductive(self):
        state = AdaptiveStopping().begin(community_size=0, k=10)  # p = 2
        state.observe(contributed=True, total_retrieved=10)
        assert not state.should_stop()
        state.observe(contributed=False, total_retrieved=10)
        assert not state.should_stop()
        state.observe(contributed=False, total_retrieved=10)
        assert state.should_stop()

    def test_contribution_resets_streak(self):
        state = AdaptiveStopping().begin(community_size=0, k=1)  # p = 2
        state.observe(contributed=False, total_retrieved=1)
        state.observe(contributed=True, total_retrieved=1)
        state.observe(contributed=False, total_retrieved=1)
        assert not state.should_stop()

    def test_p_property(self):
        assert AdaptiveStopping().begin(community_size=600, k=100).p == 2 + 2 + 4

    def test_each_search_gets_its_own_state(self):
        policy = AdaptiveStopping()
        first = policy.begin(0, 1)
        first.observe(False, 1)
        first.observe(False, 1)
        assert first.should_stop()
        # A search begun meanwhile (or afterwards) shares none of it.
        assert not policy.begin(0, 1).should_stop()

    def test_committed_is_the_rest_of_the_streak(self):
        state = AdaptiveStopping().begin(community_size=600, k=10)  # p = 4
        # Before k documents: the peer that completes them, then p misses.
        assert state.committed() == 5
        state.observe(True, 4)
        state.observe(False, 4)
        assert state.committed() == 5
        state.observe(True, 10)
        assert state.committed() == 4
        state.observe(False, 10)
        state.observe(False, 10)
        assert state.committed() == 2
        state.observe(True, 10)
        assert state.committed() == 4
        for _ in range(3):
            state.observe(False, 10)
        assert state.committed() == 1 and not state.should_stop()


class TestBaselines:
    def test_first_k_stops_at_k(self):
        state = FirstKStopping().begin(community_size=100, k=5)
        state.observe(True, 4)
        assert not state.should_stop()
        assert state.committed() == 1
        state.observe(True, 5)
        assert state.should_stop()

    def test_never_stop(self):
        state = NeverStop().begin(100, 5)
        for _ in range(1000):
            state.observe(False, 10_000)
        assert not state.should_stop()
        assert state.committed() >= 10_000
