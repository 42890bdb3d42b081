"""Behavioural tests for the gossip protocol (GossipPeer + simulation).

These exercise the full message exchange paths on small communities with
short intervals, asserting the paper's protocol properties: rumors reach
everyone, give-up counters retire rumors, partial anti-entropy fills
gaps, anti-entropy reconciles rejoiners, and intervals adapt.
"""

import numpy as np
import pytest

from repro.constants import AE_RECENT_WINDOW, GossipConfig
from repro.gossip.simulation import (
    GossipSimulation,
    run_churn,
    run_join,
    run_poisson_joins,
    run_propagation,
)
from repro.sim.metrics import ConvergenceTracker
from repro.sim.topology import lan_topology


def _world(n, config=None, seed=0):
    cfg = config or GossipConfig(base_interval_s=2.0)
    world = GossipSimulation(lan_topology(n), cfg, seed=seed)
    tracker = ConvergenceTracker()
    world.trackers.append(tracker)
    world.establish(range(n))
    return world, tracker


class TestRumorSpreading:
    def test_single_rumor_reaches_everyone(self):
        world, tracker = _world(20)
        rumor = world.peers[0].originate_update(1000)
        world.tracked_register(rumor.rid, 0)
        world.sim.run(until=600.0, stop_when=tracker.all_converged)
        assert tracker.all_converged()
        for peer in world.peers:
            assert peer.core.knowledge.knows(rumor.rid)

    def test_multiple_concurrent_rumors(self):
        world, tracker = _world(15)
        rumors = [world.peers[i].originate_update(100) for i in range(5)]
        for i, rumor in enumerate(rumors):
            world.tracked_register(rumor.rid, i)
        world.sim.run(until=600.0, stop_when=tracker.all_converged)
        assert tracker.all_converged()

    def test_rumors_eventually_retire(self):
        world, tracker = _world(10)
        rumor = world.peers[0].originate_update(100)
        world.tracked_register(rumor.rid, 0)
        world.sim.run(until=600.0)
        # Long after convergence no peer is still actively spreading it.
        assert all(rumor.rid not in p.core.hot for p in world.peers)

    def test_interval_resets_on_rumor_traffic(self):
        world, _ = _world(10)
        # Let the community go quiet: intervals grow.
        world.sim.run(until=120.0)
        slowed = [p.core.intervals.interval for p in world.peers]
        assert max(slowed) > 2.0
        rumor = world.peers[0].originate_update(100)
        tracker = ConvergenceTracker()
        world.trackers.append(tracker)
        world.tracked_register(rumor.rid, 0)
        world.sim.run(until=600.0, stop_when=tracker.all_converged)
        # Peers that took part in spreading snapped back to base at some
        # point; after convergence they may have re-slowed, so check the
        # rumor actually converged quickly instead.
        times = tracker.convergence_times()
        assert times[rumor.rid] < 120.0

    def test_volume_scales_with_payload_not_community(self):
        """PlanetP's claim: message sizes track the change being spread."""
        small = run_propagation(40, "lan", GossipConfig(base_interval_s=2.0),
                                payload_keys=1000, seed=1)
        large = run_propagation(80, "lan", GossipConfig(base_interval_s=2.0),
                                payload_keys=1000, seed=1)
        # Twice the community should cost roughly twice the bytes — not
        # four times (which per-message-summary scaling would give).
        assert large.total_bytes < 3.5 * small.total_bytes


class TestAntiEntropy:
    def test_ae_only_baseline_converges_but_costs_more(self):
        fast_cfg = GossipConfig(base_interval_s=2.0)
        ae_cfg = GossipConfig(base_interval_s=2.0, anti_entropy_only=True)
        planetp = run_propagation(40, "lan", fast_cfg, seed=2)
        ae_only = run_propagation(40, "lan", ae_cfg, seed=2)
        assert planetp.converged and ae_only.converged
        assert ae_only.total_bytes > 3 * planetp.total_bytes

    def test_rejoiner_catches_up_via_ae(self):
        world, tracker = _world(10)
        # Take peer 9 offline, spread a rumor, bring it back.
        world.peers[9].go_offline()
        rumor = world.peers[0].originate_update(500)
        world.tracked_register(rumor.rid, 0)
        world.sim.run(until=120.0)
        assert not world.peers[9].core.knowledge.knows(rumor.rid)
        world.peers[9].rejoin()
        world.sim.run(until=400.0)
        assert world.peers[9].core.knowledge.knows(rumor.rid)

    def test_long_offline_peer_uses_full_summary(self):
        """A peer that missed more rumors than the recent window holds
        still reconciles (the full-summary fallback)."""
        cfg = GossipConfig(base_interval_s=2.0)
        world = GossipSimulation(lan_topology(8), cfg, seed=3)
        world.establish(range(8))
        world.peers[7].go_offline()
        rumors = []
        for i in range(AE_RECENT_WINDOW + 10):  # more than the window holds
            world.sim.schedule(float(i), lambda i=i: rumors.append(
                world.peers[i % 7].originate_update(50)
            ))
        world.sim.run(until=120.0)
        world.peers[7].rejoin()
        world.sim.run(until=400.0)
        for rumor in rumors:
            assert world.peers[7].core.knowledge.knows(rumor.rid)


class TestFailureHandling:
    def test_failed_contact_marks_offline(self):
        world, _ = _world(5)
        world.peers[3].go_offline()
        world.sim.run(until=120.0)
        # Someone must have tried to contact peer 3 by now.
        marked = sum(
            1 for p in world.peers if p.pid != 3 and not p.membership.is_online(3)
        )
        assert marked > 0

    def test_rejoin_rumor_restores_online_belief(self):
        world, tracker = _world(6)
        world.peers[5].go_offline()
        world.sim.run(until=120.0)
        rumor = world.peers[5].rejoin()
        world.tracked_register(rumor.rid, 5)
        world.sim.run(until=600.0, stop_when=tracker.all_converged)
        assert tracker.all_converged()
        for peer in world.peers:
            if peer.pid != 5:
                assert peer.membership.is_online(5)


class TestJoinScenario:
    def test_join_reaches_consistency(self):
        cfg = GossipConfig(base_interval_s=2.0)
        result = run_join(20, 5, "lan", cfg, keys_per_peer=1000, seed=4)
        assert result.converged
        assert result.consistency_time_s > 0

    def test_joiners_know_each_other(self):
        cfg = GossipConfig(base_interval_s=2.0)
        world = GossipSimulation(lan_topology(12), cfg, seed=5)
        tracker = ConvergenceTracker()
        world.trackers.append(tracker)
        world.establish(range(10))
        rumor_a = world.peers[10].begin_join(0)
        rumor_b = world.peers[11].begin_join(1)
        world.tracked_register(rumor_a.rid, 10)
        world.tracked_register(rumor_b.rid, 11)
        world.sim.run(until=600.0, stop_when=tracker.all_converged)
        assert tracker.all_converged()
        assert world.peers[10].core.knowledge.knows(rumor_b.rid)
        assert world.peers[11].core.knowledge.knows(rumor_a.rid)


class TestScenarioRunners:
    def test_run_propagation_deterministic(self):
        cfg = GossipConfig(base_interval_s=2.0)
        a = run_propagation(30, "lan", cfg, seed=6)
        b = run_propagation(30, "lan", cfg, seed=6)
        assert a.propagation_time_s == b.propagation_time_s
        assert a.total_bytes == b.total_bytes

    def test_run_poisson_joins_tracks_every_event(self):
        cfg = GossipConfig(base_interval_s=2.0)
        result = run_poisson_joins(
            n_established=20, n_events=5, mean_interarrival_s=10.0,
            topology="lan", config=cfg, seed=7,
        )
        assert len(result.events) == 5
        assert all(e.convergence_s is not None for e in result.events)

    def test_run_churn_produces_events_and_bandwidth(self):
        cfg = GossipConfig(base_interval_s=2.0)
        result = run_churn(
            n_members=30, horizon_s=1800.0, topology="lan", config=cfg,
            mean_online_s=300.0, mean_offline_s=300.0, seed=8,
            settle_time_s=600.0,
        )
        assert len(result.events) > 0
        assert result.total_bytes > 0
        joins = result.convergence_samples(label="join")
        rejoins = result.convergence_samples(label="rejoin")
        assert len(joins) + len(rejoins) <= len(result.events)

    def test_propagation_time_grows_slowly(self):
        """Log-like scaling: 4x community, far less than 4x time."""
        cfg = GossipConfig(base_interval_s=2.0)
        small = run_propagation(25, "lan", cfg, seed=9)
        large = run_propagation(100, "lan", cfg, seed=9)
        assert large.propagation_time_s < 2.5 * small.propagation_time_s
