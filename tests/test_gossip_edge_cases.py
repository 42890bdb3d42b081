"""Edge-case and invariant tests for the gossip protocol."""

import numpy as np
import pytest

from repro.constants import GossipConfig
from repro.gossip.simulation import GossipSimulation
from repro.sim.metrics import ConvergenceTracker
from repro.sim.topology import lan_topology


def _world(n, seed=0, **overrides):
    defaults = dict(base_interval_s=2.0)
    defaults.update(overrides)
    cfg = GossipConfig(**defaults)
    world = GossipSimulation(lan_topology(n), cfg, seed=seed)
    return world


class TestTDead:
    def test_dead_peer_dropped_from_directories(self):
        world = _world(6, t_dead_s=30.0)
        world.establish(range(6))
        world.peers[5].go_offline()
        # Long after T_Dead, peers that noticed the failure drop peer 5.
        world.sim.run(until=300.0)
        droppers = [
            p for p in world.peers[:5] if len(p.membership) < 6
        ]
        assert droppers, "nobody expired the dead peer"
        for p in droppers:
            assert 5 not in p.membership.offline_since

    def test_peer_returning_before_t_dead_is_kept(self):
        world = _world(6, t_dead_s=10_000.0)
        world.establish(range(6))
        world.peers[5].go_offline()
        world.sim.run(until=60.0)
        world.peers[5].rejoin()
        world.sim.run(until=300.0)
        for p in world.peers[:5]:
            assert len(p.membership) == 6


class TestJoinRobustness:
    def test_bootstrap_failover(self):
        """A joiner whose bootstrap target is offline retries another."""
        world = _world(8)
        tracker = ConvergenceTracker()
        world.trackers.append(tracker)
        world.establish(range(6))
        world.peers[3].go_offline()
        rumor = world.peers[6].begin_join(bootstrap=3)  # dead bootstrap
        world.tracked_register(rumor.rid, 6)
        world.sim.run(until=600.0, stop_when=tracker.all_converged)
        assert tracker.all_converged()
        # The joiner ended up with a full directory from someone else.
        assert len(world.peers[6].membership) >= 6

    def test_join_rumor_spreads_while_snapshot_in_flight(self):
        world = _world(30)
        tracker = ConvergenceTracker()
        world.trackers.append(tracker)
        world.establish(range(29))
        rumor = world.peers[29].begin_join(bootstrap=0)
        world.tracked_register(rumor.rid, 29)
        world.sim.run(until=600.0, stop_when=tracker.all_converged)
        assert tracker.all_converged()


class TestOfflineSemantics:
    def test_offline_peer_learns_nothing(self):
        world = _world(10)
        world.establish(range(10))
        world.peers[9].go_offline()
        rumor = world.peers[0].originate_update(100)
        world.sim.run(until=120.0)
        assert not world.peers[9].core.knowledge.knows(rumor.rid)

    def test_leaving_is_not_gossiped(self):
        """Section 3: departures are discovered by failed contacts only —
        a peer that never tries to contact the departed one keeps
        believing it online."""
        world = _world(4)
        world.establish(range(4))
        world.peers[3].go_offline()
        # Before any contact attempt, everyone still believes 3 online.
        believers = sum(
            1 for p in world.peers[:3] if p.membership.is_online(3)
        )
        assert believers == 3

    def test_no_timer_after_offline(self):
        world = _world(5)
        world.establish(range(5))
        world.peers[4].go_offline()
        rounds_before = world.peers[4].core.round_counter
        world.sim.run(until=60.0)
        assert world.peers[4].core.round_counter == rounds_before


class TestAccountingInvariants:
    def test_bandwidth_series_matches_stats(self):
        world = _world(15)
        world.establish(range(15))
        world.peers[0].originate_update(500)
        world.sim.run(until=120.0)
        assert world.network.bandwidth.total_bytes() == world.network.stats.total_bytes

    def test_per_peer_bytes_double_count_total(self):
        """Each message is attributed to both endpoints, so per-peer
        bytes sum to exactly twice the total."""
        world = _world(12)
        world.establish(range(12))
        world.peers[0].originate_update(500)
        world.sim.run(until=120.0)
        stats = world.network.stats
        assert sum(stats.per_peer_bytes.values()) == 2 * stats.total_bytes

    def test_message_count_positive_even_when_idle(self):
        """A quiet community still gossips (cheap AE digests)."""
        world = _world(6)
        world.establish(range(6))
        world.sim.run(until=60.0)
        assert world.network.stats.total_messages > 0
        # ...but the volume is negligible: digest exchanges only.
        assert world.network.stats.total_bytes < 20_000

    def test_intervals_slow_down_when_idle(self):
        world = _world(6)
        world.establish(range(6), stable=False)
        world.sim.run(until=200.0)
        assert all(p.core.intervals.interval > 2.0 for p in world.peers)


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        results = []
        for _ in range(2):
            world = _world(20, seed=77)
            tracker = ConvergenceTracker()
            world.trackers.append(tracker)
            world.establish(range(20))
            rumor = world.peers[0].originate_update(300)
            world.tracked_register(rumor.rid, 0)
            world.sim.run(until=600.0, stop_when=tracker.all_converged)
            results.append(
                (
                    tracker.convergence_times()[rumor.rid],
                    world.network.stats.total_bytes,
                    world.network.stats.total_messages,
                )
            )
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        outcomes = set()
        for seed in (1, 2, 3):
            world = _world(20, seed=seed)
            world.establish(range(20))
            world.peers[0].originate_update(300)
            world.sim.run(until=60.0)
            outcomes.add(world.network.stats.total_messages)
        assert len(outcomes) > 1
