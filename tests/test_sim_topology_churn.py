"""Tests for topologies, churn schedules, and measurement plumbing."""

import numpy as np
import pytest

from repro.constants import LINK_DSL, LINK_LAN, LINK_MODEM, MIX_DISTRIBUTION
from repro.sim.churn import ChurnModel, OnOffSchedule
from repro.sim.metrics import BandwidthSeries, ConvergenceTracker
from repro.sim.topology import dsl_topology, lan_topology, make_topology, mix_topology
from repro.utils.rng import make_rng


class TestTopologies:
    def test_lan_and_dsl_uniform(self):
        assert (lan_topology(10) == LINK_LAN).all()
        assert (dsl_topology(10) == LINK_DSL).all()

    def test_mix_fractions(self):
        speeds = mix_topology(1000, make_rng(0))
        for fraction, speed in MIX_DISTRIBUTION:
            count = int((speeds == speed).sum())
            assert count == pytest.approx(fraction * 1000, abs=2)

    def test_mix_sums_to_n(self):
        for n in (7, 100, 333):
            assert mix_topology(n, make_rng(1)).size == n

    def test_make_topology_dispatch(self):
        assert (make_topology("LAN", 5) == LINK_LAN).all()
        with pytest.raises(KeyError):
            make_topology("satellite", 5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            lan_topology(0)

    def test_modem(self):
        assert (make_topology("modem", 3) == LINK_MODEM).all()


class TestChurn:
    def test_always_on_peers_never_transition(self):
        model = ChurnModel(100, always_on_fraction=0.4, seed=0)
        schedules = model.generate(3600.0)
        n_always = model.always_on_count()
        assert n_always == 40
        for sched in schedules[:n_always]:
            assert sched.initially_online
            assert sched.transitions == ()

    def test_churners_transition(self):
        model = ChurnModel(
            100, always_on_fraction=0.0, mean_online_s=100, mean_offline_s=100, seed=1
        )
        schedules = model.generate(10_000.0)
        assert any(s.transitions for s in schedules)
        for sched in schedules:
            assert all(0 < t < 10_000 for t in sched.transitions)
            assert list(sched.transitions) == sorted(sched.transitions)

    def test_state_at(self):
        sched = OnOffSchedule(0, True, (10.0, 20.0))
        assert sched.state_at(5.0)
        assert not sched.state_at(15.0)
        assert sched.state_at(25.0)

    def test_stationary_online_fraction(self):
        model = ChurnModel(
            2000, always_on_fraction=0.0, mean_online_s=3600, mean_offline_s=8400, seed=2
        )
        schedules = model.generate(100.0)
        online = sum(1 for s in schedules if s.initially_online)
        assert online / 2000 == pytest.approx(3600 / 12000, abs=0.04)

    def test_new_keys_probability(self):
        model = ChurnModel(10, new_keys_prob=0.5, seed=3)
        draws = [model.rejoin_has_new_keys() for _ in range(2000)]
        assert sum(draws) / 2000 == pytest.approx(0.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnModel(0)
        with pytest.raises(ValueError):
            ChurnModel(10, always_on_fraction=1.5)
        with pytest.raises(ValueError):
            ChurnModel(10, mean_online_s=0)
        with pytest.raises(ValueError):
            ChurnModel(10).generate(0.0)


class TestBandwidthSeries:
    def test_bucketing(self):
        series = BandwidthSeries()  # 10 s buckets
        series.record(5.0, 100)
        series.record(9.0, 100)
        series.record(15.0, 50)
        times, rates = series.series()
        assert times.tolist() == [0.0, 10.0]
        assert rates.tolist() == [20.0, 5.0]

    def test_gaps_filled_with_zero(self):
        series = BandwidthSeries()
        series.record(5.0, 100)
        series.record(35.0, 100)
        _, rates = series.series()
        assert rates.tolist() == [10.0, 0.0, 0.0, 10.0]

    def test_totals_and_peak(self):
        series = BandwidthSeries()
        series.record(0.0, 300)
        series.record(10.0, 700)
        assert series.total_bytes() == 1000
        assert series.peak_rate() == 70.0

    def test_empty(self):
        series = BandwidthSeries()
        times, rates = series.series()
        assert times.size == 0 and rates.size == 0
        assert series.peak_rate() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthSeries().record(-1.0, 5)

    def test_negative_bytes_rejected(self):
        series = BandwidthSeries()
        with pytest.raises(ValueError, match="nbytes"):
            series.record(1.0, -5)
        assert series.total_bytes() == 0  # the bad record left no trace

    def test_registry_mirroring(self):
        from repro.obs import Registry

        registry = Registry()
        series = BandwidthSeries(registry=registry)
        series.record(0.5, 100)
        series.record(1.5, 50)
        assert registry.value("sim", "bytes_total") == 150.0
        assert registry.value("sim", "transfers_total") == 2.0
        # The in-series bucketing is unchanged by the mirroring.
        assert series.total_bytes() == 150

    def test_network_passes_registry_through(self):
        from repro.obs import Registry
        from repro.sim.engine import Simulator
        from repro.sim.network import Network

        registry = Registry()
        sim = Simulator()
        net = Network(sim, np.array([1000.0, 1000.0]), registry=registry)
        net.send(0, 1, 500)
        sim.run(until=10.0)
        assert registry.value("sim", "bytes_total") == 500.0
        assert registry.value("sim", "transfers_total") == 1.0


class TestConvergenceTracker:
    def test_simple_convergence(self):
        tracker = ConvergenceTracker()
        tracker.register(1, 0.0, {10, 11})
        tracker.peer_learned(1, 10, 5.0)
        assert not tracker.all_converged()
        tracker.peer_learned(1, 11, 8.0)
        assert tracker.all_converged()
        assert tracker.convergence_times() == {1: 8.0}

    def test_offline_unblocks(self):
        tracker = ConvergenceTracker()
        tracker.register(1, 0.0, {10, 11})
        tracker.peer_learned(1, 10, 2.0)
        tracker.peer_offline(11, 3.0)
        assert tracker.convergence_times() == {1: 3.0}

    def test_online_reblocks_unconverged(self):
        tracker = ConvergenceTracker()
        tracker.register(1, 0.0, {10, 11})
        tracker.peer_online(12, knows=lambda rid: False)
        tracker.peer_learned(1, 10, 1.0)
        tracker.peer_learned(1, 11, 2.0)
        assert not tracker.all_converged()  # 12 still doesn't know
        tracker.peer_learned(1, 12, 4.0)
        assert tracker.convergence_times()[1] == 4.0

    def test_online_knower_does_not_block(self):
        tracker = ConvergenceTracker()
        tracker.register(1, 0.0, {10})
        tracker.peer_online(12, knows=lambda rid: True)
        tracker.peer_learned(1, 10, 1.0)
        assert tracker.all_converged()

    def test_required_predicate(self):
        tracker = ConvergenceTracker(required=lambda pid: pid < 5)
        tracker.register(1, 0.0, {3, 7})
        # Peer 7 is outside the required class.
        tracker.peer_learned(1, 3, 2.0)
        assert tracker.convergence_times() == {1: 2.0}

    def test_empty_required_converges_at_creation(self):
        tracker = ConvergenceTracker()
        tracker.register(1, 5.0, set())
        assert tracker.convergence_times() == {1: 0.0}

    def test_duplicate_registration_rejected(self):
        tracker = ConvergenceTracker()
        tracker.register(1, 0.0, {1})
        import pytest as _pytest

        with _pytest.raises(ValueError):
            tracker.register(1, 0.0, {1})

    def test_learned_many(self):
        tracker = ConvergenceTracker()
        tracker.register(1, 0.0, {10})
        tracker.register(2, 0.0, {10})
        tracker.peer_learned_many(10, {1, 2, 99}, 3.0)
        assert tracker.convergence_times() == {1: 3.0, 2: 3.0}

    def test_unconverged_listing_and_labels(self):
        tracker = ConvergenceTracker()
        tracker.register(1, 0.0, {10}, label="join")
        assert tracker.unconverged() == [1]
        assert tracker.labels() == {1: "join"}
        assert len(tracker) == 1
