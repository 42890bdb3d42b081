"""Tests for the bandwidth-constrained network model."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.network import FAILURE_TIMEOUT_S, Network


def _net(speeds, latency=0.0):
    sim = Simulator()
    return sim, Network(sim, np.asarray(speeds, dtype=float), latency_s=latency)


class TestTransfers:
    def test_transfer_time_is_size_over_min_speed(self):
        sim, net = _net([100.0, 50.0])
        done = []
        net.send(0, 1, 500, on_delivered=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(10.0)]  # 500 B / 50 B/s

    def test_latency_added(self):
        sim, net = _net([100.0, 100.0], latency=0.25)
        done = []
        net.send(0, 1, 100, on_delivered=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.25)]

    def test_link_serialization(self):
        """Two back-to-back transfers on the same link queue up."""
        sim, net = _net([100.0, 100.0, 100.0])
        done = []
        net.send(0, 1, 100, on_delivered=lambda: done.append(("first", sim.now)))
        net.send(0, 2, 100, on_delivered=lambda: done.append(("second", sim.now)))
        sim.run()
        assert done[0] == ("first", pytest.approx(1.0))
        assert done[1] == ("second", pytest.approx(2.0))  # waited for link 0

    def test_disjoint_links_parallel(self):
        sim, net = _net([100.0] * 4)
        done = []
        net.send(0, 1, 100, on_delivered=lambda: done.append(sim.now))
        net.send(2, 3, 100, on_delivered=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_zero_byte_message(self):
        sim, net = _net([100.0, 100.0])
        done = []
        net.send(0, 1, 0, on_delivered=lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1

    def test_self_send_rejected(self):
        _, net = _net([100.0, 100.0])
        with pytest.raises(ValueError):
            net.send(0, 0, 10)

    def test_negative_bytes_rejected(self):
        _, net = _net([100.0, 100.0])
        with pytest.raises(ValueError):
            net.send(0, 1, -1)


class TestFailures:
    def test_send_to_offline_fails_after_timeout(self):
        sim, net = _net([100.0, 100.0])
        failed = []
        net.set_online(1, False)
        net.send(0, 1, 100, on_failed=lambda: failed.append(sim.now))
        sim.run()
        assert failed == [pytest.approx(FAILURE_TIMEOUT_S)]
        assert net.stats.failed_messages == 1

    def test_target_goes_offline_mid_flight(self):
        sim, net = _net([100.0, 100.0])
        outcomes = []
        net.send(0, 1, 100, on_delivered=lambda: outcomes.append("ok"),
                 on_failed=lambda: outcomes.append("fail"))
        # Take peer 1 down before the 1-second transfer completes.
        sim.schedule(0.5, net.set_online, 1, False)
        sim.run()
        assert outcomes == ["fail"]

    def test_offline_sender_drops_silently(self):
        sim, net = _net([100.0, 100.0])
        outcomes = []
        net.set_online(0, False)
        net.send(0, 1, 100, on_delivered=lambda: outcomes.append("ok"),
                 on_failed=lambda: outcomes.append("fail"))
        sim.run()
        assert outcomes == []


class TestAccounting:
    def test_stats_track_bytes_and_messages(self):
        sim, net = _net([100.0] * 3)
        net.send(0, 1, 100)
        net.send(1, 2, 50)
        sim.run()
        assert net.stats.total_bytes == 150
        assert net.stats.total_messages == 2
        assert net.stats.per_peer_bytes[1] == 150  # sent 50, received 100

    def test_bandwidth_series_records(self):
        sim, net = _net([100.0, 100.0])
        net.send(0, 1, 1000)
        sim.run()
        assert net.bandwidth.total_bytes() == 1000

    def test_invalid_speeds(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, np.array([0.0]))
        with pytest.raises(ValueError):
            Network(sim, np.zeros(0))
