"""Tests for the simulator-vs-reality validation layer."""

import pytest

from repro.constants import GossipConfig
from repro.gossip.validation import (
    run_live_replication,
    wire_model_vs_real,
)


class TestWireModel:
    def test_model_within_2x_of_real_compression(self):
        """Table 2's interpolated wire sizes and our actual Golomb
        compression agree to within a factor of two across the range the
        paper anchors (1000 and 20000 keys)."""
        rows = wire_model_vs_real(key_counts=(1000, 5000, 10000, 20000))
        for row in rows:
            assert 0.5 <= row.ratio <= 2.0, (row.num_keys, row.ratio)

    def test_real_size_monotone_in_keys(self):
        rows = wire_model_vs_real(key_counts=(1000, 5000, 20000))
        sizes = [r.real_bytes for r in rows]
        assert sizes == sorted(sizes)

    def test_anchors_order_of_magnitude(self):
        """1000 keys ≈ 3 KB and 20000 keys ≈ 16 KB in the paper; our real
        encodings land in the same order of magnitude."""
        rows = {r.num_keys: r for r in wire_model_vs_real((1000, 20000))}
        assert 1000 < rows[1000].real_bytes < 10_000
        assert 8_000 < rows[20000].real_bytes < 64_000


class TestLiveReplication:
    def test_replicas_become_exact(self):
        """The validation the paper did on its cluster: after gossiping
        real compressed diffs, every peer's replica is bit-identical to
        the publisher's filter."""
        result = run_live_replication(n_peers=15, n_publishers=3, seed=1)
        assert result.converged
        assert result.replicas_exact
        assert result.total_bytes > 0

    def test_costs_are_real_not_model(self):
        """Volume scales with the publishers' actual diff sizes."""
        small = run_live_replication(
            n_peers=12, n_publishers=2, terms_per_publisher=100, seed=2
        )
        large = run_live_replication(
            n_peers=12, n_publishers=2, terms_per_publisher=2000, seed=2
        )
        assert large.total_bytes > small.total_bytes

    def test_works_on_dsl_topology(self):
        result = run_live_replication(
            n_peers=10, n_publishers=2, topology="dsl", seed=3
        )
        assert result.replicas_exact

    def test_custom_config(self):
        cfg = GossipConfig(base_interval_s=1.0)
        result = run_live_replication(n_peers=8, n_publishers=1, config=cfg, seed=4)
        assert result.replicas_exact
        assert result.convergence_time_s < 600.0
