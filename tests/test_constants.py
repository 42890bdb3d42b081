"""Table 2 and protocol-parameter fidelity tests.

These pin the reproduction's constants to the values the paper publishes,
so a refactor can't silently drift from the paper's configuration.
"""

import dataclasses

import pytest

from repro import constants as c
from repro.constants import BloomConfig, GossipConfig
from repro.ranking.stopping import stopping_p


class TestTable2:
    def test_cpu_gossip_time(self):
        assert c.CPU_GOSSIP_TIME_S == 0.005  # 5 ms

    def test_gossip_intervals(self):
        assert c.BASE_GOSSIP_INTERVAL_S == 30.0
        assert c.MAX_GOSSIP_INTERVAL_S == 60.0

    def test_wire_sizes(self):
        assert c.MESSAGE_HEADER_BYTES == 3
        assert c.BF_1000_KEYS_BYTES == 3000
        assert c.BF_20000_KEYS_BYTES == 16000
        assert c.BF_SUMMARY_BYTES == 6
        assert c.PEER_SUMMARY_BYTES == 48

    def test_link_speeds_span_table2(self):
        # "Network BW 56Kb/s to 45Mb/s"
        assert c.LINK_MODEM == 56_000 / 8
        assert c.LINK_LAN == 45_000_000 / 8

    def test_mix_distribution_sums_to_one(self):
        assert sum(f for f, _ in c.MIX_DISTRIBUTION) == pytest.approx(1.0)
        fractions = [f for f, _ in c.MIX_DISTRIBUTION]
        assert fractions == [0.09, 0.21, 0.50, 0.16, 0.04]


class TestSection3Parameters:
    def test_protocol_constants(self):
        assert c.ANTI_ENTROPY_PERIOD == 10  # every tenth round
        assert c.GOSSIP_LESS_THRESHOLD == 2
        assert c.GOSSIP_SLOWDOWN_S == 5.0
        assert c.BW_AWARE_FAST_TO_SLOW_PROB == 0.01

    def test_fast_threshold_is_512kbps(self):
        assert c.FAST_LINK_THRESHOLD_BPS == 512_000 / 8


class TestSection5Parameters:
    def test_stopping_heuristic_constants(self):
        # p = floor(2 + N/300) + 2*floor(k/50)
        assert (c.STOPPING_A, c.STOPPING_N_DIVISOR) == (2, 300)
        assert (c.STOPPING_K_COEFF, c.STOPPING_K_DIVISOR) == (2, 50)


class TestSection6Parameters:
    def test_pfs_constants(self):
        assert c.PFS_BROKER_TERM_FRACTION == 0.10  # "10% most frequent"
        assert c.PFS_BROKER_DISCARD_S == 600.0  # "10 minutes"


class TestSection71Parameters:
    def test_prototype_filter(self):
        assert c.PROTOTYPE_BF_BITS == 50 * 1024 * 8  # 50 KB
        assert c.PROTOTYPE_BF_CAPACITY == 50_000
        assert c.DEFAULT_BF_HASHES == 2


class TestConfigValidation:
    def test_gossip_config_defaults_are_paper_values(self):
        cfg = GossipConfig()
        assert cfg.base_interval_s == 30.0
        assert cfg.max_interval_s == c.MAX_GOSSIP_INTERVAL_S
        assert cfg.anti_entropy_period == 10
        assert cfg.use_partial_ae and not cfg.anti_entropy_only

    def test_gossip_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GossipConfig(base_interval_s=0)
        with pytest.raises(ValueError):
            GossipConfig(anti_entropy_period=0)

    def test_bloom_config_validation(self):
        with pytest.raises(ValueError):
            BloomConfig(num_bits=4)
        with pytest.raises(ValueError):
            BloomConfig(num_hashes=0)

    def test_ranking_config_is_equation4(self):
        assert stopping_p(300, 50) == 3 + 2


#: Every settable field of every config dataclass.  A field belongs here
#: only when a caller outside the tests sets it to more than one value, or
#: it is a deployment setting; fixed protocol values are module constants
#: (DESIGN §6, "Settings").  Adding a knob means editing this table.
CONFIG_FIELDS = {
    "AnalyticsConfig": ["sketch_capacity"],
    "BloomConfig": ["num_bits", "num_hashes"],
    "ContentConfig": ["replicas", "chunk_size"],
    "GossipConfig": [
        "base_interval_s",
        "anti_entropy_period",
        "t_dead_s",
        "use_partial_ae",
        "anti_entropy_only",
        "bandwidth_aware",
    ],
    "NetConfig": [
        "max_frame_bytes",
        "connect_timeout_s",
        "request_timeout_s",
        "request_retries",
        "retry_backoff_s",
        "retry_backoff_max_s",
        "retry_jitter_frac",
        "request_deadline_s",
    ],
    "PartialViewConfig": ["num_shards", "sample_size"],
    "ServeConfig": ["max_concurrent", "max_queue"],
    "StoreConfig": ["snapshot_every", "fsync"],
}


def test_config_fields_are_pinned():
    found = {
        name: [f.name for f in dataclasses.fields(obj)]
        for name, obj in vars(c).items()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    assert found == CONFIG_FIELDS
