"""Shared fixtures for the PlanetP reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bloom.filter import BloomFilter
from repro.constants import GossipConfig
from repro.core.community import InProcessCommunity
from repro.text.analyzer import Analyzer
from repro.text.document import Document


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_filter() -> BloomFilter:
    """A small Bloom filter with a handful of known terms."""
    bf = BloomFilter(4096, 2)
    bf.add_many(["alpha", "beta", "gamma", "delta"])
    return bf


@pytest.fixture
def fast_gossip_config() -> GossipConfig:
    """A gossip config with short intervals for quick simulations."""
    return GossipConfig(base_interval_s=5.0)


@pytest.fixture
def tiny_community() -> InProcessCommunity:
    """Five peers, six documents, no stemming surprises."""
    community = InProcessCommunity(num_peers=5)
    docs = [
        (0, "d-gossip", "gossip protocols spread information epidemically"),
        (0, "d-bloom", "bloom filters give compact set membership summaries"),
        (1, "d-rank", "vector space ranking orders documents by similarity"),
        (2, "d-chord", "chord routes lookups over consistent hashing rings"),
        (3, "d-mixed", "gossip and ranking combine in planetp communities"),
        (4, "d-trec", "benchmark collections provide relevance judgments"),
    ]
    for peer_id, doc_id, text in docs:
        community.publish(peer_id, Document(doc_id, text))
    return community


@pytest.fixture
def plain_analyzer() -> Analyzer:
    """Analyzer with stemming and stop words disabled."""
    return Analyzer(remove_stopwords=False, stem=False)
