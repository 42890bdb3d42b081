"""Figures 4 and 5: gossiping in dynamic communities.

* Figure 4(a): convergence-time CDF for Poisson arrivals into a stable
  community, with vs without the partial anti-entropy (LAN vs LAN-NPA).
* Figure 4(b): convergence-time CDF during normal operation of a churning
  1000-member community (LAN and MIX, join vs rejoin events).
* Figure 4(c): aggregate gossiping bandwidth over time for (b).
* Figure 5: the same churning community at 2000 members, with the
  bandwidth-aware policy; MIX-F / MIX-S report fast/slow-origin events
  under the fast-peers-only convergence condition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.constants import FAST_LINK_THRESHOLD_BPS, GossipConfig
from repro.experiments.common import Series
from repro.gossip.simulation import DynamicResult, run_churn, run_poisson_joins
from repro.sim.topology import make_topology
from repro.utils.rng import make_rng
from repro.utils.stats import cdf_points

__all__ = [
    "run_figure4a",
    "run_figure4bc",
    "run_figure5",
    "cdf_series",
    "bandwidth_series",
]


def run_figure4a(
    n_established: int = 1000,
    n_events: int = 100,
    mean_interarrival_s: float = 90.0,
    seed: int = 0,
) -> dict[str, DynamicResult]:
    """LAN vs LAN-NPA (no partial anti-entropy) Poisson-arrival runs."""
    results = {}
    for label, use_pae in (("LAN", True), ("LAN-NPA", False)):
        config = replace(GossipConfig(), use_partial_ae=use_pae)
        results[label] = run_poisson_joins(
            n_established=n_established,
            n_events=n_events,
            mean_interarrival_s=mean_interarrival_s,
            topology="lan",
            config=config,
            seed=seed,
        )
    return results


def run_figure4bc(
    n_members: int = 1000,
    horizon_s: float = 4 * 3600.0,
    seed: int = 0,
) -> dict[str, DynamicResult]:
    """Churning community on LAN and on MIX (bandwidth-aware)."""
    results = {}
    results["LAN"] = run_churn(
        n_members=n_members, horizon_s=horizon_s, topology="lan", seed=seed
    )
    mix_cfg = replace(GossipConfig(), bandwidth_aware=True)
    results["MIX"] = run_churn(
        n_members=n_members,
        horizon_s=horizon_s,
        topology="mix",
        config=mix_cfg,
        seed=seed,
    )
    return results


@dataclass
class Figure5Result:
    """Figure 5's four curves, from two runs."""

    lan: DynamicResult
    mix: DynamicResult
    mix_fast_origin: list[float]  # MIX-F samples
    mix_slow_origin: list[float]  # MIX-S samples


def run_figure5(
    n_members: int = 2000,
    horizon_s: float = 4 * 3600.0,
    seed: int = 0,
) -> Figure5Result:
    """The 2000-member dynamic community (LAN, MIX, MIX-F, MIX-S)."""
    lan = run_churn(
        n_members=n_members, horizon_s=horizon_s, topology="lan", seed=seed
    )
    mix_cfg = replace(GossipConfig(), bandwidth_aware=True)
    mix = run_churn(
        n_members=n_members,
        horizon_s=horizon_s,
        topology="mix",
        config=mix_cfg,
        seed=seed,
    )
    # Reconstruct the same link assignment run_churn used (same seed and
    # construction order) to classify event origins as fast or slow.
    speeds = make_topology("mix", n_members, make_rng(seed))
    fast = speeds >= FAST_LINK_THRESHOLD_BPS
    mix_f = [
        e.convergence_fast_s
        for e in mix.events
        if fast[e.origin] and e.convergence_fast_s is not None
    ]
    mix_s = [
        e.convergence_fast_s
        for e in mix.events
        if not fast[e.origin] and e.convergence_fast_s is not None
    ]
    return Figure5Result(lan=lan, mix=mix, mix_fast_origin=mix_f, mix_slow_origin=mix_s)


def cdf_series(samples: list[float], label: str) -> Series:
    """Cumulative-percentage-of-events series for a sample set."""
    xs, ps = cdf_points(samples)
    s = Series(label)
    for x, p in zip(xs, ps):
        s.add(x, 100.0 * p)
    return s


def bandwidth_series(result: DynamicResult, label: str) -> Series:
    """Aggregate bandwidth vs time (Figure 4c) for one run."""
    s = Series(label)
    for t, r in zip(result.bandwidth_times, result.bandwidth_Bps):
        s.add(float(t), float(r))
    return s
