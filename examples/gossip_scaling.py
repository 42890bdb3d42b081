#!/usr/bin/env python
"""Gossip scaling study: how fast does news travel, and at what cost?

Sweeps community sizes and gossip intervals (the Figure 2 experiment at
example scale), showing the paper's three headline effects:

1. propagation time grows roughly with log(community size);
2. total network volume stays modest (message sizes track the *change*,
   not the community);
3. the gossip interval trades convergence speed against bandwidth.

Run:  python examples/gossip_scaling.py
"""

import math

from repro.constants import GossipConfig
from repro.gossip.simulation import run_propagation


def main() -> None:
    print("propagation of one 1000-key Bloom filter diff (DSL links)\n")
    print(f"{'peers':>6} {'time (s)':>9} {'volume (MB)':>12} {'B/s per peer':>13} {'time/log2(N)':>13}")
    for n in (50, 100, 200, 400, 800, 1600):
        r = run_propagation(n, topology="dsl", seed=7)
        print(
            f"{n:>6} {r.propagation_time_s:>9.1f} {r.total_bytes / 1e6:>12.2f} "
            f"{r.per_peer_bandwidth_Bps:>13.1f} {r.propagation_time_s / math.log2(n):>13.1f}"
        )

    print("\ngossip interval vs convergence/bandwidth trade-off (N=400, DSL)\n")
    print(f"{'interval':>9} {'time (s)':>9} {'B/s per peer':>13}")
    for interval in (10.0, 30.0, 60.0):
        config = GossipConfig(base_interval_s=interval)
        r = run_propagation(400, topology="dsl", config=config, seed=7)
        print(f"{interval:>9.0f} {r.propagation_time_s:>9.1f} {r.per_peer_bandwidth_Bps:>13.1f}")

    print("\nPlanetP vs anti-entropy-only (N=400, LAN)\n")
    planetp = run_propagation(400, topology="lan", seed=7)
    ae_only = run_propagation(
        400, topology="lan", config=GossipConfig(anti_entropy_only=True), seed=7
    )
    print(f"  PlanetP : {planetp.propagation_time_s:7.1f} s, {planetp.total_bytes/1e6:8.2f} MB")
    print(f"  AE-only : {ae_only.propagation_time_s:7.1f} s, {ae_only.total_bytes/1e6:8.2f} MB")
    print(
        f"  -> AE-only uses {ae_only.total_bytes / max(1, planetp.total_bytes):.0f}x "
        "the bandwidth (its summaries scale with community size)"
    )


if __name__ == "__main__":
    main()
