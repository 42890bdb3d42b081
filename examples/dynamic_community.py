#!/usr/bin/env python
"""Dynamic community walkthrough: churn, convergence, and bandwidth.

Runs the Figure 4(b) experiment at example scale: a community where 40%
of members are always on and the rest cycle online/offline, with 5% of
rejoins bringing new content.  Prints the convergence CDF and the
aggregate bandwidth profile — the paper's "normal operation requires very
little bandwidth" claim, measured.

Run:  python examples/dynamic_community.py
"""

import numpy as np

from repro.gossip.simulation import run_churn
from repro.utils.stats import cdf_points


def main() -> None:
    result = run_churn(
        n_members=200,
        horizon_s=2 * 3600.0,
        topology="lan",
        seed=42,
    )
    joins = result.convergence_samples(label="join")
    rejoins = result.convergence_samples(label="rejoin")
    print(f"community of {result.community_size} peers, 2h of churn")
    print(f"  events: {len(result.events)} "
          f"({len(joins)} joins with new keys, {len(rejoins)} plain rejoins)")

    for label, samples in (("join", joins), ("rejoin", rejoins)):
        if not samples:
            continue
        arr = np.asarray(samples)
        print(f"\n  {label} convergence: median={np.median(arr):.0f}s "
              f"p90={np.percentile(arr, 90):.0f}s max={arr.max():.0f}s")
        xs, ps = cdf_points(samples)
        for q in (0.25, 0.5, 0.75, 0.95):
            idx = min(int(q * len(xs)), len(xs) - 1)
            print(f"    {q * 100:3.0f}% of events converged within {xs[idx]:7.1f} s")

    rates = result.bandwidth_Bps
    if rates.size:
        print(f"\n  aggregate gossip bandwidth: mean={rates.mean():.0f} B/s, "
              f"peak={rates.max():.0f} B/s across the whole community")
        print(f"  total gossip volume over 2h: {result.total_bytes / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
