"""Figure 2: propagating a single Bloom filter everywhere.

Reproduces all three panels for the paper's six scenarios:

* **LAN** — 45 Mbps links, PlanetP gossiping (30 s interval);
* **LAN-AE** — 45 Mbps links, push anti-entropy only;
* **DSL-10 / DSL-30 / DSL-60** — 512 Kbps links, gossip interval 10/30/60 s;
* **MIX** — the Saroiu et al. link mixture.

Panel (a) is propagation time vs community size, (b) aggregate network
volume, (c) average per-peer bandwidth for the DSL scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.constants import GossipConfig
from repro.experiments.common import Series
from repro.gossip.simulation import PropagationResult, run_propagation

__all__ = ["PropagationSweep", "SCENARIOS", "run_figure2", "figure2_series"]

#: scenario name -> (topology, config overrides)
SCENARIOS: dict[str, tuple[str, dict]] = {
    "LAN": ("lan", {}),
    "LAN-AE": ("lan", {"anti_entropy_only": True}),
    "DSL-10": ("dsl", {"base_interval_s": 10.0}),
    "DSL-30": ("dsl", {}),
    "DSL-60": ("dsl", {"base_interval_s": 60.0}),
    "MIX": ("mix", {}),
}


@dataclass
class PropagationSweep:
    """All runs of the Figure 2 sweep."""

    results: dict[str, list[PropagationResult]]

    def scenario(self, name: str) -> list[PropagationResult]:
        """Results for one scenario, ordered by community size."""
        return self.results[name]


def run_figure2(
    sizes: tuple[int, ...] = (100, 200, 500, 1000, 2000, 5000),
    scenarios: tuple[str, ...] = ("LAN", "LAN-AE", "DSL-10", "DSL-30", "DSL-60", "MIX"),
    payload_keys: int = 1000,
    seed: int = 0,
) -> PropagationSweep:
    """Run the full sweep: every scenario at every community size."""
    results: dict[str, list[PropagationResult]] = {}
    for name in scenarios:
        topology, overrides = SCENARIOS[name]
        config = replace(GossipConfig(), **overrides)
        runs = []
        for n in sizes:
            runs.append(
                run_propagation(
                    n,
                    topology=topology,
                    config=config,
                    payload_keys=payload_keys,
                    seed=seed,
                )
            )
        results[name] = runs
    return PropagationSweep(results)


def figure2_series(sweep: PropagationSweep) -> dict[str, list[Series]]:
    """Convert a sweep into the three panels' series.

    Returns ``{"time": [...], "volume": [...], "bandwidth": [...]}`` with
    one series per scenario (bandwidth only for DSL scenarios, as in the
    paper).
    """
    time_series: list[Series] = []
    volume_series: list[Series] = []
    bw_series: list[Series] = []
    for name, runs in sweep.results.items():
        st = Series(name)
        sv = Series(name)
        for r in runs:
            st.add(r.community_size, r.propagation_time_s)
            sv.add(r.community_size, r.total_bytes / 1e6)
        time_series.append(st)
        volume_series.append(sv)
        if name.startswith("DSL"):
            sb = Series(name)
            for r in runs:
                sb.add(r.community_size, r.per_peer_bandwidth_Bps)
            bw_series.append(sb)
    return {"time": time_series, "volume": volume_series, "bandwidth": bw_series}
