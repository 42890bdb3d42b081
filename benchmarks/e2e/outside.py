"""What can be read about a fleet without touching its code.

Two sources, both sampled immediately before and after the measured
window so every figure is a delta over exactly that window:

* each node's own counters and gauges over the ``StatsRequest`` RPC
  (the observer's come straight from its in-process registry);
* the kernel's view of each process: CPU time from ``/proc/<pid>/stat``
  and resident memory from ``/proc/<pid>/status``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

_TICK = os.sysconf("SC_CLK_TCK")

#: per-wire-type byte counters (``wire.*_real_bytes_total``) grouped into
#: the three gossip exchanges of the paper's Section 3.  ``RumorData``
#: carries rumor payloads in both a push and a pull reply; the counters
#: cannot tell the two apart, so it is booked under rumor mongering.
WIRE_GROUPS = {
    "rumor": ("rumor_push", "rumor_reply", "rumor_data"),
    "anti_entropy": ("a_e_request", "a_e_nothing", "a_e_recent", "a_e_summary"),
    "pull": ("pull_request",),
}


_GOSSIP_BYTES = "planetp_node_gossip_real_bytes_total"
_GOSSIP_ROUNDS = "planetp_node_gossip_rounds_total"


def cpu_seconds(pid: int) -> float:
    """utime + stime of process ``pid`` in seconds."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        # The command name is parenthesised and may hold spaces.
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def rss_mb(pid: int) -> float:
    """Resident set size of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


@dataclass
class Snapshot:
    """One reading of every node and the observer."""

    at: float
    #: node peer id → its scraped samples.
    stats: dict[int, dict[str, float]]
    node_cpu_s: dict[int, float]
    node_rss_mb: dict[int, float]
    observer_stats: dict[str, float]
    observer_cpu_s: float
    observer_rss_mb: float

    def total(self, sample: str, with_observer: bool = False) -> float:
        """Sum of one sample over the nodes (and the observer)."""
        total = sum(s.get(sample, 0.0) for s in self.stats.values())
        if with_observer:
            total += self.observer_stats.get(sample, 0.0)
        return total


async def take(fleet) -> Snapshot:
    """Scrape every node and read ``/proc`` for every process."""
    stats = await fleet.scrape_all()
    if len(stats) != len(fleet.procs):
        raise RuntimeError(f"only {len(stats)}/{len(fleet.procs)} nodes answered a stats scrape")
    pids = {pid: proc.os_pid for pid, proc in fleet.procs.items()}
    me = os.getpid()
    return Snapshot(
        at=time.monotonic(),
        stats=stats,
        node_cpu_s={pid: cpu_seconds(os_pid) for pid, os_pid in pids.items()},
        node_rss_mb={pid: rss_mb(os_pid) for pid, os_pid in pids.items()},
        observer_stats=dict(fleet.observer.obs.samples()),
        observer_cpu_s=cpu_seconds(me),
        observer_rss_mb=rss_mb(me),
    )


def scraped_layers(
    before: Snapshot, after: Snapshot, ops: float, publishes: int
) -> dict[str, float]:
    """The per-layer figures that come from counters and ``/proc``:
    deltas over the window, normalised per operation where that is what
    an optimisation would move."""
    nodes = len(after.stats)
    window = after.at - before.at

    def d(sample: str, with_observer: bool = False) -> float:
        return after.total(sample, with_observer) - before.total(sample, with_observer)

    node_cpu = sum(after.node_cpu_s.values()) - sum(before.node_cpu_s.values())
    observer_cpu = after.observer_cpu_s - before.observer_cpu_s
    real = d("planetp_node_gossip_real_bytes_total", True)
    model = d("planetp_node_gossip_model_bytes_total", True)
    out = {
        "net.node.served_rpcs_per_op": d("planetp_transport_served_requests_total") / ops,
        "net.node.gossip_rounds_per_s": d("planetp_node_gossip_rounds_total") / nodes / window,
        "net.node.cpu_ms_per_op": 1e3 * node_cpu / ops,
        "observer.cpu_ms_per_op": 1e3 * observer_cpu / ops,
        "net.node.rss_growth_mb": (
            sum(after.node_rss_mb.values()) - sum(before.node_rss_mb.values())
        ) / nodes,
        "observer.rss_mb": after.observer_rss_mb,
        "gossip.real_over_model_bytes": real / model,
        "gossip.ae_full_summaries": d("planetp_node_ae_full_summaries_total", True),
        "content.plane.bytes_held_per_node": after.total("planetp_content_bytes_held") / nodes,
    }
    if publishes:
        out["gossip.bytes_per_publish"] = real / publishes
    for group, wire_types in WIRE_GROUPS.items():
        group_bytes = sum(d(f"planetp_wire_{w}_real_bytes_total", True) for w in wire_types)
        out[f"gossip.bytes_frac.{group}"] = group_bytes / real
    return out


def gossip_bytes_per_node_round(before: Snapshot, after: Snapshot) -> float:
    """Encoded gossip bytes per gossip round, over every member (the
    twelve nodes and the observer, which gossips like any other)."""
    rounds = after.total(_GOSSIP_ROUNDS, True) - before.total(_GOSSIP_ROUNDS, True)
    real = after.total(_GOSSIP_BYTES, True) - before.total(_GOSSIP_BYTES, True)
    return real / rounds


def node_wire_bytes(before: Snapshot, after: Snapshot) -> float:
    """Frame-body bytes the twelve nodes' transports sent and received
    over the window: requests, replies, chunks, gossip, everything."""
    return sum(
        after.total(sample) - before.total(sample)
        for sample in ("planetp_transport_bytes_sent_total", "planetp_transport_bytes_recv_total")
    )
