"""Discrete-event simulation substrate.

The paper evaluates gossiping with a simulator parameterized by measured
constants (Table 2).  This package provides the event engine, the
link/bandwidth model, the community topologies (LAN / DSL / MIX), churn
processes, and measurement plumbing that the gossip simulation builds on.
"""

from repro.sim.churn import ChurnModel, OnOffSchedule
from repro.sim.engine import Event, Simulator
from repro.sim.metrics import BandwidthSeries, ConvergenceTracker
from repro.sim.network import Network, TransferStats
from repro.sim.topology import (
    TOPOLOGIES,
    dsl_topology,
    lan_topology,
    make_topology,
    mix_topology,
)

__all__ = [
    "Simulator",
    "Event",
    "Network",
    "TransferStats",
    "TOPOLOGIES",
    "lan_topology",
    "dsl_topology",
    "mix_topology",
    "make_topology",
    "ChurnModel",
    "OnOffSchedule",
    "BandwidthSeries",
    "ConvergenceTracker",
]
