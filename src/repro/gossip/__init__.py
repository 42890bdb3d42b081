"""PlanetP's gossiping layer (paper Section 3).

The protocol is a combination of *rumor mongering* (push) and
*anti-entropy* (pull) after Demers et al., extended with the paper's novel
*partial anti-entropy* piggyback, an adaptive gossip interval, and an
optional bandwidth-aware peer-selection policy.  The package contains both
the protocol logic (:mod:`simpeer`) and the scenario runners that
reproduce the paper's gossip experiments (:mod:`simulation`).
"""

from repro.gossip.rumor import Rumor, RumorKind
from repro.gossip.directory import RumorKnowledge, mix_rumor_id, mix_rumor_ids
from repro.gossip.members import MemberTable
from repro.gossip.intervals import IntervalPolicy
from repro.gossip.messages import MessageSizer
from repro.gossip.wire import GOSSIP_MESSAGES, PeerRecord, WireRumor
from repro.gossip.bandwidth_aware import FlatSelector, BandwidthAwareSelector
from repro.gossip.simpeer import GossipPeer
from repro.gossip.simulation import (
    GossipSimulation,
    PropagationResult,
    JoinResult,
    DynamicResult,
    run_propagation,
    run_join,
    run_poisson_joins,
    run_churn,
)
from repro.gossip.validation import (
    ReplicaObserver,
    run_live_replication,
    wire_model_vs_real,
)

__all__ = [
    "Rumor",
    "RumorKind",
    "RumorKnowledge",
    "MemberTable",
    "mix_rumor_id",
    "mix_rumor_ids",
    "IntervalPolicy",
    "MessageSizer",
    "GOSSIP_MESSAGES",
    "PeerRecord",
    "WireRumor",
    "FlatSelector",
    "BandwidthAwareSelector",
    "GossipPeer",
    "GossipSimulation",
    "PropagationResult",
    "JoinResult",
    "DynamicResult",
    "run_propagation",
    "run_join",
    "run_poisson_joins",
    "run_churn",
    "ReplicaObserver",
    "run_live_replication",
    "wire_model_vs_real",
]
