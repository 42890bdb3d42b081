"""Gossip simulation scenarios: the experiments of Section 7.2.

:class:`GossipSimulation` wires together the event engine, the
bandwidth-constrained network, the rumor registry, and a set of
:class:`~repro.sim.metrics.ConvergenceTracker` observers, then exposes the
paper's four experiment shapes:

* :func:`run_propagation` — one Bloom-filter update spreading through a
  stable community (Figure 2).
* :func:`run_join` — m new members joining an established community of n
  simultaneously, each sharing 20 000 keys (Figure 3).
* :func:`run_poisson_joins` — arrivals at Poisson times into a stable
  community, with/without partial anti-entropy (Figure 4a).
* :func:`run_churn` — a dynamic community with always-on and churning
  members (Figures 4b, 4c, 5).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.constants import CPU_GOSSIP_TIME_S, FAST_LINK_THRESHOLD_BPS, GossipConfig
from repro.gossip.bandwidth_aware import BandwidthAwareSelector, FlatSelector
from repro.gossip.messages import MessageSizer
from repro.gossip.rumor import RumorRegistry
from repro.gossip.simpeer import GossipPeer
from repro.sim.churn import ChurnModel
from repro.sim.engine import Simulator
from repro.sim.metrics import ConvergenceTracker
from repro.sim.network import Network
from repro.sim.topology import make_topology
from repro.utils.rng import make_rng

__all__ = [
    "GossipSimulation",
    "PropagationResult",
    "JoinResult",
    "DynamicEvent",
    "DynamicResult",
    "run_propagation",
    "run_join",
    "run_poisson_joins",
    "run_churn",
]

_LATENCY_S = 0.01


class GossipSimulation:
    """A community of gossiping peers on a shared simulated network."""

    def __init__(
        self,
        link_speeds: np.ndarray,
        config: GossipConfig | None = None,
        seed: int | np.random.Generator | None = 0,
        established_keys_per_peer: int = 20_000,
    ) -> None:
        self.config = config or GossipConfig()
        self.sizer = MessageSizer()
        self.sim = Simulator()
        # Table 2's 5 ms per-gossip-op CPU cost rides on every message.
        self.network = Network(self.sim, link_speeds, latency_s=_LATENCY_S + CPU_GOSSIP_TIME_S)
        self.registry = RumorRegistry()
        self.established_keys_per_peer = established_keys_per_peer
        rng = make_rng(seed)
        self.rng = rng
        if self.config.bandwidth_aware:
            self.selector = BandwidthAwareSelector(link_speeds)
        else:
            self.selector = FlatSelector(self.network.num_peers)
        peer_rngs = rng.spawn(self.network.num_peers)
        self.peers = [
            GossipPeer(pid, self, peer_rngs[pid], keys_shared=established_keys_per_peer)
            for pid in range(self.network.num_peers)
        ]
        self.trackers: list[ConvergenceTracker] = []
        # All peers start offline; scenarios bring them up.
        self.network.online[:] = False

    # -- plumbing used by GossipPeer ------------------------------------------

    @property
    def num_slots(self) -> int:
        """Total peer slots (established + potential joiners)."""
        return self.network.num_peers

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_delivered: Callable[[], None],
        on_failed: Callable[[], None] | None = None,
    ) -> None:
        """Message send used by peers (delegates to the network)."""
        self.network.send(src, dst, nbytes, on_delivered, on_failed)

    def notify_learned(self, rid: int, pid: int) -> None:
        """A peer learned rumor ``rid``."""
        now = self.sim.now
        for tracker in self.trackers:
            tracker.peer_learned(rid, pid, now)

    def notify_snapshot(self, pid: int, known: set[int]) -> None:
        """A joiner adopted a directory snapshot containing ``known``."""
        now = self.sim.now
        for tracker in self.trackers:
            tracker.peer_learned_many(pid, known, now)
            tracker.peer_online(pid, lambda rid: rid in known)

    def notify_offline(self, pid: int) -> None:
        """A peer went offline."""
        now = self.sim.now
        for tracker in self.trackers:
            tracker.peer_offline(pid, now)

    def notify_online(self, pid: int) -> None:
        """A peer came (back) online."""
        known = self.peers[pid].core.known
        for tracker in self.trackers:
            tracker.peer_online(pid, lambda rid: rid in known)

    # -- scenario helpers ---------------------------------------------------------

    def establish(self, peer_ids: list[int] | range, stable: bool = True) -> None:
        """Start ``peer_ids`` as a consistent, established community.

        Every established peer knows every other as an online member; no
        historical rumors exist (all digests equal).  ``stable`` starts
        gossip intervals at the maximum, as in a long-quiescent community.
        """
        ids = list(peer_ids)
        for pid in ids:
            self.peers[pid].membership.establish(ids)
        for pid in ids:
            self.peers[pid].start(stable=stable)

    def online_peer_ids(self) -> list[int]:
        """Ids of peers currently online."""
        return [p.pid for p in self.peers if p.online]

    def tracked_register(
        self, rid: int, origin: int, label: str = ""
    ) -> None:
        """Register rumor ``rid`` with every tracker: required knowers are
        all currently-online peers except the origin."""
        online = {p.pid for p in self.peers if p.online and p.pid != origin}
        now = self.sim.now
        for tracker in self.trackers:
            tracker.register(rid, now, set(online), label=label)


# ---------------------------------------------------------------------------
# Figure 2: propagating one Bloom filter update
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of one propagation run (one point of Figure 2)."""

    community_size: int
    topology: str
    gossip_interval_s: float
    propagation_time_s: float
    total_bytes: int
    per_peer_bandwidth_Bps: float
    messages: int
    converged: bool


def run_propagation(
    n: int,
    topology: str = "dsl",
    config: GossipConfig | None = None,
    payload_keys: int = 1000,
    seed: int = 0,
    max_time_s: float = 24 * 3600.0,
) -> PropagationResult:
    """Figure 2: time/volume/bandwidth to spread one ``payload_keys``-key
    Bloom filter diff through a stable ``n``-peer community."""
    cfg = config or GossipConfig()
    rng = make_rng(seed)
    speeds = make_topology(topology, n, rng)
    world = GossipSimulation(speeds, cfg, seed=rng, established_keys_per_peer=20_000)
    tracker = ConvergenceTracker()
    world.trackers.append(tracker)
    world.establish(range(n), stable=True)

    baseline_bytes = world.network.stats.total_bytes  # 0, but explicit
    rumor = world.peers[0].originate_update(payload_keys)
    world.tracked_register(rumor.rid, 0, label="bf_update")
    world.peers[0]._reschedule_sooner()

    world.sim.run(until=max_time_s, stop_when=tracker.all_converged)
    times = tracker.convergence_times()
    converged = rumor.rid in times
    elapsed = times.get(rumor.rid, world.sim.now)
    total = world.network.stats.total_bytes - baseline_bytes
    per_peer = total / (n * elapsed) if elapsed > 0 else 0.0
    return PropagationResult(
        community_size=n,
        topology=topology,
        gossip_interval_s=cfg.base_interval_s,
        propagation_time_s=elapsed,
        total_bytes=total,
        per_peer_bandwidth_Bps=per_peer,
        messages=world.network.stats.total_messages,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Figure 3: simultaneous joins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinResult:
    """Outcome of one mass-join run (one point of Figure 3)."""

    initial_size: int
    joiners: int
    topology: str
    consistency_time_s: float
    total_bytes: int
    converged: bool


def run_join(
    n_initial: int,
    m_joiners: int,
    topology: str = "lan",
    config: GossipConfig | None = None,
    keys_per_peer: int = 20_000,
    seed: int = 0,
    max_time_s: float = 24 * 3600.0,
) -> JoinResult:
    """Figure 3: ``m_joiners`` join an established ``n_initial``-peer
    community simultaneously, each sharing ``keys_per_peer`` keys.

    Consistency is reached when every join rumor is known to all online
    peers and every joiner has completed its directory download."""
    cfg = config or GossipConfig()
    rng = make_rng(seed)
    total_slots = n_initial + m_joiners
    speeds = make_topology(topology, total_slots, rng)
    world = GossipSimulation(
        speeds, cfg, seed=rng, established_keys_per_peer=keys_per_peer
    )
    tracker = ConvergenceTracker()
    world.trackers.append(tracker)
    world.establish(range(n_initial), stable=True)

    snapshots_done = [0]
    last_snapshot_time = [0.0]

    def _on_snapshot() -> None:
        snapshots_done[0] += 1
        last_snapshot_time[0] = world.sim.now

    join_rids = []
    for j in range(m_joiners):
        pid = n_initial + j
        bootstrap = int(rng.integers(0, n_initial))
        world.peers[pid].keys_shared = keys_per_peer
        rumor = world.peers[pid].begin_join(bootstrap, on_complete=_on_snapshot)
        world.tracked_register(rumor.rid, pid, label="join")
        join_rids.append(rumor.rid)

    def _done() -> bool:
        return tracker.all_converged() and snapshots_done[0] >= m_joiners

    world.sim.run(until=max_time_s, stop_when=_done)
    converged = _done()
    times = tracker.convergence_times()
    rumor_time = max(times.values(), default=world.sim.now)
    elapsed = max(rumor_time, last_snapshot_time[0]) if converged else world.sim.now
    return JoinResult(
        initial_size=n_initial,
        joiners=m_joiners,
        topology=topology,
        consistency_time_s=elapsed,
        total_bytes=world.network.stats.total_bytes,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Figures 4 and 5: dynamic communities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicEvent:
    """One arrival event and its measured convergence times."""

    rid: int
    origin: int
    created_at: float
    label: str  # "join" (carries new keys) or "rejoin"
    convergence_s: float | None  # under the all-peers condition
    convergence_fast_s: float | None = None  # fast-peers-only condition


@dataclass
class DynamicResult:
    """Outcome of a dynamic-community run (Figures 4b, 4c, 5)."""

    community_size: int
    topology: str
    events: list[DynamicEvent] = field(default_factory=list)
    bandwidth_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    bandwidth_Bps: np.ndarray = field(default_factory=lambda: np.zeros(0))
    total_bytes: int = 0

    def convergence_samples(
        self, label: str | None = None, fast_condition: bool = False
    ) -> list[float]:
        """Converged-event times, optionally filtered by event label and
        using the fast-peers-only convergence condition."""
        out = []
        for ev in self.events:
            if label is not None and ev.label != label:
                continue
            value = ev.convergence_fast_s if fast_condition else ev.convergence_s
            if value is not None:
                out.append(value)
        return out


def run_poisson_joins(
    n_established: int = 1000,
    n_events: int = 100,
    mean_interarrival_s: float = 90.0,
    topology: str = "lan",
    config: GossipConfig | None = None,
    new_keys: int = 1000,
    seed: int = 0,
    settle_time_s: float = 3600.0,
) -> DynamicResult:
    """Figure 4(a): arrivals at Poisson times into a stable community.

    ``n_events`` members (initially offline) rejoin, each sharing
    ``new_keys`` new keys, at exponential interarrivals; we measure each
    arrival rumor's convergence time.  Toggle ``config.use_partial_ae``
    for the LAN vs LAN-NPA comparison.
    """
    cfg = config or GossipConfig()
    rng = make_rng(seed)
    total = n_established + n_events
    speeds = make_topology(topology, total, rng)
    world = GossipSimulation(speeds, cfg, seed=rng)
    tracker = ConvergenceTracker()
    world.trackers.append(tracker)
    # Everyone is a known member; the last n_events start offline.
    members = np.arange(total)
    for peer in world.peers:
        peer.membership.establish(members)
    for pid in range(n_established):
        world.peers[pid].start(stable=True)
    for pid in range(n_established, total):
        # Established peers will discover these are offline on contact.
        world.peers[pid].online = False
        world.network.set_online(pid, False)

    arrival_times = np.cumsum(rng.exponential(mean_interarrival_s, size=n_events))
    rid_info: dict[int, tuple[int, float, str]] = {}

    def _arrive(pid: int) -> None:
        rumor = world.peers[pid].rejoin(new_keys=new_keys)
        world.tracked_register(rumor.rid, pid, label="join")
        rid_info[rumor.rid] = (pid, world.sim.now, "join")

    for i in range(n_events):
        world.sim.schedule_at(float(arrival_times[i]), _arrive, n_established + i)

    horizon = float(arrival_times[-1]) + settle_time_s
    world.sim.run(
        until=horizon,
        stop_when=lambda: len(rid_info) == n_events and tracker.all_converged(),
    )
    times = tracker.convergence_times()
    events = [
        DynamicEvent(rid, origin, created, label, times.get(rid))
        for rid, (origin, created, label) in sorted(rid_info.items())
    ]
    bw_t, bw_r = world.network.bandwidth.series()
    return DynamicResult(
        community_size=total,
        topology=topology,
        events=events,
        bandwidth_times=bw_t,
        bandwidth_Bps=bw_r,
        total_bytes=world.network.stats.total_bytes,
    )


def run_churn(
    n_members: int = 1000,
    horizon_s: float = 4 * 3600.0,
    topology: str = "lan",
    config: GossipConfig | None = None,
    always_on_fraction: float = 0.40,
    mean_online_s: float = 3600.0,
    mean_offline_s: float = 8400.0,
    new_keys_prob: float = 0.05,
    new_keys: int = 1000,
    seed: int = 0,
    settle_time_s: float = 1800.0,
) -> DynamicResult:
    """Figures 4(b,c) and 5: normal operation of a dynamic community.

    40% of members stay online; the rest alternate online/offline with
    exponential durations; 5% of rejoins share ``new_keys`` new keys
    (labelled "join" per the paper's terminology, vs "rejoin" for
    no-new-information arrivals).  Events created in the last
    ``settle_time_s`` of the horizon are discarded (they may not have had
    time to converge).  Under a MIX topology with
    ``config.bandwidth_aware`` the result also carries each event's
    convergence time under the fast-peers-only condition (MIX-F/MIX-S).
    """
    cfg = config or GossipConfig()
    rng = make_rng(seed)
    speeds = make_topology(topology, n_members, rng)
    world = GossipSimulation(speeds, cfg, seed=rng)

    tracker_all = ConvergenceTracker()
    world.trackers.append(tracker_all)
    fast_mask = speeds >= FAST_LINK_THRESHOLD_BPS
    tracker_fast = ConvergenceTracker(required=lambda pid: bool(fast_mask[pid]))
    world.trackers.append(tracker_fast)

    churn = ChurnModel(
        n_members,
        always_on_fraction=always_on_fraction,
        mean_online_s=mean_online_s,
        mean_offline_s=mean_offline_s,
        new_keys_prob=new_keys_prob,
        seed=rng,
    )
    schedules = churn.generate(horizon_s)

    # Everyone is a long-standing member; initial online state follows the
    # schedules' stationary draw.
    members = np.arange(n_members)
    for peer in world.peers:
        peer.membership.establish(members)
    for sched in schedules:
        peer = world.peers[sched.peer_id]
        if sched.initially_online:
            peer.start(stable=True)
        else:
            peer.online = False
            world.network.set_online(peer.pid, False)

    rid_info: dict[int, tuple[int, float, str]] = {}
    measure_until = horizon_s - settle_time_s

    def _toggle(pid: int) -> None:
        peer = world.peers[pid]
        if peer.online:
            peer.go_offline()
        else:
            keys = new_keys if churn.rejoin_has_new_keys() else 0
            rumor = peer.rejoin(new_keys=keys)
            label = "join" if keys else "rejoin"
            if world.sim.now <= measure_until:
                world.tracked_register(rumor.rid, pid, label=label)
                rid_info[rumor.rid] = (pid, world.sim.now, label)

    for sched in schedules:
        for t in sched.transitions:
            world.sim.schedule_at(float(t), _toggle, sched.peer_id)

    world.sim.run(until=horizon_s)
    times_all = tracker_all.convergence_times()
    times_fast = tracker_fast.convergence_times()
    events = [
        DynamicEvent(
            rid, origin, created, label, times_all.get(rid), times_fast.get(rid)
        )
        for rid, (origin, created, label) in sorted(rid_info.items())
    ]
    bw_t, bw_r = world.network.bandwidth.series()
    return DynamicResult(
        community_size=n_members,
        topology=topology,
        events=events,
        bandwidth_times=bw_t,
        bandwidth_Bps=bw_r,
        total_bytes=world.network.stats.total_bytes,
    )
