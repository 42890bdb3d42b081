"""Validating the gossip simulator against the real library state.

The authors validated their simulator by running the Java prototype on an
8-machine cluster (Section 7.2).  We have no cluster, but we can do the
equivalent in-process: run *real* PlanetP state — actual Bloom filters,
actual Golomb-compressed diffs — through the simulated gossip layer and
check that

1. the Table 2 wire-size model matches what our real compression produces
   for the same key counts, and
2. after gossip convergence every peer's *replicated* filter equals the
   publisher's true filter, so a TF×IPF search over gossiped replicas is
   identical to one over direct filter access.

:class:`ReplicaObserver` plugs into :class:`GossipSimulation`'s tracker
broadcast: whenever a peer learns a rumor carrying a filter diff, the
observer applies that diff to the peer's local replica — the simulation's
rumor ids become real state transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bloom.compress import compressed_size
from repro.bloom.diff import BloomDiff, apply_diff, diff_filters
from repro.bloom.filter import BloomFilter
from repro.constants import GossipConfig, bloom_filter_bytes
from repro.gossip.simulation import GossipSimulation
from repro.sim.metrics import ConvergenceTracker
from repro.sim.topology import make_topology
from repro.utils.rng import make_rng

__all__ = ["ReplicaObserver", "wire_model_vs_real", "run_live_replication"]


class ReplicaObserver:
    """Tracker-protocol observer that applies real filter diffs on learn.

    ``replicas[peer][origin]`` is peer's copy of origin's Bloom filter,
    updated as the corresponding rumors reach it.
    """

    def __init__(self, num_peers: int, template: BloomFilter) -> None:
        self.replicas: list[dict[int, BloomFilter]] = [
            {} for _ in range(num_peers)
        ]
        self._template = template
        self._diffs: dict[int, tuple[int, BloomDiff]] = {}

    def attach_diff(self, rid: int, origin: int, diff: BloomDiff) -> None:
        """Associate rumor ``rid`` with a real filter diff from ``origin``."""
        self._diffs[rid] = (origin, diff)

    def _apply(self, rid: int, peer_id: int) -> None:
        entry = self._diffs.get(rid)
        if entry is None:
            return
        origin, diff = entry
        replica = self.replicas[peer_id].get(origin)
        if replica is None:
            replica = BloomFilter(self._template.num_bits, self._template.num_hashes)
        self.replicas[peer_id][origin] = apply_diff(replica, diff)

    # -- ConvergenceTracker-compatible interface -------------------------------

    def register(self, event_id: int, created_at: float, online_unknowing, label="") -> None:
        """No-op: registration is handled via :meth:`attach_diff`."""

    def peer_learned(self, event_id: int, peer_id: int, time: float) -> None:
        """Apply the rumor's diff to the learner's replica."""
        self._apply(event_id, peer_id)

    def peer_learned_many(self, peer_id: int, known_ids: set[int], time: float) -> None:
        """Bulk form used by directory snapshots."""
        for rid in known_ids:
            self._apply(rid, peer_id)

    def peer_offline(self, peer_id: int, time: float) -> None:
        """No-op (replicas persist across offline periods)."""

    def peer_online(self, peer_id: int, knows) -> None:
        """No-op."""


@dataclass(frozen=True)
class WireModelRow:
    """One key-count comparison between Table 2's model and reality."""

    num_keys: int
    model_bytes: int
    real_bytes: int

    @property
    def ratio(self) -> float:
        """real / model."""
        return self.real_bytes / self.model_bytes


def wire_model_vs_real(
    key_counts: tuple[int, ...] = (1000, 5000, 10000, 20000),
    num_hashes: int = 2,
) -> list[WireModelRow]:
    """Compare Table 2's interpolated Bloom filter wire sizes against the
    actual Golomb-compressed sizes our implementation produces."""
    rows = []
    for n in key_counts:
        bf = BloomFilter.paper_prototype()
        bf.add_many([f"validation-key-{i}" for i in range(n)])
        rows.append(
            WireModelRow(
                num_keys=n,
                model_bytes=bloom_filter_bytes(n),
                real_bytes=compressed_size(bf),
            )
        )
    return rows


@dataclass
class LiveReplicationResult:
    """Outcome of a real-state gossip replication run."""

    converged: bool
    convergence_time_s: float
    replicas_exact: bool
    total_bytes: int
    num_publishers: int


def run_live_replication(
    n_peers: int = 20,
    n_publishers: int = 4,
    terms_per_publisher: int = 300,
    topology: str = "lan",
    config: GossipConfig | None = None,
    seed: int = 0,
    max_time_s: float = 4 * 3600.0,
) -> LiveReplicationResult:
    """Gossip *real* Bloom filter diffs through the simulator.

    ``n_publishers`` peers each build a real filter over fresh terms; the
    corresponding rumors carry the diffs' true Golomb-compressed sizes
    and, on learning, receivers apply the actual diff to their replica.
    Returns whether every online peer's replica ended up bit-identical to
    each publisher's true filter.
    """
    cfg = config or GossipConfig(base_interval_s=2.0)
    rng = make_rng(seed)
    world = GossipSimulation(make_topology(topology, n_peers, rng), cfg, seed=rng)
    tracker = ConvergenceTracker()
    template = BloomFilter(2**16, 2)
    observer = ReplicaObserver(n_peers, template)
    world.trackers.append(tracker)
    world.trackers.append(observer)
    world.establish(range(n_peers))

    true_filters: dict[int, BloomFilter] = {}
    for p in range(n_publishers):
        old = BloomFilter(template.num_bits, template.num_hashes)
        new = old.copy()
        new.add_many([f"peer{p}-term-{i}" for i in range(terms_per_publisher)])
        diff = diff_filters(old, new)
        true_filters[p] = new
        # The rumor's payload is the diff's true wire size, not Table 2's
        # interpolation — the simulation carries real costs.
        rumor = world.peers[p].originate_update(
            terms_per_publisher, payload_bytes=diff.wire_size()
        )
        world.tracked_register(rumor.rid, p, label="bf_diff")
        observer.attach_diff(rumor.rid, p, diff)
        observer.peer_learned(rumor.rid, p, 0.0)

    world.sim.run(until=max_time_s, stop_when=tracker.all_converged)
    converged = tracker.all_converged()
    times = tracker.convergence_times()
    elapsed = max(times.values(), default=world.sim.now)

    exact = True
    for peer_id in range(n_peers):
        for origin, truth in true_filters.items():
            if peer_id == origin:
                continue
            replica = observer.replicas[peer_id].get(origin)
            if replica is None or replica != truth:
                exact = False
    return LiveReplicationResult(
        converged=converged,
        convergence_time_s=elapsed,
        replicas_exact=exact and converged,
        total_bytes=world.network.stats.total_bytes,
        num_publishers=n_publishers,
    )
