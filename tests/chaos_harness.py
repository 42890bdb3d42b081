"""Deterministic chaos harness: a loopback community under a FaultPlan.

Boots N :class:`~repro.net.node.NetworkPeer` instances over the in-memory
loopback fabric, wraps every endpoint in a fault-injecting
:class:`~repro.net.chaos.FaultyTransport`, and advances time through a
shared :class:`~repro.net.chaos.VirtualClock` — so a scenario with
minutes of simulated jitter and partitions runs in real milliseconds and
is reproducible from its seed alone.

The harness drives gossip rounds explicitly (never wall-clock timers),
tracks which peers are alive across scripted crash/restart schedules, and
mirrors every publish into an :class:`~repro.core.community.
InProcessCommunity` oracle so ranked-search results can be checked for
exact agreement once the network converges.
"""

from __future__ import annotations

from typing import Callable

from repro.constants import BloomConfig, GossipConfig
from repro.core.community import InProcessCommunity
from repro.net.chaos import FaultPlan, FaultyTransport, VirtualClock
from repro.net.client import NetworkSearchClient
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork, TransportError
from repro.obs import Registry
from repro.text.document import Document


class ChaosCommunity:
    """N loopback peers gossiping under an injectable fault schedule."""

    def __init__(
        self,
        num_peers: int,
        seed: int = 0,
        gossip_config: GossipConfig | None = None,
        bloom_config: BloomConfig | None = None,
    ) -> None:
        self.seed = seed
        self.clock = VirtualClock()
        self.plan = FaultPlan(seed=seed, clock=self.clock)
        self.config = gossip_config or GossipConfig()
        self.bloom_config = bloom_config or BloomConfig()
        self.net = LoopbackNetwork()
        self.alive: set[int] = set()
        #: everything published, mirrored into the oracle on demand.
        self.published: list[tuple[int, Document]] = []
        #: per-peer metric registries, isolated from the process-global
        #: one so concurrent tests never share counters.
        self.registries: dict[int, Registry] = {
            pid: Registry(clock=self.clock) for pid in range(num_peers)
        }
        self.nodes: dict[int, NetworkPeer] = {
            pid: NetworkPeer(
                pid,
                "peer",
                pid,
                transport=FaultyTransport(
                    self.net.transport(), self.plan, sleep=self.clock.sleep
                ),
                gossip_config=self.config,
                bloom_config=self.bloom_config,
                seed=(seed << 16) | pid,
                clock=self.clock,
                registry=self.registries[pid],
            )
            for pid in range(num_peers)
        }

    def address(self, pid: int) -> str:
        """The loopback address peer ``pid`` serves at."""
        return f"peer:{pid}"

    def metric_sum(self, component: str, name: str) -> float:
        """Sum one counter/gauge across every peer's registry."""
        return sum(reg.value(component, name) for reg in self.registries.values())

    # -- lifecycle -----------------------------------------------------------

    async def boot(self, bootstrap: int = 0, join_attempts: int = 50) -> None:
        """Start every peer and join them all through ``bootstrap``,
        retrying joins that the fault plan kills."""
        for pid in sorted(self.nodes):
            await self.nodes[pid].start()
            self.alive.add(pid)
        for pid in sorted(self.nodes):
            if pid != bootstrap:
                await self.join(pid, bootstrap, attempts=join_attempts)

    async def join(self, pid: int, via: int, attempts: int = 50) -> None:
        """Join ``pid`` through ``via``, retrying under injected faults."""
        for _ in range(attempts):
            try:
                await self.nodes[pid].join(self.address(via))
                return
            except TransportError:
                self.clock.advance(1.0)
        raise AssertionError(
            f"peer {pid} failed to join via {via} in {attempts} attempts "
            f"(seed {self.seed})"
        )

    def publish(self, pid: int, doc: Document) -> None:
        """Publish through peer ``pid`` and remember it for the oracle."""
        self.nodes[pid].publish(doc)
        self.published.append((pid, doc))

    async def crash(self, pid: int) -> None:
        """Kill peer ``pid``: its server goes away mid-community, nothing
        is announced (Section 3 — departures are silent)."""
        await self.nodes[pid].stop()
        self.alive.discard(pid)

    async def restart(self, pid: int) -> None:
        """Bring a crashed peer back at the same address and announce a
        REJOIN rumor so gossip heals its membership."""
        node = self.nodes[pid]
        await node.start()
        self.alive.add(pid)
        node.announce_rejoin()

    # -- driving -------------------------------------------------------------

    async def run_rounds(
        self,
        rounds: int,
        dt: float | None = None,
        until: Callable[[], bool] | None = None,
    ) -> int:
        """Advance the clock and run one gossip round per alive peer, up
        to ``rounds`` times; stops early when ``until()`` turns true.
        Returns the number of rounds actually run."""
        dt = self.config.base_interval_s if dt is None else dt
        for done in range(1, rounds + 1):
            self.clock.advance(dt)
            for pid in sorted(self.alive):
                await self.nodes[pid].gossip_round()
            if until is not None and until():
                return done
        return rounds

    async def converge(self, max_rounds: int = 200, dt: float | None = None) -> int:
        """Run rounds until every alive peer agrees; returns rounds used."""
        used = await self.run_rounds(max_rounds, dt=dt, until=self.converged)
        self.assert_converged()
        return used

    # -- assertions ----------------------------------------------------------

    def converged(self) -> bool:
        """Alive peers share one digest, mark each other online, and hold
        bit-identical replicas of every alive member's filter."""
        nodes = [self.nodes[pid] for pid in sorted(self.alive)]
        if len({node.core.digest for node in nodes}) != 1:
            return False
        for owner in nodes:
            for observer in nodes:
                if observer.replica_of(owner.peer_id) != owner.peer.store.bloom_filter:
                    return False
                if observer is owner:
                    continue
                if not observer.membership.is_online(owner.peer_id):
                    return False
        return True

    def assert_converged(self) -> None:
        """Fail loudly (with the seed) if the community has not converged."""
        assert self.converged(), (
            f"community diverged (seed {self.seed}): digests "
            f"{[hex(self.nodes[p].core.digest) for p in sorted(self.alive)]}"
        )

    def oracle(self) -> InProcessCommunity:
        """An in-process community holding exactly what was published."""
        community = InProcessCommunity(
            num_peers=len(self.nodes), bloom_config=self.bloom_config
        )
        for pid, doc in self.published:
            community.publish(pid, doc)
        return community

    async def assert_search_parity(self, querier: int, query: str, k: int) -> None:
        """Ranked search from ``querier`` must match the oracle exactly."""
        expected = self.oracle().ranked_search(query, k=k)
        result = await NetworkSearchClient(self.nodes[querier]).ranked_search(
            query, k=k
        )
        got = [(d.doc_id, d.score) for d in result.results]
        want = [(d.doc_id, d.score) for d in expected.results]
        assert got == want, (
            f"seed {self.seed}: peer {querier} ranked {query!r} -> {got}, "
            f"oracle says {want}"
        )
