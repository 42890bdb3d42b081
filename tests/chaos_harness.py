"""Deterministic chaos harness: a loopback community under a FaultPlan.

Boots N :class:`~repro.net.node.NetworkPeer` instances over the in-memory
loopback fabric, wraps every endpoint in a fault-injecting
:class:`~repro.net.chaos.FaultyTransport`, and runs each node's shipping
gossip loop (:meth:`~repro.net.node.NetworkPeer.run`).  Scenarios run on
:func:`repro.net.vtime.run`, so a scenario with minutes of simulated
jitter and partitions runs in real milliseconds and is reproducible from
its seed alone.

The harness lets virtual time pass (never calling a round by hand),
tracks which peers are alive across scripted crash/restart schedules, and
mirrors every publish into an :class:`~repro.core.community.
InProcessCommunity` oracle so ranked-search results can be checked for
exact agreement once the network converges.
"""

from __future__ import annotations

import asyncio
from typing import Callable

from repro.constants import BloomConfig, GossipConfig
from repro.core.community import InProcessCommunity
from repro.net.chaos import FaultPlan, FaultyTransport
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
        self.plan = FaultPlan(seed=seed)
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
                transport=FaultyTransport(self.net.transport(), self.plan),
                gossip_config=self.config,
                bloom_config=self.bloom_config,
                seed=(seed << 16) | pid,
                registry=self.registries[pid],
            )
            for pid in range(num_peers)
        }

    @staticmethod
    def clock() -> float:
        """The running event loop's time: virtual seconds under vtime."""
        return asyncio.get_running_loop().time()

    def address(self, pid: int) -> str:
        """The loopback address peer ``pid`` serves at."""
        return f"peer:{pid}"

    def metric_sum(self, component: str, name: str) -> float:
        """Sum one counter/gauge across every peer's registry."""
        return sum(reg.value(component, name) for reg in self.registries.values())

    # -- lifecycle -----------------------------------------------------------

    async def boot(self, bootstrap: int = 0, join_attempts: int = 50) -> None:
        """Start every peer, join them all through ``bootstrap`` (retrying
        joins that the fault plan kills), then start every gossip loop."""
        for pid in sorted(self.nodes):
            await self.nodes[pid].start()
            self.alive.add(pid)
        for pid in sorted(self.nodes):
            if pid != bootstrap:
                await self.join(pid, bootstrap, attempts=join_attempts)
        for pid in sorted(self.nodes):
            self.nodes[pid].run()

    async def join(self, pid: int, via: int, attempts: int = 50) -> None:
        """Join ``pid`` through ``via``, retrying under injected faults."""
        for _ in range(attempts):
            try:
                await self.nodes[pid].join(self.address(via))
                return
            except TransportError:
                await asyncio.sleep(1.0)
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
        """Bring a crashed peer back at the same address, announce a
        REJOIN rumor so gossip heals its membership, and restart its
        gossip loop."""
        node = self.nodes[pid]
        await node.start()
        self.alive.add(pid)
        node.announce_rejoin()
        node.run()

    async def stop(self) -> None:
        """Stop every alive peer (cancelling its gossip loop)."""
        for pid in sorted(self.alive):
            await self.nodes[pid].stop()

    # -- driving -------------------------------------------------------------

    async def elapse(
        self, intervals: int, until: Callable[[], bool] | None = None
    ) -> int:
        """Let up to ``intervals`` base gossip intervals pass while the
        peers' own loops gossip, checking ``until()`` after each one and
        stopping early once it holds.  Returns the intervals elapsed."""
        for done in range(1, intervals + 1):
            await asyncio.sleep(self.config.base_interval_s)
            if until is not None and until():
                return done
        return intervals

    async def converge(self, max_intervals: int = 200) -> int:
        """Let time pass until every alive peer agrees; returns the base
        intervals it took."""
        used = await self.elapse(max_intervals, until=self.converged)
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
