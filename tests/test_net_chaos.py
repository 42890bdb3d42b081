"""Chaos suite: the gossip layer earns its keep under injected failure.

Every scenario is reproducible from the seed it prints: the FaultPlan
and every NetworkPeer RNG are derived from it, and the nodes' own gossip
loops and the injected latency run on a virtual-time event loop
(:mod:`repro.net.vtime`), so reruns are bit-for-bit identical.
"""

import pytest

from repro.constants import GossipConfig
from repro.net import vtime
from repro.net.chaos import (
    EdgeFaults,
    FaultPlan,
    FaultyTransport,
    Window,
)
from repro.net.transport import LoopbackNetwork, TransportError
from repro.text.document import Document
from tests.chaos_harness import ChaosCommunity

pytestmark = pytest.mark.chaos

SEED = 1337


# ---------------------------------------------------------------------------
# FaultPlan / FaultyTransport mechanics
# ---------------------------------------------------------------------------


def test_edge_faults_validate():
    with pytest.raises(ValueError):
        EdgeFaults(drop_rate=1.5)
    with pytest.raises(ValueError):
        EdgeFaults(latency_min_s=0.2, latency_max_s=0.1)
    with pytest.raises(ValueError):
        Window(start=5.0, end=1.0)


def test_fault_plan_decisions_are_reproducible_per_edge():
    def outcomes(seed: int) -> list[tuple[bool, bool, float]]:
        plan = FaultPlan(seed=seed, default=EdgeFaults(drop_rate=0.4, latency_max_s=0.3))
        return [
            (d.drop, d.reset, d.delay_s)
            for _ in range(50)
            for d in [plan.decide("peer:0", "peer:1", 100)]
        ]

    assert outcomes(7) == outcomes(7)
    assert outcomes(7) != outcomes(8)


def test_fault_plan_edges_are_independent_streams():
    # Interleaving traffic on another edge must not perturb this edge.
    plan_a = FaultPlan(seed=3, default=EdgeFaults(drop_rate=0.5))
    plan_b = FaultPlan(seed=3, default=EdgeFaults(drop_rate=0.5))
    a_only = [plan_a.decide("x", "y", 10).drop for _ in range(30)]
    b_mixed = []
    for _ in range(30):
        plan_b.decide("x", "z", 10)  # extra traffic on a different edge
        b_mixed.append(plan_b.decide("x", "y", 10).drop)
    assert a_only == b_mixed


def test_partition_blocks_then_heals():
    plan = FaultPlan(seed=0)
    plan.partition(["peer:0"], ["peer:1"], start=10.0, end=20.0)
    assert plan.decide("peer:0", "peer:1", 1, now=0.0).blocked is None
    assert "partitioned" in plan.decide("peer:0", "peer:1", 1, now=10.0).blocked
    assert "partitioned" in plan.decide("peer:1", "peer:0", 1, now=10.0).blocked  # 2-way
    assert plan.decide("peer:0", "peer:1", 1, now=20.0).blocked is None  # healed


def test_asymmetric_partition_blocks_one_direction():
    plan = FaultPlan(seed=0)
    plan.partition(["a"], ["b"], symmetric=False)
    assert plan.decide("a", "b", 1).blocked is not None
    assert plan.decide("b", "a", 1).blocked is None


def test_crash_window_blocks_both_directions():
    plan = FaultPlan(seed=0)
    plan.crash("peer:3", start=5.0, end=8.0)
    assert "down" in plan.decide("peer:0", "peer:3", 1, now=6.0).blocked
    assert "down" in plan.decide("peer:3", "peer:0", 1, now=6.0).blocked
    assert plan.decide("peer:0", "peer:3", 1, now=9.0).blocked is None


def test_mix_bandwidth_assignment_is_deterministic_and_slows_requests():
    addresses = [f"peer:{i}" for i in range(40)]
    assigned = FaultPlan(seed=9).assign_mix_bandwidth(addresses)
    assert assigned == FaultPlan(seed=9).assign_mix_bandwidth(addresses)
    assert len(set(assigned.values())) > 1  # the MIX has several link classes
    plan = FaultPlan(seed=9)
    plan.set_bandwidth("peer:0", 1000.0)  # 1000 B/s access link
    delay = plan.decide("peer:0", "peer:1", 500).delay_s
    assert delay == pytest.approx(0.5)


def test_faulty_transport_drop_and_reset_semantics():
    async def scenario():
        calls = []

        async def handler(body: bytes) -> bytes:
            calls.append(body)
            return b"ok"

        net = LoopbackNetwork()
        server = net.transport()
        await server.serve("peer:1", handler)

        # drop: the request never reaches the handler.
        plan = FaultPlan(seed=0, default=EdgeFaults(drop_rate=1.0))
        dropper = FaultyTransport(net.transport(), plan, name="peer:0")
        with pytest.raises(TransportError, match="dropped"):
            await dropper.request("peer:1", b"lost")
        assert calls == [] and plan.dropped == 1

        # reset: delivered (handler ran, state mutated) but the reply is lost.
        plan = FaultPlan(seed=0, default=EdgeFaults(reset_rate=1.0))
        resetter = FaultyTransport(net.transport(), plan, name="peer:0")
        with pytest.raises(TransportError, match="reset"):
            await resetter.request("peer:1", b"delivered")
        assert calls == [b"delivered"] and plan.resets == 1

    vtime.run(scenario())


# ---------------------------------------------------------------------------
# the acceptance scenario: drops + jitter + a healing 2-way partition
# ---------------------------------------------------------------------------

CHAOS_END = 6000.0


async def _acceptance_run(seed: int) -> ChaosCommunity:
    """10 peers under 20% drops, 50-500 ms jitter, one healing partition."""
    community = ChaosCommunity(10, seed=seed)
    community.plan.set_default(
        EdgeFaults(drop_rate=0.2, latency_min_s=0.05, latency_max_s=0.5),
        start=0.0,
        end=CHAOS_END,
    )
    community.plan.partition(
        [community.address(p) for p in range(5)],
        [community.address(p) for p in range(5, 10)],
        start=600.0,
        end=1800.0,  # the partition heals here
    )
    await community.boot()
    for pid in range(10):
        community.publish(
            pid, Document(f"doc-{pid}", f"peer {pid} publishes gossip shard {pid}")
        )
    community.publish(0, Document("epidemic", "epidemic gossip protocols converge"))
    community.publish(7, Document("bloom", "bloom filters summarize gossip state"))
    # Ride out the chaos window, then allow a quiet tail to converge.
    await community.elapse(int(CHAOS_END / community.config.base_interval_s))
    await community.converge(max_intervals=150)
    return community


def test_chaos_acceptance_converges_and_matches_oracle():
    print(f"chaos acceptance seed: {SEED}")

    async def scenario():
        community = await _acceptance_run(SEED)
        # The plan really did hurt: losses, resets aside, and a partition.
        assert community.plan.dropped > 50
        assert community.plan.blocked > 0
        assert community.plan.delivered > 0
        assert community.plan.delay_total_s > 0.0
        community.assert_converged()
        # Ranked search from both sides of the healed partition agrees
        # exactly with the in-process oracle on the same corpus.
        await community.assert_search_parity(0, "gossip bloom filters", k=5)
        await community.assert_search_parity(7, "epidemic gossip", k=4)
        for pid in community.nodes:
            await community.nodes[pid].stop()
        return community

    vtime.run(scenario())


def test_chaos_acceptance_is_deterministic():
    async def fingerprint() -> tuple:
        community = await _acceptance_run(SEED)
        fp = (
            community.clock(),
            community.plan.dropped,
            community.plan.blocked,
            community.plan.delivered,
            round(community.plan.delay_total_s, 9),
            sorted(node.core.digest for node in community.nodes.values()),
        )
        for pid in community.nodes:
            await community.nodes[pid].stop()
        return fp

    first = vtime.run(fingerprint())
    second = vtime.run(fingerprint())
    assert first == second, f"seed {SEED} did not reproduce"


# ---------------------------------------------------------------------------
# fault accounting: registry counters equal the plan's audit, exactly
# ---------------------------------------------------------------------------


async def _accounting_run(seed: int, faulty: bool) -> ChaosCommunity:
    """6 peers, moderate drops/resets/jitter (or a clean control run)."""
    community = ChaosCommunity(6, seed=seed)
    fault_end = 40 * community.config.base_interval_s
    if faulty:
        community.plan.set_default(
            EdgeFaults(
                drop_rate=0.15,
                reset_rate=0.05,
                latency_min_s=0.01,
                latency_max_s=0.2,
            ),
            start=0.0,
            end=fault_end,  # quiet tail afterwards so convergence can stick
        )
    await community.boot()
    for pid in range(6):
        community.publish(
            pid, Document(f"doc-{pid}", f"fault accounting shard {pid}")
        )
    await community.elapse(40)
    await community.converge(max_intervals=200)
    for pid in community.nodes:
        await community.nodes[pid].stop()
    return community


@pytest.mark.parametrize("seed", [1337, 20260806])
def test_chaos_registry_accounting_matches_plan_exactly(seed):
    """Per-node ``chaos.injected_*`` counters, summed over the community,
    must equal the FaultPlan's own audit — the same faults, counted at
    both ends of the injection."""

    async def scenario():
        community = await _accounting_run(seed, faulty=True)
        plan = community.plan
        assert plan.dropped > 0, f"seed {seed}: plan injected no drops"
        assert plan.resets > 0, f"seed {seed}: plan injected no resets"
        assert community.metric_sum("chaos", "injected_drops_total") == plan.dropped
        assert community.metric_sum("chaos", "injected_resets_total") == plan.resets
        assert community.metric_sum("chaos", "injected_blocked_total") == plan.blocked
        assert community.metric_sum(
            "chaos", "injected_delay_seconds_total"
        ) == pytest.approx(plan.delay_total_s)
        # The retry machinery engaged: injected failures surfaced as
        # contact failures the gossip layer had to ride out.
        assert community.metric_sum("node", "contact_failures_total") > 0
        # Every node's trace saw at least one fault_injected event.
        fault_events = [
            e
            for reg in community.registries.values()
            for e in reg.trace.events("fault_injected")
        ]
        assert fault_events, f"seed {seed}: no fault_injected trace events"
        assert {e.fields["fault"] for e in fault_events} >= {"drops", "resets"}

    vtime.run(scenario())


def test_chaos_registry_zero_fault_control():
    """With no faults scripted, every injected-fault counter is zero and
    no retries fire — the counters measure the plan, not noise."""

    async def scenario():
        community = await _accounting_run(SEED, faulty=False)
        plan = community.plan
        assert plan.dropped == 0 and plan.resets == 0 and plan.blocked == 0
        assert community.metric_sum("chaos", "injected_drops_total") == 0.0
        assert community.metric_sum("chaos", "injected_resets_total") == 0.0
        assert community.metric_sum("chaos", "injected_blocked_total") == 0.0
        assert community.metric_sum("node", "contact_failures_total") == 0.0
        for reg in community.registries.values():
            assert reg.trace.events("fault_injected") == []

    vtime.run(scenario())


# ---------------------------------------------------------------------------
# churn soak: scripted crash + rejoin, T_Dead expiry, rejoin healing
# ---------------------------------------------------------------------------


def test_churn_soak_crash_expiry_and_rejoin():
    print(f"churn soak seed: {SEED}")
    t_dead = 600.0

    async def scenario():
        community = ChaosCommunity(
            8, seed=SEED, gossip_config=GossipConfig(t_dead_s=t_dead)
        )
        await community.boot()
        for pid in range(8):
            community.publish(pid, Document(f"d{pid}", f"churn corpus shard {pid}"))
        await community.converge()

        # Two peers crash silently (Section 3: departures are unannounced).
        await community.crash(2)
        await community.crash(5)
        # Survivors keep publishing while the dead are down.
        community.publish(0, Document("mid-churn", "published during the outage"))
        await community.converge()

        # Peer 2 rejoins before T_Dead; its REJOIN rumor restores it.
        await community.restart(2)
        await community.converge()
        for pid in sorted(community.alive):
            if pid == 2:
                continue
            members = community.nodes[pid].membership
            assert members.is_online(2), f"peer {pid} did not re-admit the rejoiner"
        # The rejoiner caught up on what it missed while down.
        assert community.nodes[2].replica_of(0) == (
            community.nodes[0].peer.store.bloom_filter
        )

        # Peer 5 stays dead: every survivor expires it after T_Dead.
        def five_is_gone() -> bool:
            return all(
                5 not in community.nodes[pid].peer.directory
                for pid in community.alive
            )

        await community.elapse(200, until=five_is_gone)
        assert five_is_gone(), f"seed {SEED}: peer 5 survived T_Dead"
        community.assert_converged()
        assert sorted(community.alive) == [0, 1, 2, 3, 4, 6, 7]
        for pid in community.alive:
            await community.nodes[pid].stop()

    vtime.run(scenario())
