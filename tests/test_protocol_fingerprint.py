"""Protocol fingerprint: every count the gossip protocol produces, pinned.

Two seeded :class:`~tests.chaos_harness.ChaosCommunity` scenarios run the
shipping gossip loops on the virtual-time event loop
(:mod:`repro.net.vtime`), so everything they count is a pure function of
the code and the seeds:

* ``clean`` — joins, publishes, convergence, three ranked and three
  exhaustive searches;
* ``faulty`` — the same under a 15 % drop / 5 % reset plan for the first
  40 intervals, then, once converged, a crash held past T_Dead until every
  survivor has expired the peer (the survivors publish meanwhile), then
  its rejoin.

Pinned per scenario: the per-type wire message and real-byte counters,
the node's protocol counters, the search client's contacts and waves,
the injected faults, the served RPCs per node and the sorted final
directory digests.  Time-valued samples (latencies, injected delay) are
left out.  A change that moves any of them changes the protocol, however
small; ``scripts/protocol_fingerprint.py`` prints each counter that moved
and, with ``--write``, re-pins this golden.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.constants import GossipConfig
from repro.net import vtime
from repro.net.chaos import EdgeFaults
from repro.net.client import NetworkSearchClient
from repro.text.document import Document
from tests.chaos_harness import ChaosCommunity

GOLDEN = Path(__file__).parent / "golden" / "protocol_fingerprint.json"

NUM_PEERS = 8
NODE_COUNTERS = (
    "gossip_rounds_total",
    "rumor_rounds_total",
    "ae_rounds_total",
    "rumors_minted_total",
    "rumors_learned_total",
    "filter_announcements_total",
    "ae_full_summaries_total",
    "partial_ae_pulls_total",
    "contact_failures_total",
    "peers_expired_total",
    "rows_rejected_total",
    "rumors_rejected_total",
    "round_failures_total",
)
CLIENT_COUNTERS = (
    "queries_total",
    "exhaustive_queries_total",
    "peers_contacted_total",
    "stopped_early_total",
    "ranking_exhausted_total",
)
CHAOS_COUNTERS = (
    "injected_drops_total",
    "injected_resets_total",
    "injected_blocked_total",
)
TOPICS = ("gossip", "bloom", "epidemic", "rumor")
#: one fresh term per outage wave, so every wave grows every filter.
OUTAGE_WORDS = (
    "amber", "birch", "cedar", "dune", "ember", "fjord",
    "grove", "heath", "inlet", "juniper", "kelp", "larch",
)
SEARCHES = (
    (0, "gossip rumor"),
    (3, "bloom filter"),
    (6, "epidemic gossip"),
)


def _publish_corpus(community: ChaosCommunity) -> None:
    for pid in range(NUM_PEERS):
        for i in range(2):
            topic = TOPICS[(pid + i) % len(TOPICS)]
            community.publish(
                pid,
                Document(f"doc-{pid}-{i}", f"peer {pid} {topic} filter shard {i}"),
            )


async def _search(community: ChaosCommunity) -> None:
    for querier, query in SEARCHES:
        client = NetworkSearchClient(community.nodes[querier])
        await client.ranked_search(query, k=3)
        await client.exhaustive_search(query)


def _fingerprint(community: ChaosCommunity) -> dict[str, object]:
    regs = community.registries.values()
    counts: dict[str, object] = {}
    wire = sorted(
        {
            inst.name
            for reg in regs
            for inst in reg.instruments()
            if inst.component == "wire"
            and inst.name.endswith(("_messages_total", "_real_bytes_total"))
        }
    )
    for name in wire:
        counts[f"wire.{name}"] = community.metric_sum("wire", name)
    for component, names in (
        ("node", NODE_COUNTERS),
        ("client", CLIENT_COUNTERS),
        ("chaos", CHAOS_COUNTERS),
    ):
        for name in names:
            counts[f"{component}.{name}"] = community.metric_sum(component, name)
    for name in ("waves_per_query", "peers_per_query"):
        snaps = [s for reg in regs if (s := reg.snapshot("client", name)) is not None]
        counts[f"client.{name}.sum"] = sum(s.sum for s in snaps)
    counts["transport.served_requests_total"] = [
        reg.value("transport", "served_requests_total") for reg in regs
    ]
    counts["digests"] = sorted(
        f"{community.nodes[pid].core.digest:016x}" for pid in community.alive
    )
    return counts


async def _clean() -> dict[str, object]:
    community = ChaosCommunity(NUM_PEERS, seed=11)
    await community.boot()
    _publish_corpus(community)
    await community.converge()
    await community.elapse(10)  # quiet rounds: the interval policy and AE
    await _search(community)
    await community.stop()
    return _fingerprint(community)


async def _faulty() -> dict[str, object]:
    t_dead = 1800.0  # longer than the fault window: no live peer expires
    community = ChaosCommunity(
        NUM_PEERS, seed=1337, gossip_config=GossipConfig(t_dead_s=t_dead)
    )
    community.plan.set_default(
        EdgeFaults(drop_rate=0.15, reset_rate=0.05, latency_min_s=0.01, latency_max_s=0.2),
        end=40 * community.config.base_interval_s,  # then a quiet tail
    )
    await community.boot()
    _publish_corpus(community)
    await community.elapse(40)
    await community.converge()
    await community.crash(5)
    # Survivors publish while 5 is down: more rumors than an AE_RECENT
    # reply lists, so 5's catch-up needs a full-summary escalation.
    for wave, word in enumerate(OUTAGE_WORDS):
        for pid in sorted(community.alive):
            community.publish(pid, Document(f"late-{pid}-{wave}", f"outage news {word}"))
        await community.elapse(1)

    def five_is_gone() -> bool:
        return all(5 not in community.nodes[pid].peer.directory for pid in community.alive)

    await community.elapse(200, until=five_is_gone)
    assert five_is_gone(), "peer 5 outlived T_Dead"
    await community.restart(5)
    await community.converge()
    await _search(community)
    await community.stop()
    return _fingerprint(community)


SCENARIOS = {"clean": _clean, "faulty": _faulty}


def fingerprints() -> dict[str, dict[str, object]]:
    """Run every scenario on a fresh virtual-time loop."""
    return {name: vtime.run(scenario()) for name, scenario in SCENARIOS.items()}


def moved(
    want: dict[str, dict[str, object]], got: dict[str, dict[str, object]]
) -> list[str]:
    """One ``scenario key: pinned -> now`` line per counter that differs."""
    lines = []
    for scenario in sorted(want.keys() | got.keys()):
        old, new = want.get(scenario, {}), got.get(scenario, {})
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                lines.append(f"{scenario} {key}: {old.get(key)} -> {new.get(key)}")
    return lines


def test_protocol_fingerprint_matches_golden():
    diff = moved(json.loads(GOLDEN.read_text()), fingerprints())
    assert not diff, (
        "the protocol fingerprint moved; if intended, re-pin it with "
        "`PYTHONPATH=src python scripts/protocol_fingerprint.py --write` and "
        "name each moved counter in CHANGES.md:\n" + "\n".join(diff)
    )
