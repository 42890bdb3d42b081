"""One schedule, two drivers: the simulator's ``GossipPeer`` and the
socket node's ``NetworkPeer`` (on the loopback fabric) run the same
scripted contacts, and after every step each peer's ``(known, hot,
recent, interval)`` and its ``(members, online)`` must be equal in both
worlds.

Both drive the same ``GossipCore`` and ``MemberTable``; what this test
pins is that the two *drivers* feed them the same events in the same
order — the wire's RPC chain and the simulator's callback chain are one
protocol.  The script
owns every choice a driver would make itself: targets are explicit
(``world.selector`` / ``pick_target`` are scripted) and rounds fire when
the script says (the simulator's timers are off, the node's loop is never
started).  Rumor ids differ by construction (a registry counter vs
``peer_id << 32 | seq``), so they are compared as ``(origin, sequence)``.

The places the drivers still *deliberately* differ (DESIGN, "One gossip
core") are visible here rather than hidden: the script never has a peer
pull from a joiner an id the joiner only adopted by snapshot, because a
node stores no payload for those (and the joiner's recently-learned
window, divergence ii, only differs in order at this scale); timers (i)
are out of the picture altogether.  Both drivers force anti-entropy after
a rejoin (iii is closed), so the rejoin step needs no patching.  A node
also takes a successful contact and a relayed directory row as liveness
evidence, which a simulated peer never receives (v): the script never
has a peer contact a member it believes offline.
"""

import asyncio

import numpy as np

from repro.constants import AE_RECENT_WINDOW, GossipConfig
from repro.gossip.simpeer import GossipPeer
from repro.gossip.simulation import GossipSimulation
from repro.gossip.wire import PeerRecord
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document

ESTABLISHED = 6
SLOTS = 8  # peers 6 and 7 join mid-script

CONFIG = GossipConfig(anti_entropy_period=4)

#: ("round", peer, target) | ("update", peer) | ("join", peer, bootstrap)
#: | ("offline", peer) | ("rejoin", peer)
SCRIPT = [
    # -- the give-up counter and the partial-AE piggyback
    ("update", 0),
    ("round", 0, 1),  # 1 needs it
    ("round", 0, 1),  # 1 knew it: one strike
    ("round", 0, 1),  # two strikes: 0 retires it into its recent window
    ("update", 5),
    ("round", 5, 0),  # 0's reply piggybacks the retired id; 5 pulls it
    # -- rumor rounds spread both updates; every 4th round is anti-entropy
    ("round", 0, 2),
    ("round", 5, 3),
    ("round", 1, 4),
    ("round", 2, 3),
    ("round", 3, 4),
    ("round", 4, 2),
    ("round", 5, 1),
    ("round", 1, 2),
    ("round", 2, 0),
    ("round", 3, 1),
    ("round", 4, 5),
    ("round", 5, 4),
    ("round", 0, 3),
    ("round", 1, 5),
    ("round", 2, 5),
    ("round", 3, 0),
    ("round", 4, 0),
    ("round", 0, 4),
    # -- everyone agrees: idle anti-entropy stretches 1's and 2's interval
    ("round", 1, 2),
    ("round", 1, 3),
    ("round", 2, 4),
    ("round", 2, 0),
    # -- 3 drops out and misses a window's worth of updates and a join
    ("offline", 3),
    # news of its own snaps 1's interval back; more updates than a
    # recently-learned window holds, so 3's gap will outgrow it
    *[("update", 1)] * AE_RECENT_WINDOW,
    ("round", 1, 3),  # a failed contact changes nothing but liveness
    ("round", 1, 2),  # a rumor message snaps 2's interval back
    ("round", 2, 0),
    ("round", 0, 4),
    ("round", 4, 5),
    ("update", 4),
    ("round", 4, 1),
    ("round", 1, 0),
    ("round", 0, 5),
    ("round", 5, 2),
    ("update", 2),
    ("round", 2, 1),
    ("round", 2, 0),
    ("round", 1, 4),
    ("round", 0, 5),
    ("join", 6, 2),
    ("round", 2, 0),
    ("round", 6, 1),
    ("round", 0, 4),
    ("round", 1, 5),
    ("round", 4, 0),
    # -- 3 returns: forced anti-entropy, a gap wider than 0's recent window
    ("rejoin", 3),
    ("round", 3, 0),  # escalates to the full summary and pulls every rumor it missed
    ("round", 3, 1),
    ("round", 1, 2),
    ("round", 3, 4),
    ("round", 2, 5),
    ("round", 4, 6),
    ("round", 5, 0),
    # -- the first joiner publishes, a second member joins, all converge
    ("update", 6),
    ("round", 6, 3),
    ("join", 7, 0),
    ("round", 7, 6),
    ("round", 0, 1),
    ("round", 6, 2),
    ("round", 3, 5),
    ("round", 1, 4),
    ("round", 2, 3),
    ("round", 5, 4),
    ("round", 3, 4),
    ("round", 2, 0),
    ("round", 6, 1),
    ("round", 3, 5),
    ("round", 7, 4),
    ("round", 4, 7),
    ("round", 7, 2),
    ("round", 0, 6),
    ("round", 5, 7),
    ("round", 1, 3),
    ("round", 0, 2),
    ("round", 1, 6),
    ("round", 7, 0),
    ("round", 7, 1),
    ("round", 1, 3),  # nothing hot at 1: anti-entropy closes its last gap
]


class Scripted:
    """A target selector that answers what the script set."""

    def __init__(self):
        self.next = {}

    def rumor_target(self, members, rng, is_rumor_source=False):
        return self.next[members.owner]

    def ae_target(self, members, rng):
        return self.next[members.owner]


class SimWorld:
    def __init__(self, monkeypatch):
        # The script owns the clock: rounds fire when it says, never on a timer.
        monkeypatch.setattr(GossipPeer, "_schedule_timer", lambda self, delay: None)
        self.world = GossipSimulation(np.full(SLOTS, 1e6), CONFIG, seed=1)
        self.world.selector = Scripted()
        self.peers = self.world.peers
        for pid in range(ESTABLISHED):
            self.peers[pid].membership.establish(range(ESTABLISHED))
            self.peers[pid].online = True
            self.world.network.set_online(pid, True)

    def step(self, kind, pid, other=None):
        peer = self.peers[pid]
        if kind == "round":
            self.world.selector.next[pid] = other
            peer._on_timer()
        elif kind == "update":
            peer.originate_update(100)
        elif kind == "join":
            peer.begin_join(other)
        elif kind == "offline":
            peer.go_offline()
        elif kind == "rejoin":
            peer.rejoin()
        self.world.sim.run()  # drain every message (and failure timeout)

    def states(self):
        seq: dict[int, int] = {}
        key = {}
        for rid in sorted(self.world.registry._rumors):
            origin = self.world.registry.get(rid).origin
            key[rid] = (origin, seq.get(origin, 0))
            seq[origin] = key[rid][1] + 1
        return [_state(p.core, p.membership, key.__getitem__) for p in self.peers]


class NetWorld:
    def __init__(self):
        self.net = LoopbackNetwork()
        self.registry = Registry()
        self.nodes = [
            NetworkPeer(
                pid, "peer", pid, transport=self.net.transport(), seed=pid,
                gossip_config=CONFIG, registry=self.registry,
            )
            for pid in range(SLOTS)
        ]
        self.parked = {}
        self.docs = 0

    async def start(self):
        for node in self.nodes:
            await node.start()
        for node in self.nodes[:ESTABLISHED]:
            for other in self.nodes[:ESTABLISHED]:
                if other is not node:
                    node.install_records(
                        [PeerRecord(other.peer_id, other.address, True, 0)]
                    )

    async def step(self, kind, pid, other=None):
        node = self.nodes[pid]
        if kind == "round":
            # A real selector only offers members the initiator has heard of.
            assert node.peer.directory[other].address, f"{pid} has not met {other}"
            node.pick_target = lambda include_offline=False: other
            await node.gossip_round()
        elif kind == "update":
            self.docs += 1
            # The simulator's originate_update is one announcement: the
            # node's is a publish plus the flush its next round would make.
            node.publish(Document(f"d{self.docs}", f"term{self.docs}a term{self.docs}b"))
            node.flush_updates()
        elif kind == "join":
            await node.join(self.nodes[other].address)
        elif kind == "offline":
            self.parked[pid] = self.net.handlers.pop(node.address)
        elif kind == "rejoin":
            self.net.handlers[node.address] = self.parked.pop(pid)
            node.announce_rejoin()

    def states(self):
        return [
            _state(n.core, n.membership, lambda rid: (rid >> 32, rid & 0xFFFFFFFF))
            for n in self.nodes
        ]

    async def stop(self):
        for node in self.nodes:
            await node.stop()


def _state(core, membership, key):
    members = membership.members()
    return (
        {key(rid) for rid in core.known},
        {key(rid): count for rid, count in core.hot.items()},
        [key(rid) for rid in core.recent],
        core.intervals.interval,
        members,
        [pid for pid in members if membership.is_online(pid)],
    )


def test_simulator_and_socket_node_agree_after_every_step(monkeypatch):
    async def scenario():
        sim, net = SimWorld(monkeypatch), NetWorld()
        await net.start()
        stretched, doubted = set(), set()
        for i, step in enumerate(SCRIPT):
            sim.step(*step)
            await net.step(*step)
            sim_states, net_states = sim.states(), net.states()
            for pid in range(SLOTS):
                assert sim_states[pid] == net_states[pid], (i, step, pid)
                if net_states[pid][3] > CONFIG.base_interval_s:
                    stretched.add(pid)
                doubted.update((pid, m) for m in net_states[pid][4] if m not in net_states[pid][5])
        await net.stop()
        return sim.states(), net.registry, stretched, doubted

    final, counters, stretched, doubted = asyncio.run(scenario())
    # The script did what its comments say: every kind of step ran, ...
    assert {step[0] for step in SCRIPT} == {"round", "update", "join", "offline", "rejoin"}
    # ... both anti-entropy levels and the partial-AE piggyback were used, ...
    for counter in ("ae_full_summaries_total", "partial_ae_pulls_total"):
        assert counters.value("node", counter) > 0, counter
    # ... rumors retired, idle peers slowed down (and were reset: all end at base), ...
    assert all(state[2] for state in final)
    assert stretched == {1, 2}
    # ... the failed contact made 1 (and only 1) doubt 3 until its REJOIN, ...
    assert doubted == {(1, 3)}
    assert {state[3] for state in final} == {CONFIG.base_interval_s}
    # ... and the community ends consistent, joiners included.
    assert len({frozenset(state[0]) for state in final}) == 1
    assert len(final[0][0]) == AE_RECENT_WINDOW + 5 + 3  # updates, 2 joins, 1 rejoin
    assert all(state[5] == list(range(SLOTS)) for state in final)
