"""GossipCore: the Section 3 decisions, exercised without an event loop,
a Simulator, a clock or an RNG — plain calls in, rumor ids out.

The Hypothesis property pins the counter / retire / piggyback rules
against a reference short enough to check by eye, the way ``SearchRun``
is pinned against its sequential reference.
"""

import ast
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import (
    AE_RECENT_WINDOW,
    GOSSIP_SLOWDOWN_S,
    PARTIAL_AE_RECENT_RUMORS,
    RUMOR_GIVE_UP_COUNT,
    GossipConfig,
)
from repro.gossip import core as core_module
from repro.gossip.core import AE_PULL, AE_PUSH, RUMOR, GossipCore
from repro.gossip import members as members_module


def reference_exchange(config, pusher, target):
    """One rumor round between two peers held as plain dicts
    (``known`` set, ``hot`` dict, ``recent`` list): the paper's rules
    written straight down, no shared code with the core."""
    pushed = list(pusher["hot"])
    needed = [r for r in pushed if r not in target["known"]]
    piggy = [r for r in target["recent"] if r not in pushed] if config.use_partial_ae else []
    for r in pushed:
        if r in needed:
            pusher["hot"][r] = 0
        else:
            pusher["hot"][r] += 1
    for r in [r for r in pushed if pusher["hot"][r] >= RUMOR_GIVE_UP_COUNT]:
        del pusher["hot"][r]
        pusher["recent"] = (pusher["recent"] + [r])[-PARTIAL_AE_RECENT_RUMORS:]
    for r in needed:  # pushed payloads are learned hot
        target["known"].add(r)
        target["hot"][r] = 0
    for r in [r for r in piggy if r not in pusher["known"]]:  # pulled ones are not
        pusher["known"].add(r)
    return needed, piggy


def core_exchange(pusher: GossipCore, target: GossipCore):
    """The same round, driven through two cores as a driver would."""
    pushed = list(pusher.hot)
    needed, piggy = target.on_rumor_push(pushed)
    ship, pull = pusher.on_rumor_reply(pushed, needed, piggy)
    for rid in ship:
        target.learn(rid, make_hot=True)
    for rid in pull:
        pusher.learn(rid, make_hot=False)
    return needed, piggy


def _snapshot(c: GossipCore):
    return {"known": set(c.known), "hot": dict(c.hot), "recent": list(c.recent)}


_peers = st.integers(0, 3)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("mint"), _peers, st.just(0)),
        st.tuples(st.just("push"), _peers, _peers),
    ),
    max_size=60,
)


class TestAgainstReference:
    @given(steps=_steps, partial_ae=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_counter_retire_and_piggyback_rules(self, steps, partial_ae):
        config = GossipConfig(use_partial_ae=partial_ae)
        cores = [GossipCore(config) for _ in range(4)]
        model = [{"known": set(), "hot": {}, "recent": []} for _ in range(4)]
        next_rid = 0
        for kind, a, b in steps:
            if kind == "mint":
                assert cores[a].learn(next_rid, make_hot=True)
                model[a]["known"].add(next_rid)
                model[a]["hot"][next_rid] = 0
                next_rid += 1
            elif a != b:
                expected = reference_exchange(config, model[a], model[b])
                assert core_exchange(cores[a], cores[b]) == expected
            assert [_snapshot(c) for c in cores] == model
        # Counters stay under the limit, and a rumor is never both hot and
        # retired at one peer: retiring needs knowing, and a known rumor is
        # never needed (so never made hot) again.
        for c in cores:
            assert all(0 <= n < RUMOR_GIVE_UP_COUNT for n in c.hot.values())
            assert not set(c.hot) & set(c.recent)
            assert set(c.hot) | set(c.recent) <= c.known


class TestRounds:
    def test_round_modes(self):
        c = GossipCore(GossipConfig(anti_entropy_period=3))
        assert c.begin_round() == (AE_PULL, [])  # nothing hot: anti-entropy
        c.learn(7, make_hot=True)
        assert c.begin_round() == (RUMOR, [7])
        assert c.begin_round() == (AE_PULL, [7])  # every 3rd round, hot or not
        assert c.begin_round() == (RUMOR, [7])
        assert c.round_counter == 4

    def test_force_anti_entropy_overrides_hot_rumors_once(self):
        c = GossipCore(GossipConfig())
        c.learn(1, make_hot=True)
        c.force_anti_entropy()
        assert c.begin_round()[0] == AE_PULL
        assert c.begin_round()[0] == RUMOR

    def test_anti_entropy_only_always_pushes_the_summary(self):
        c = GossipCore(GossipConfig(anti_entropy_only=True))
        c.learn(1, make_hot=True)
        assert [c.begin_round()[0] for _ in range(12)] == [AE_PUSH] * 12

    def test_in_flight_retirement_is_tolerated(self):
        c = GossipCore(GossipConfig())
        c.learn(1, make_hot=True)
        for _ in range(RUMOR_GIVE_UP_COUNT):
            assert c.on_rumor_reply([1], [], []) == ([], [])
        assert c.on_rumor_reply([1], [], []) == ([], [])  # already retired
        assert list(c.recent) == [1]

    def test_only_known_ids_are_shipped(self):
        c = GossipCore(GossipConfig())
        c.learn(1, make_hot=True)
        assert c.on_rumor_reply([1], [1, 99], [])[0] == [1]


class TestAntiEntropy:
    def _pair(self):
        config = GossipConfig()
        return GossipCore(config), GossipCore(config)

    def test_equal_digests_answer_nothing_and_slow_the_idle_down(self):
        a, b = self._pair()
        for c in (a, b):
            c.adopt([1, 2], recent=())
        assert b.on_ae_request(a.digest) is None
        base = a.intervals.interval
        a.on_ae_nothing(had_hot=True)
        a.on_ae_nothing(had_hot=True)
        assert a.intervals.interval == base  # had news of its own: no slow-down
        a.on_ae_nothing(had_hot=False)
        a.on_ae_nothing(had_hot=False)
        assert a.intervals.interval == base + GOSSIP_SLOWDOWN_S
        a.on_rumor_push([])  # any rumor message re-accelerates
        assert a.intervals.interval == base

    def test_recent_window_explains_a_small_gap(self):
        a, b = self._pair()
        for rid in (1, 2):
            b.learn(rid, make_hot=False)
        offer = b.on_ae_request(a.digest)
        assert offer == ([1, 2], 2)
        assert a.on_ae_recent(*offer) == (False, [1, 2])

    def test_gap_beyond_the_window_escalates_to_the_summary(self):
        a, b = self._pair()
        learned = list(range(AE_RECENT_WINDOW + 2))
        for rid in learned:
            b.learn(rid, make_hot=False)
        recent, count = b.on_ae_request(a.digest)
        assert (recent, count) == (learned[2:], len(learned))  # the newest window
        assert a.on_ae_recent(recent, count) == (True, learned[2:])
        assert a.missing(sorted(b.known)) == learned

    def test_knowing_more_than_the_target_is_left_to_the_target(self):
        a, b = self._pair()
        a.learn(1, make_hot=False)
        a.learn(2, make_hot=False)
        b.learn(1, make_hot=False)
        assert a.on_ae_recent(*b.on_ae_request(a.digest)) == (False, [])


class TestAdoption:
    def test_adopt_windows(self):
        config = GossipConfig()
        by_default, donor_window, checkpoint = (GossipCore(config) for _ in range(3))
        by_default.learn(5, make_hot=True)
        by_default.adopt([9, 5, 3])
        assert list(by_default.recent_learned) == [5, 9, 3]  # fresh ids, given order
        donor_window.adopt([9, 5, 3], recent=deque([3]))
        assert list(donor_window.recent_learned) == [3]
        checkpoint.adopt([9, 5, 3], recent=())
        assert list(checkpoint.recent_learned) == []
        assert by_default.digest == donor_window.digest == checkpoint.digest
        assert not checkpoint.hot  # adopted knowledge is not re-spread

    def test_a_directory_view_can_be_the_cores_knowledge(self):
        c = GossipCore(GossipConfig())
        view = c.knowledge  # a driver reads the same set its core does
        c.learn(11, make_hot=True)
        assert view.knows(11) and c.digest == view.digest
        view.learn(12)
        assert c.known == {11, 12}


SANS_IO_BANNED = ("asyncio", "time", "random", "numpy", "repro.net", "repro.sim", "repro.obs")


def _imports(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    return imported


def test_core_is_sans_io():
    """No clock, no RNG, no loop, no sockets, no simulator, no metrics."""
    imported = _imports(core_module)
    assert not [m for m in imported if m.startswith(SANS_IO_BANNED)], imported


def test_member_table_is_sans_io():
    """The same bans for the member table (time is passed in), except
    numpy, which holds its on-line slot array."""
    imported = _imports(members_module)
    banned = tuple(m for m in SANS_IO_BANNED if m != "numpy")
    assert not [m for m in imported if m.startswith(banned)], imported
