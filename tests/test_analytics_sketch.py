"""Properties of the analytics sketch: the algebra gossip relies on.

Gossip delivers sketch entries duplicated, reordered, and along
different paths, so convergence rests on the merge being a join over a
total order — commutative, associative, idempotent.  These tests check
that algebra on randomized entry sets, plus the space-saving summary's
classic guarantees (never underestimates, bounded overestimation,
bounded memory).
"""

from __future__ import annotations

import random

import pytest

from repro.analytics.aggregate import SpaceSaving, TermSketch
from repro.gossip.wire import SketchEntry

pytestmark = pytest.mark.analytics

SEED = 20260808


def _random_entry(rng: random.Random, origin: int) -> SketchEntry:
    terms = tuple(
        (f"term{rng.randrange(12)}", rng.randrange(1, 100))
        for _ in range(rng.randrange(0, 6))
    )
    docs = tuple(
        (f"doc{rng.randrange(8)}", rng.randrange(1, 50))
        for _ in range(rng.randrange(0, 3))
    )
    return SketchEntry(origin, rng.randrange(0, 5), terms, docs)


def _random_entries(rng: random.Random, n: int) -> list[SketchEntry]:
    # Deliberately includes colliding origins and equal epochs so the
    # content tie-break is exercised, not just the epoch fast path.
    return [_random_entry(rng, rng.randrange(6)) for _ in range(n)]


def _merged(entries) -> dict[int, SketchEntry]:
    sketch = TermSketch()
    sketch.merge(entries)
    return dict(sketch.entries)


# -- merge algebra ----------------------------------------------------------


def test_merge_is_commutative():
    rng = random.Random(f"{SEED}-comm")
    for _ in range(50):
        entries = _random_entries(rng, 10)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert _merged(entries) == _merged(shuffled)


def test_merge_is_associative():
    rng = random.Random(f"{SEED}-assoc")
    for _ in range(50):
        a, b, c = (_random_entries(rng, 5) for _ in range(3))
        # (a ⊔ b) ⊔ c  ==  a ⊔ (b ⊔ c), expressed through merge order.
        left = TermSketch()
        left.merge(a)
        left.merge(b)
        left.merge(c)
        right = TermSketch()
        right.merge(b)
        right.merge(c)
        inner = list(right.entries.values())
        right2 = TermSketch()
        right2.merge(a)
        right2.merge(inner)
        assert left.entries == right2.entries


def test_merge_is_idempotent():
    rng = random.Random(f"{SEED}-idem")
    for _ in range(50):
        entries = _random_entries(rng, 10)
        once = _merged(entries)
        sketch = TermSketch()
        sketch.merge(entries)
        sketch.merge(entries)  # replaying the whole set changes nothing
        assert sketch.entries == once
        assert sketch.merge(entries) == 0  # and adopts nothing


def test_higher_epoch_always_wins():
    sketch = TermSketch()
    old = SketchEntry(1, 2, (("a", 10),), ())
    new = SketchEntry(1, 3, (), ())  # emptier content, higher epoch
    sketch.merge([old])
    assert sketch.merge_entry(new)
    assert sketch.entries[1] == new
    assert not sketch.merge_entry(old)  # stale entry bounces


def test_equal_epoch_breaks_ties_on_content():
    # Possible after a crash loses an epoch bump: both replicas must
    # still pick the same winner, whichever arrives first.
    a = SketchEntry(1, 2, (("a", 10),), ())
    b = SketchEntry(1, 2, (("b", 5),), ())
    s1, s2 = TermSketch(), TermSketch()
    s1.merge([a, b])
    s2.merge([b, a])
    assert s1.entries == s2.entries


# -- digests ---------------------------------------------------------------


def test_versions_digest_and_entries_ahead_of_are_complementary():
    rng = random.Random(f"{SEED}-digest")
    for _ in range(25):
        ours = _merged(_random_entries(rng, 10))
        theirs = _merged(_random_entries(rng, 10))
        sketch = TermSketch()
        sketch.entries = dict(ours)
        ahead = sketch.entries_ahead_of(
            (o, e.epoch) for o, e in theirs.items()
        )
        for entry in ahead:
            held = theirs.get(entry.origin)
            assert held is None or held.epoch < entry.epoch
        # Nothing the digest already covers is shipped.
        shipped = {e.origin for e in ahead}
        for origin, entry in ours.items():
            if origin in theirs and theirs[origin].epoch >= entry.epoch:
                assert origin not in shipped


def test_aggregates_sum_over_origins():
    sketch = TermSketch()
    sketch.merge(
        [
            SketchEntry(1, 1, (("a", 10), ("b", 2)), (("d1", 3),)),
            SketchEntry(2, 1, (("a", 5), ("c", 7)), (("d1", 1), ("d2", 4))),
        ]
    )
    assert sketch.term_counts() == {"a": 15, "b": 2, "c": 7}
    assert sketch.doc_counts() == {"d1": 4, "d2": 4}
    assert sketch.top_terms(2) == [("a", 15), ("c", 7)]


# -- space-saving ----------------------------------------------------------


def test_space_saving_never_underestimates():
    rng = random.Random(f"{SEED}-ss")
    for _ in range(20):
        truth: dict[str, int] = {}
        summary = SpaceSaving(capacity=8)
        for _ in range(400):
            item = f"item{rng.randrange(30)}"
            truth[item] = truth.get(item, 0) + 1
            summary.offer(item)
        for item, estimate in summary.items():
            assert estimate >= truth[item]
            assert estimate - truth[item] <= summary.error(item)


def test_space_saving_error_bounded_by_n_over_capacity():
    rng = random.Random(f"{SEED}-bound")
    summary = SpaceSaving(capacity=16)
    n = 2000
    for _ in range(n):
        summary.offer(f"item{rng.randrange(100)}")
    for item, _ in summary.items():
        assert summary.error(item) <= n // summary.capacity


def test_space_saving_respects_capacity():
    summary = SpaceSaving(capacity=4)
    for i in range(100):
        summary.offer(f"item{i}")
    assert len(summary) == 4


def test_space_saving_heavy_hitter_survives_churn():
    summary = SpaceSaving(capacity=8)
    rng = random.Random(f"{SEED}-hh")
    for _ in range(500):
        summary.offer("heavy")
        summary.offer(f"noise{rng.randrange(200)}")
    items = dict(summary.items())
    assert "heavy" in items
    assert items["heavy"] >= 500


def test_space_saving_items_order_is_deterministic():
    summary = SpaceSaving(capacity=8)
    for item in ["b", "a", "c", "a", "b"]:
        summary.offer(item)
    assert summary.items() == [("a", 2), ("b", 2), ("c", 1)]


def test_space_saving_rejects_bad_input():
    with pytest.raises(ValueError):
        SpaceSaving(capacity=0)
    summary = SpaceSaving(capacity=2)
    summary.offer("x", 0)  # non-positive counts are ignored
    summary.offer("y", -3)
    assert len(summary) == 0
