"""Popularity scores folded out of the gossiped analytics sketch.

The sketch carries two community-wide estimates: term frequencies (how
much of the community's content is about a term) and per-document access
counts (how often members actually fetched a document).  This module
folds the latter into the score the browsable namespace ranks by: a
document's popularity is its gossiped access count — direct demand
evidence, the "popularity based global namespace" signal.

Scores are plain integers (counts), so rankings are reproducible across
nodes once the sketch has converged.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the plane (aggregate) serves browse, which ranks here
    from repro.analytics.aggregate import TermSketch

__all__ = ["PopularityIndex"]


class PopularityIndex:
    """A point-in-time read of the sketch, exposed as score lookups.

    Snapshot semantics: the counters are copied out of the sketch at
    construction, so one listing is ranked against one consistent view
    even while gossip keeps merging entries underneath.
    """

    __slots__ = ("_doc_counts",)

    def __init__(self, sketch: TermSketch) -> None:
        self._doc_counts = dict(sketch.doc_counts())

    def doc_score(self, doc_id: str) -> int:
        """Community access count of ``doc_id`` (0 when never seen)."""
        return self._doc_counts.get(doc_id, 0)

    def rank_docs(
        self, entries: Iterable[tuple[str, float]]
    ) -> list[tuple[str, int]]:
        """Order ``(doc_id, relevance)`` pairs by popularity.

        Popularity (access count) dominates; search relevance breaks
        ties among equally-popular documents, and the doc id breaks the
        rest so the order is total and deterministic.
        """
        return [
            (doc_id, self.doc_score(doc_id))
            for doc_id, _rel in sorted(
                entries,
                key=lambda kv: (-self.doc_score(kv[0]), -kv[1], kv[0]),
            )
        ]
