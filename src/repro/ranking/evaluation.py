"""Recall and precision (paper eqs. 5-6) and query-set averaging.

    R(Q) = |presented ∩ relevant| / |relevant|
    P(Q) = |presented ∩ relevant| / |presented|

Figure 6 reports the *average* recall and precision over all provided
queries for each k.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.corpus.queries import Query

__all__ = ["recall", "precision", "average_recall_precision"]


def recall(presented: Iterable[str], relevant: frozenset[str] | set[str]) -> float:
    """Eq. 5.  Defined as 1.0 when there are no relevant documents
    (nothing to find, nothing missed)."""
    rel = set(relevant)
    if not rel:
        return 1.0
    hits = sum(1 for doc in set(presented) if doc in rel)
    return hits / len(rel)


def precision(presented: Iterable[str], relevant: frozenset[str] | set[str]) -> float:
    """Eq. 6.  Defined as 1.0 for an empty result list (no noise shown)."""
    shown = set(presented)
    if not shown:
        return 1.0
    rel = set(relevant)
    hits = sum(1 for doc in shown if doc in rel)
    return hits / len(shown)


def average_recall_precision(
    per_query_results: Sequence[tuple[Query, list[str]]],
) -> tuple[float, float]:
    """Mean recall and precision over ``(query, presented_doc_ids)`` pairs."""
    if not per_query_results:
        raise ValueError("no query results to average")
    recalls = []
    precisions = []
    for query, presented in per_query_results:
        recalls.append(recall(presented, query.relevant))
        precisions.append(precision(presented, query.relevant))
    return sum(recalls) / len(recalls), sum(precisions) / len(precisions)
