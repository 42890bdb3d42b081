"""Local-search primitives used when a peer is contacted with a query.

Two entry points, one per search mode of Section 5:

* :func:`exhaustive_local_match` — all local documents containing every
  query term (conjunction of keys).
* :func:`score_local_documents` — the peer's local top-k under eq. 2 with
  the caller-supplied IPF weights substituted for IDF (the ranked-search
  path: a contacted peer ranks its own documents and returns candidates).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.ranking.tfidf import RankedDoc
from repro.ranking.vsm import document_term_weight, similarity_from_parts
from repro.text.invindex import InvertedIndex

__all__ = ["exhaustive_local_match", "score_local_documents"]


def exhaustive_local_match(index: InvertedIndex, terms: Sequence[str]) -> list[str]:
    """Sorted ids of local documents containing *every* term."""
    return sorted(index.conjunctive_match(terms))


def score_local_documents(
    index: InvertedIndex,
    terms: Sequence[str],
    ipf: dict[str, float],
    k: int,
) -> list[RankedDoc]:
    """The peer's local top-``k`` documents under TF×IPF (eq. 2).

    Documents matching at least one query term are scored
    ``sum_t w_{D,t} * IPF_t / sqrt(|D|)``; ties break on doc id.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    sums: dict[str, float] = {}
    for term in dict.fromkeys(terms):
        weight = ipf.get(term, 0.0)
        if weight <= 0.0:
            continue
        for doc_id, tf in index.iter_postings(term):
            sums[doc_id] = sums.get(doc_id, 0.0) + document_term_weight(tf) * weight
    scored = [
        (doc_id, similarity_from_parts(s, index.document_length(doc_id)))
        for doc_id, s in sums.items()
    ]
    scored.sort(key=lambda ds: (-ds[1], ds[0]))
    return [RankedDoc(d, s) for d, s in scored[:k]]
