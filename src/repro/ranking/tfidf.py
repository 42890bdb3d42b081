"""The centralized TF×IDF oracle (the paper's comparison baseline).

"We assume the following optimistic implementation of TFxIDF: each peer in
the community has the full inverted index and word count needed to run
TFxIDF using ranking equation 2.  For each query, TFxIDF would compute the
top k ranking documents and then contact the exact peers required to
retrieve these documents." (Section 7.3)

The engine indexes an entire collection into one global
:class:`~repro.text.invindex.InvertedIndex` and ranks with eq. 2.  Scoring
accumulates per-document weighted sums in a dict keyed by doc id —
postings lists for the few query terms are the only thing traversed.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.ranking.vsm import (
    document_term_weight,
    inverse_document_frequency,
    similarity_from_parts,
)
from repro.text.invindex import InvertedIndex

__all__ = ["RankedDoc", "CentralizedTFIDF"]


@dataclass(frozen=True)
class RankedDoc:
    """One entry in a ranked result list."""

    doc_id: str
    score: float

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValueError("scores are non-negative by construction")


class CentralizedTFIDF:
    """Global-index TF×IDF ranking over a full collection."""

    def __init__(self) -> None:
        self._index = InvertedIndex()

    @property
    def index(self) -> InvertedIndex:
        """The underlying global inverted index."""
        return self._index

    def add_document(self, doc_id: str, term_freqs: Mapping[str, int]) -> None:
        """Index one document (term -> frequency)."""
        self._index.add_document(doc_id, term_freqs)

    def num_documents(self) -> int:
        """Collection size N."""
        return self._index.num_documents()

    def idf(self, term: str) -> float:
        """IDF_t over this collection; 0.0 if the term never occurs."""
        f_t = self._index.collection_frequency(term)
        if f_t == 0:
            return 0.0
        return inverse_document_frequency(self.num_documents(), f_t)

    def score_documents(self, query_terms: Sequence[str]) -> dict[str, float]:
        """Sim(Q, D) for every document matching at least one query term."""
        sums: dict[str, float] = {}
        for term in set(query_terms):
            idf = self.idf(term)
            if idf == 0.0:
                continue
            for doc_id, tf in self._index.postings_map(term).items():
                sums[doc_id] = sums.get(doc_id, 0.0) + document_term_weight(tf) * idf
        return {
            doc_id: similarity_from_parts(s, self._index.document_length(doc_id))
            for doc_id, s in sums.items()
        }

    def rank(self, query_terms: Sequence[str], k: int) -> list[RankedDoc]:
        """Top-``k`` documents for the query, best first.

        Ties break on doc id for determinism across runs.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        scores = self.score_documents(query_terms)
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return [RankedDoc(doc_id, score) for doc_id, score in ordered]

    def peers_required(
        self, ranked: Iterable[RankedDoc], doc_owner: Mapping[str, int]
    ) -> set[int]:
        """The exact peer set holding the ranked documents (the oracle's
        'contact the exact peers required' step)."""
        return {doc_owner[r.doc_id] for r in ranked}
