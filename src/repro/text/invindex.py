"""The per-peer local inverted index (paper Section 2).

Maps each term to its postings (document id, in-document frequency) and
tracks per-document lengths — exactly the statistics the TF×IDF/TF×IPF
similarity (eq. 2) needs: f_{D,t} per posting and |D| per document.

The index is a plain dict-of-dicts: term -> {doc_id: tf}.  Queries touch a
handful of terms, so per-term dict lookups dominate and numpy buys nothing
here; document scoring across postings, which *is* hot in the search
simulator, is vectorized at the ranking layer instead.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass

__all__ = ["InvertedIndex", "Posting"]


@dataclass(frozen=True)
class Posting:
    """One (document, term-frequency) entry in a postings list."""

    doc_id: str
    tf: int

    def __post_init__(self) -> None:
        if self.tf < 1:
            raise ValueError("term frequency must be >= 1")


class InvertedIndex:
    """Term -> postings index over one peer's published documents."""

    __slots__ = ("_postings", "_doc_lengths", "_total_term_count")

    def __init__(self) -> None:
        self._postings: dict[str, dict[str, int]] = {}
        self._doc_lengths: dict[str, int] = {}
        self._total_term_count: int = 0

    # -- mutation ------------------------------------------------------------

    def add_document(self, doc_id: str, term_freqs: Mapping[str, int]) -> None:
        """Index a document given its term -> frequency map.

        Re-adding an existing ``doc_id`` raises; call :meth:`remove_document`
        first (PlanetP regenerates the Bloom filter on such changes).
        """
        if doc_id in self._doc_lengths:
            raise ValueError(f"document {doc_id!r} is already indexed")
        if not term_freqs:
            self._doc_lengths[doc_id] = 0
            return
        length = 0
        for term, tf in term_freqs.items():
            if tf < 1:
                raise ValueError(f"term frequency must be >= 1 (term {term!r})")
            self._postings.setdefault(term, {})[doc_id] = tf
            length += tf
        self._doc_lengths[doc_id] = length
        self._total_term_count += length

    def remove_document(self, doc_id: str) -> None:
        """Remove every posting of ``doc_id``.

        O(vocabulary) worst case; removals are rare (document deletion or
        re-publication) so simplicity wins over per-doc term tracking.
        """
        if doc_id not in self._doc_lengths:
            raise KeyError(doc_id)
        self._total_term_count -= self._doc_lengths.pop(doc_id)
        empty_terms = []
        for term, docs in self._postings.items():
            if doc_id in docs:
                del docs[doc_id]
                if not docs:
                    empty_terms.append(term)
        for term in empty_terms:
            del self._postings[term]

    # -- queries ---------------------------------------------------------------

    def postings(self, term: str) -> list[Posting]:
        """Postings list for ``term`` (empty if absent)."""
        docs = self._postings.get(term)
        if not docs:
            return []
        return [Posting(doc_id, tf) for doc_id, tf in docs.items()]

    def postings_map(self, term: str) -> Mapping[str, int]:
        """Raw doc_id -> tf mapping for ``term`` (read-only use)."""
        return self._postings.get(term, {})

    def term_frequency(self, term: str, doc_id: str) -> int:
        """f_{D,t}: occurrences of ``term`` in ``doc_id`` (0 if none)."""
        return self._postings.get(term, {}).get(doc_id, 0)

    def document_frequency(self, term: str) -> int:
        """Number of local documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` across local documents (f_t)."""
        return sum(self._postings.get(term, {}).values())

    def term_frequencies(self, doc_ids: Collection[str]) -> dict[str, dict[str, int]]:
        """f_{D,t} of every term of each of ``doc_ids``, in one walk of the
        vocabulary (each term costs min(its postings, ``len(doc_ids)``))."""
        out: dict[str, dict[str, int]] = {doc_id: {} for doc_id in doc_ids}
        for term, docs in self._postings.items():
            for doc_id in docs.keys() & out.keys():  # iterates the smaller side
                out[doc_id][term] = docs[doc_id]
        return out

    def document_length(self, doc_id: str) -> int:
        """|D|: total number of term occurrences in ``doc_id``."""
        try:
            return self._doc_lengths[doc_id]
        except KeyError:
            raise KeyError(doc_id) from None

    def conjunctive_match(self, terms: Iterable[str]) -> set[str]:
        """Document ids containing *every* term (exhaustive-search core).

        Intersects postings smallest-first to keep the working set minimal.
        """
        term_list = list(terms)
        if not term_list:
            return set(self._doc_lengths)
        maps = []
        for term in term_list:
            docs = self._postings.get(term)
            if not docs:
                return set()
            maps.append(docs)
        maps.sort(key=len)
        result = set(maps[0])
        for docs in maps[1:]:
            result.intersection_update(docs)
            if not result:
                break
        return result

    # -- introspection -----------------------------------------------------------

    def terms(self) -> Iterator[str]:
        """Iterate all indexed terms (Bloom filter construction input)."""
        return iter(self._postings)

    def vocabulary_size(self) -> int:
        """Number of distinct indexed terms."""
        return len(self._postings)

    def num_documents(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_lengths)

    def document_ids(self) -> Iterator[str]:
        """Iterate indexed document ids."""
        return iter(self._doc_lengths)

    def total_term_count(self) -> int:
        """Sum of all document lengths."""
        return self._total_term_count

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(docs={self.num_documents()}, "
            f"vocab={self.vocabulary_size()})"
        )
