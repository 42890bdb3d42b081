"""The per-peer local inverted index (paper Section 2).

Maps each term to its postings (document id, in-document frequency) and
tracks per-document lengths — exactly the statistics the TF×IDF/TF×IPF
similarity (eq. 2) needs: f_{D,t} per posting and |D| per document.

A term's postings are one ``array('I')`` of ``(ordinal, tf)`` pairs in
publish order (8 bytes a posting), ordinals numbering documents as they
are indexed, so a document's posting is found by bisection.  Queries touch
a handful of terms, so per-term lookups dominate and numpy buys nothing
here; document scoring across postings, which *is* hot in the search
simulator, is vectorized at the ranking layer instead.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
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


def _find(postings: array[int], ordinal: int) -> int:
    """Pair index of ``ordinal`` in ``postings``, or -1 if absent."""
    i = bisect_left(memoryview(postings)[::2], ordinal)
    return i if 2 * i < len(postings) and postings[2 * i] == ordinal else -1


class InvertedIndex:
    """Term -> postings index over one peer's published documents."""

    __slots__ = ("_postings", "_doc_lengths", "_ordinals", "_doc_ids", "_next_ordinal",
                 "_total_term_count")

    def __init__(self) -> None:
        #: term -> interleaved (ordinal, tf) pairs, ordinals ascending.
        self._postings: dict[str, array[int]] = {}
        self._doc_lengths: dict[str, int] = {}
        #: doc id <-> ordinal, for the documents indexed now.
        self._ordinals: dict[str, int] = {}
        self._doc_ids: dict[int, str] = {}
        self._next_ordinal = 0
        self._total_term_count: int = 0

    # -- mutation ------------------------------------------------------------

    def add_document(self, doc_id: str, term_freqs: Mapping[str, int]) -> list[str]:
        """Index a document given its term -> frequency map; returns the
        terms it adds to the vocabulary.

        Re-adding an existing ``doc_id`` raises; call :meth:`remove_document`
        first (PlanetP regenerates the Bloom filter on such changes).
        """
        if doc_id in self._doc_lengths:
            raise ValueError(f"document {doc_id!r} is already indexed")
        for term, tf in term_freqs.items():
            if tf < 1:
                raise ValueError(f"term frequency must be >= 1 (term {term!r})")
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        new_terms = []
        for term, tf in term_freqs.items():
            postings = self._postings.get(term)
            if postings is None:
                postings = self._postings[term] = array("I")
                new_terms.append(term)
            postings.append(ordinal)
            postings.append(tf)
        length = sum(term_freqs.values())
        self._ordinals[doc_id] = ordinal
        self._doc_ids[ordinal] = doc_id
        self._doc_lengths[doc_id] = length
        self._total_term_count += length
        return new_terms

    def remove_document(self, doc_id: str) -> None:
        """Remove every posting of ``doc_id``.

        One bisection per vocabulary term; removals are rare (document
        deletion or re-publication) so this keeps no per-document term list.
        """
        if doc_id not in self._doc_lengths:
            raise KeyError(doc_id)
        self._total_term_count -= self._doc_lengths.pop(doc_id)
        ordinal = self._ordinals.pop(doc_id)
        del self._doc_ids[ordinal]
        empty_terms = []
        for term, postings in self._postings.items():
            i = _find(postings, ordinal)
            if i >= 0:
                del postings[2 * i : 2 * i + 2]
                if not postings:
                    empty_terms.append(term)
        for term in empty_terms:
            del self._postings[term]

    # -- queries ---------------------------------------------------------------

    def iter_postings(self, term: str) -> Iterator[tuple[str, int]]:
        """``(doc_id, tf)`` of every posting of ``term``, in publish order."""
        postings = self._postings.get(term)
        if not postings:
            return iter(())
        return zip(map(self._doc_ids.__getitem__, postings[::2]), postings[1::2])

    def postings(self, term: str) -> list[Posting]:
        """Postings list for ``term`` (empty if absent)."""
        return [Posting(doc_id, tf) for doc_id, tf in self.iter_postings(term)]

    def postings_map(self, term: str) -> Mapping[str, int]:
        """doc_id -> tf mapping for ``term`` (a fresh dict)."""
        return dict(self.iter_postings(term))

    def term_frequency(self, term: str, doc_id: str) -> int:
        """f_{D,t}: occurrences of ``term`` in ``doc_id`` (0 if none)."""
        postings = self._postings.get(term)
        ordinal = self._ordinals.get(doc_id)
        if postings is None or ordinal is None:
            return 0
        i = _find(postings, ordinal)
        return postings[2 * i + 1] if i >= 0 else 0

    def document_frequency(self, term: str) -> int:
        """Number of local documents containing ``term``."""
        return len(self._postings.get(term, ())) // 2

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` across local documents (f_t)."""
        postings = self._postings.get(term)
        return sum(postings[1::2]) if postings else 0

    def term_frequencies(self, doc_ids: Collection[str]) -> dict[str, dict[str, int]]:
        """f_{D,t} of every term of each of ``doc_ids``, in one walk of the
        vocabulary: each term bisects to the first ordinal of the batch and
        reads on to its last, so it visits only the postings in between."""
        out: dict[str, dict[str, int]] = {doc_id: {} for doc_id in doc_ids}
        wanted = {self._ordinals[d]: tfs for d, tfs in out.items() if d in self._ordinals}
        if not wanted:
            return out
        lo, hi = min(wanted), max(wanted)
        for term, postings in self._postings.items():
            if postings[-2] < lo or postings[0] > hi:
                continue
            i = 2 * bisect_left(memoryview(postings)[::2], lo) if postings[0] < lo else 0
            while i < len(postings) and postings[i] <= hi:
                tfs = wanted.get(postings[i])
                if tfs is not None:
                    tfs[term] = postings[i + 1]
                i += 2
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
        columns = []
        for term in term_list:
            postings = self._postings.get(term)
            if not postings:
                return set()
            columns.append(postings[::2])
        columns.sort(key=len)
        result = set(columns[0])
        for column in columns[1:]:
            result.intersection_update(column)
            if not result:
                break
        return {self._doc_ids[ordinal] for ordinal in result}

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
