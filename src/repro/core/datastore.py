"""The per-peer local data store (paper Section 2).

Stores published XML documents, maintains the local inverted index over
their analyzed text, and keeps the peer's Bloom filter summary in sync.
The filter only grows incrementally on publish; removing a document marks
the filter stale and :meth:`regenerate_filter` rebuilds it from the index
(the prototype's behaviour — filters never shrink in place).

Every mutation is announced through the optional :attr:`on_operation`
hook *after* it has been applied, carrying the already-analyzed term
frequencies — :mod:`repro.store` subscribes its write-ahead log here, so
a persisted operation can later be replayed through
:meth:`apply_publish` / :meth:`apply_remove` without re-running the
Analyzer.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping

from repro.bloom.filter import BloomFilter
from repro.constants import BloomConfig
from repro.text.analyzer import Analyzer
from repro.text.document import Document
from repro.text.invindex import InvertedIndex
from repro.text.xmlsnippets import XMLSnippet

__all__ = ["LocalDataStore", "StoreOperationHook"]

#: Signature of the mutation hook: ``(op, document, term_freqs)`` where
#: ``op`` is ``"publish"`` or ``"remove"`` and ``term_freqs`` is the
#: analyzed term -> frequency map for publishes (None for removes).
StoreOperationHook = Callable[[str, Document, "Mapping[str, int] | None"], None]


class LocalDataStore:
    """Documents + inverted index + Bloom filter for one peer."""

    def __init__(
        self,
        analyzer: Analyzer | None = None,
        bloom_config: BloomConfig | None = None,
    ) -> None:
        self.analyzer = analyzer or Analyzer()
        self._bloom_config = bloom_config or BloomConfig()
        self.index = InvertedIndex()
        self._documents: dict[str, Document] = {}
        self._filter = BloomFilter(
            self._bloom_config.num_bits, self._bloom_config.num_hashes
        )
        #: bumped every time the filter's contents change; the directory
        #: uses it to decide whether a gossiped filter is news.
        self.filter_version = 0
        self._filter_stale = False
        #: called after each applied mutation (a durability layer's tap);
        #: :meth:`apply_publish` / :meth:`apply_remove` bypass it so
        #: replaying a log never re-logs.
        self.on_operation: StoreOperationHook | None = None

    # -- publishing ---------------------------------------------------------

    def publish(self, item: Document | XMLSnippet) -> Document:
        """Publish a document or XML snippet: store, index, summarize.

        Returns the stored :class:`Document`.  Publishing an id that
        already exists raises; remove it first.  The operation is only
        acknowledged (returns) after :attr:`on_operation` has run, so a
        subscribed WAL makes it durable before the caller proceeds.
        """
        doc = item.to_document() if isinstance(item, XMLSnippet) else item
        if doc.doc_id in self._documents:
            raise ValueError(f"document {doc.doc_id!r} is already published")
        term_freqs = self.analyzer.term_frequencies(doc.text)
        self.apply_publish(doc, term_freqs)
        if self.on_operation is not None:
            self.on_operation("publish", doc, term_freqs)
        return doc

    def apply_publish(
        self,
        doc: Document,
        term_freqs: Mapping[str, int],
        *,
        update_filter: bool = True,
    ) -> Document:
        """Install an already-analyzed publish (WAL/snapshot replay path).

        Indexes ``doc`` under the given term frequencies and grows the
        Bloom filter, without invoking the Analyzer and without firing
        :attr:`on_operation` — recovery must never re-log what it replays.

        ``update_filter=False`` defers the Bloom insert; the caller must
        later cover this document's terms via :meth:`bulk_add_terms` (a
        replayer batching many records hashes each distinct term once
        instead of once per occurrence).
        """
        self.index.add_document(doc.doc_id, term_freqs)
        self._documents[doc.doc_id] = doc
        if update_filter and self._filter.add_missing(list(term_freqs)):
            self.filter_version += 1
        return doc

    def bulk_add_terms(self, terms: Iterable[str]) -> None:
        """Fold many terms into the Bloom filter in one hashing pass
        (the deferred half of ``apply_publish(update_filter=False)``)."""
        if self._filter.add_missing(list(terms)):
            self.filter_version += 1

    def remove(self, doc_id: str) -> Document:
        """Remove a published document; the Bloom filter becomes stale."""
        if doc_id not in self._documents:
            raise KeyError(doc_id)
        doc = self.apply_remove(doc_id)
        if self.on_operation is not None:
            self.on_operation("remove", doc, None)
        return doc

    def apply_remove(self, doc_id: str) -> Document:
        """Apply a remove without firing :attr:`on_operation` (replay path)."""
        try:
            doc = self._documents.pop(doc_id)
        except KeyError:
            raise KeyError(doc_id) from None
        self.index.remove_document(doc_id)
        self._filter_stale = True
        return doc

    def restore(
        self,
        entries: Iterable[tuple[Document, Mapping[str, int]]],
        bloom_filter: BloomFilter | None,
        filter_version: int,
    ) -> None:
        """Install recovered state wholesale (snapshot restore path).

        ``entries`` pairs each document with its persisted term
        frequencies, so neither the Analyzer nor term re-hashing runs for
        documents covered by a snapshot: the index is loaded directly and
        ``bloom_filter`` (the snapshot's decoded filter) is adopted as-is
        when it matches this store's configuration.  A ``None`` or
        mismatched filter (the Bloom sizing changed between runs) is
        rebuilt from the restored index instead.  Only valid on an empty
        store.
        """
        if self._documents:
            raise ValueError("restore requires an empty data store")
        for doc, term_freqs in entries:
            self.index.add_document(doc.doc_id, term_freqs)
            self._documents[doc.doc_id] = doc
        if (
            bloom_filter is not None
            and bloom_filter.num_bits == self._bloom_config.num_bits
            and bloom_filter.num_hashes == self._bloom_config.num_hashes
        ):
            self._filter = bloom_filter
        else:
            self._filter = BloomFilter(
                self._bloom_config.num_bits, self._bloom_config.num_hashes
            )
            self._filter.add_many(list(self.index.terms()))
        self._filter_stale = False
        self.filter_version = filter_version

    def regenerate_filter(self) -> BloomFilter:
        """Rebuild the Bloom filter from the live index.

        Needed after removals; bumps the version if contents changed.
        """
        fresh = BloomFilter(self._bloom_config.num_bits, self._bloom_config.num_hashes)
        fresh.add_many(list(self.index.terms()))
        if fresh != self._filter:
            self._filter = fresh
            self.filter_version += 1
        self._filter_stale = False
        return self._filter

    # -- access -----------------------------------------------------------------

    @property
    def bloom_config(self) -> BloomConfig:
        """The Bloom sizing this store was built with."""
        return self._bloom_config

    @property
    def bloom_filter(self) -> BloomFilter:
        """The current summary filter (regenerated first if stale)."""
        if self._filter_stale:
            self.regenerate_filter()
        return self._filter

    def get(self, doc_id: str) -> Document:
        """Fetch a stored document."""
        try:
            return self._documents[doc_id]
        except KeyError:
            raise KeyError(doc_id) from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def document_ids(self) -> Iterator[str]:
        """Iterate stored document ids."""
        return iter(self._documents)

    def num_terms(self) -> int:
        """Distinct indexed terms."""
        return self.index.vocabulary_size()

    def __repr__(self) -> str:
        return (
            f"LocalDataStore(docs={len(self)}, terms={self.num_terms()}, "
            f"filter_v={self.filter_version})"
        )
