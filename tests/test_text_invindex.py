"""Tests for the inverted index."""

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.invindex import InvertedIndex, Posting


def _index(**docs):
    idx = InvertedIndex()
    for doc_id, freqs in docs.items():
        idx.add_document(doc_id, freqs)
    return idx


class TestAddRemove:
    def test_add_and_lookup(self):
        idx = _index(d1={"gossip": 2, "peer": 1})
        assert idx.term_frequency("gossip", "d1") == 2
        assert idx.document_length("d1") == 3
        assert idx.num_documents() == 1
        assert idx.vocabulary_size() == 2

    def test_duplicate_doc_raises(self):
        idx = _index(d1={"a1": 1})
        with pytest.raises(ValueError):
            idx.add_document("d1", {"b1": 1})

    def test_zero_tf_rejected(self):
        idx = InvertedIndex()
        with pytest.raises(ValueError):
            idx.add_document("d1", {"a1": 0})

    def test_empty_document_allowed(self):
        idx = InvertedIndex()
        idx.add_document("empty", {})
        assert idx.document_length("empty") == 0
        assert idx.num_documents() == 1

    def test_remove_document(self):
        idx = _index(d1={"shared": 1, "only1": 2}, d2={"shared": 3})
        idx.remove_document("d1")
        assert idx.num_documents() == 1
        assert "only1" not in idx
        assert idx.document_frequency("shared") == 1
        with pytest.raises(KeyError):
            idx.document_length("d1")

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            InvertedIndex().remove_document("ghost")

    def test_total_term_count_tracks(self):
        idx = _index(d1={"a1": 2}, d2={"b1": 3})
        assert idx.total_term_count() == 5
        idx.remove_document("d1")
        assert idx.total_term_count() == 3


class TestQueries:
    def test_postings(self):
        idx = _index(d1={"term": 2}, d2={"term": 5})
        postings = sorted(idx.postings("term"), key=lambda p: p.doc_id)
        assert postings == [Posting("d1", 2), Posting("d2", 5)]
        assert idx.postings("absent") == []

    def test_frequencies(self):
        idx = _index(d1={"xx": 2}, d2={"xx": 3, "yy": 1})
        assert idx.document_frequency("xx") == 2
        assert idx.collection_frequency("xx") == 5
        assert idx.term_frequency("xx", "d3") == 0

    def test_conjunctive_match(self):
        idx = _index(
            d1={"gossip": 1, "peer": 1},
            d2={"gossip": 1},
            d3={"peer": 1, "gossip": 2, "extra": 1},
        )
        assert idx.conjunctive_match(["gossip", "peer"]) == {"d1", "d3"}
        assert idx.conjunctive_match(["gossip", "absent"]) == set()
        assert idx.conjunctive_match([]) == {"d1", "d2", "d3"}

    def test_contains(self):
        idx = _index(d1={"present": 1})
        assert "present" in idx
        assert "absent" not in idx

    def test_posting_validates(self):
        with pytest.raises(ValueError):
            Posting("d", 0)


@given(
    st.dictionaries(
        st.text(st.characters(codec="ascii", categories=["L"]), min_size=1, max_size=6),
        st.dictionaries(
            st.text(st.characters(codec="ascii", categories=["L"]), min_size=1, max_size=6),
            st.integers(min_value=1, max_value=20),
            max_size=10,
        ),
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_lengths_consistent(docs):
    """|D| equals the sum of its term frequencies; collection frequency
    equals the sum over postings."""
    idx = InvertedIndex()
    for doc_id, freqs in docs.items():
        idx.add_document(doc_id, freqs)
    for doc_id, freqs in docs.items():
        assert idx.document_length(doc_id) == sum(freqs.values())
    vocab = {t for freqs in docs.values() for t in freqs}
    for term in vocab:
        assert idx.collection_frequency(term) == sum(
            freqs.get(term, 0) for freqs in docs.values()
        )


@given(
    st.lists(
        st.tuples(
            st.text("abc", min_size=1, max_size=3),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=10,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=50, deadline=None)
def test_property_remove_restores_empty(doc_terms):
    """Adding then removing a document leaves the index empty."""
    idx = InvertedIndex()
    idx.add_document("doc", dict(doc_terms))
    idx.remove_document("doc")
    assert idx.num_documents() == 0
    assert idx.vocabulary_size() == 0
    assert idx.total_term_count() == 0


@given(
    st.dictionaries(
        st.text("abcd", min_size=1, max_size=3),
        st.dictionaries(
            st.text("abcde", min_size=1, max_size=3),
            st.integers(min_value=1, max_value=9),
            max_size=8,
        ),
        max_size=8,
    ),
    st.sets(st.text("abcd", min_size=1, max_size=3)),
)
@settings(max_examples=60, deadline=None)
def test_property_remove_and_read_back_agree_with_a_fresh_index(docs, removed):
    """After removals the index equals one built from the survivors
    alone: postings, lengths, and each document's term frequencies read
    back in batches of any size."""
    idx = InvertedIndex()
    for doc_id, freqs in docs.items():
        idx.add_document(doc_id, freqs)
    for doc_id in removed & docs.keys():
        idx.remove_document(doc_id)
    survivors = {d: f for d, f in docs.items() if d not in removed}
    fresh = InvertedIndex()
    for doc_id, freqs in survivors.items():
        fresh.add_document(doc_id, freqs)
    assert sorted(idx.terms()) == sorted(fresh.terms())
    for term in fresh.terms():
        assert dict(idx.postings_map(term)) == dict(fresh.postings_map(term))
    assert idx.total_term_count() == fresh.total_term_count()
    for doc_id, freqs in survivors.items():
        assert idx.document_length(doc_id) == sum(freqs.values())
    ids = sorted(survivors)
    for size in (1, 3, len(ids) or 1):
        for start in range(0, len(ids), size):
            batch = ids[start : start + size]
            assert idx.term_frequencies(batch) == {d: survivors[d] for d in batch}


def test_an_ingest_document_costs_under_4_kb_of_index():
    """Postings are packed ``(ordinal, tf)`` pairs: a 250-term document of
    the ingest workload (uniform over 2000 terms, plus a unique marker)
    adds 2.6 KB to a warm index, bound 4 KB (a dict entry per posting
    cost 6.5 KB)."""
    rng = random.Random(7)
    terms = [f"term{i:04d}" for i in range(2000)]
    docs = [
        Counter([f"mark{i}", *rng.choices(terms, k=250)]) for i in range(600)
    ]
    idx = InvertedIndex()
    for i, freqs in enumerate(docs[:100]):
        idx.add_document(f"warm-{i}", freqs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, freqs in enumerate(docs[100:]):
            idx.add_document(f"ing-{i:06d}", freqs)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / 500 < 4096
