"""Edge cases of in-process persistent queries (Section 5.1).

The dispatch loop must stay correct when callbacks mutate the registry
mid-dispatch — a cancel racing a publish must suppress the doomed
query's upcall, a post racing a publish must not corrupt iteration — and
the delivered set must dedup re-publications of the same document.
"""

from __future__ import annotations

import pytest

from repro.core.community import InProcessCommunity
from repro.core.persistent import StandingQueries
from repro.text.analyzer import Analyzer
from repro.text.document import Document


@pytest.fixture
def community() -> InProcessCommunity:
    return InProcessCommunity(num_peers=2)


def _publish(community: InProcessCommunity, hits: list[str], doc: Document) -> int:
    """Publish ``doc`` at peer 0; returns the upcalls it fired."""
    before = len(hits)
    community.publish(0, doc)
    return len(hits) - before


def test_matching_document_fires_once_per_query(community):
    hits: list[str] = []
    community.post_persistent_query("gossip", lambda doc: hits.append(doc.doc_id))
    community.post_persistent_query(
        "gossip bloom", lambda doc: hits.append("both:" + doc.doc_id)
    )
    fired = _publish(community, hits, Document("d1", "gossip bloom"))
    assert fired == 2
    assert sorted(hits) == ["both:d1", "d1"]
    assert _publish(community, hits, Document("d2", "bloom")) == 0


def test_republished_document_is_deduplicated(community):
    """Remove-then-republish: the delivered set outlives the document,
    so the same doc id coming back never re-fires."""
    hits: list[str] = []
    community.post_persistent_query("gossip", lambda doc: hits.append(doc.doc_id))
    doc = Document("d", "gossip rumors")
    assert _publish(community, hits, doc) == 1
    # The document is removed and published again — duplicate upcalls
    # would make every subscriber re-process old news.
    community.remove("d")
    assert _publish(community, hits, doc) == 0
    community.remove("d")
    assert _publish(community, hits, Document("d", "gossip edited")) == 0
    assert hits == ["d"]


def test_cancel_racing_a_publish_suppresses_the_upcall(community):
    """A callback cancelling another query mid-dispatch must win the
    race: the cancelled query gets no upcall for the in-flight doc."""
    hits: list[str] = []

    def assassin(doc: Document) -> None:
        hits.append("assassin")
        community.cancel_persistent_query(doomed.sub_id)

    community.post_persistent_query("gossip", assassin)  # dispatches first
    doomed = community.post_persistent_query(
        "gossip", lambda doc: hits.append("doomed")
    )
    fired = _publish(community, hits, Document("d", "gossip"))
    assert fired == 1
    assert hits == ["assassin"]
    assert len(community.standing) == 1


def test_callback_posting_a_query_does_not_break_dispatch(community):
    hits: list[str] = []

    def recruiter(doc: Document) -> None:
        hits.append("recruiter:" + doc.doc_id)
        community.post_persistent_query(
            "gossip", lambda d: hits.append("recruit:" + d.doc_id)
        )

    community.post_persistent_query("gossip", recruiter)
    # The new query must not fire for the document that created it.
    assert _publish(community, hits, Document("d1", "gossip")) == 1
    assert hits == ["recruiter:d1"]
    # ...but it is live for the next one (and the recruiter spawns more).
    assert _publish(community, hits, Document("d2", "gossip")) == 2
    assert "recruit:d2" in hits


def test_callback_cancelling_itself_is_safe(community):
    hits: list[str] = []

    def one_shot(doc: Document) -> None:
        hits.append(doc.doc_id)
        community.cancel_persistent_query(query.sub_id)

    query = community.post_persistent_query("gossip", one_shot)
    assert _publish(community, hits, Document("d1", "gossip")) == 1
    assert _publish(community, hits, Document("d2", "gossip")) == 0
    assert hits == ["d1"]
    assert len(community.standing) == 0


def test_cancel_unknown_and_empty_terms_raise(community):
    with pytest.raises(KeyError):
        community.cancel_persistent_query(42)
    with pytest.raises(ValueError):
        community.post_persistent_query("", lambda doc: None)
    with pytest.raises(ValueError):
        StandingQueries().post([])


class _CountingAnalyzer(Analyzer):
    def __init__(self) -> None:
        super().__init__()
        self.calls: list[str] = []

    def analyze(self, text: str) -> list[str]:
        self.calls.append("analyze")
        return super().analyze(text)

    def term_frequencies(self, text: str):
        self.calls.append("term_frequencies")
        return super().term_frequencies(text)


def test_publish_analyzes_each_document_once():
    """The store's analysis is the only one: with no standing query a
    publish does no query work, and with one the probe reads the index."""
    analyzer = _CountingAnalyzer()
    community = InProcessCommunity(num_peers=2, analyzer=analyzer)
    community.publish(0, Document("d1", "gossip spreads"))
    assert analyzer.calls == ["term_frequencies", "analyze"]
    hits: list[str] = []
    community.post_persistent_query("gossip", lambda doc: hits.append(doc.doc_id))
    analyzer.calls.clear()
    community.publish(1, Document("d2", "gossip again"))
    assert analyzer.calls == ["term_frequencies", "analyze"]
    assert hits == ["d2"]
