"""Tests for the in-process community: both search modes, persistent
queries, replication, and offline behaviour."""

import pytest

from repro.core.community import InProcessCommunity
from repro.ranking.stopping import NeverStop
from repro.text.document import Document
from repro.text.xmlsnippets import XMLSnippet


class TestPublishing:
    def test_publish_and_fetch(self, tiny_community):
        doc = tiny_community.fetch("d-gossip")
        assert "gossip" in doc.text
        assert tiny_community.owner_of("d-gossip") == 0
        assert tiny_community.num_documents() == 6

    def test_remove(self, tiny_community):
        tiny_community.remove("d-gossip")
        with pytest.raises(KeyError):
            tiny_community.fetch("d-gossip")
        assert tiny_community.num_documents() == 5

    def test_remove_unknown_raises(self, tiny_community):
        with pytest.raises(KeyError):
            tiny_community.remove("ghost")

    def test_publish_batch(self):
        community = InProcessCommunity(2)
        community.publish_batch(
            0, [Document(f"d{i}", f"text number {i}") for i in range(5)]
        )
        assert community.num_documents() == 5


class TestExhaustiveSearch:
    def test_conjunction_semantics(self, tiny_community):
        docs = tiny_community.exhaustive_search("gossip ranking")
        # Only d-mixed contains both 'gossip' and 'ranking'.
        assert [d.doc_id for d in docs] == ["d-mixed"]

    def test_single_term(self, tiny_community):
        docs = tiny_community.exhaustive_search("gossip")
        assert {d.doc_id for d in docs} == {"d-gossip", "d-mixed"}

    def test_no_match(self, tiny_community):
        assert tiny_community.exhaustive_search("nonexistent") == []

    def test_empty_query(self, tiny_community):
        assert tiny_community.exhaustive_search("the of and") == []

    def test_offline_peer_not_contacted(self, tiny_community):
        tiny_community.set_online(0, False)
        docs = tiny_community.exhaustive_search("gossip")
        assert {d.doc_id for d in docs} == {"d-mixed"}

    def test_brokered_snippets_found(self, tiny_community):
        tiny_community.brokerage.add_member(0)
        tiny_community.brokerage.publish(
            "hot-item", "<ad>fresh</ad>", ["brandnew"], publisher=0, ttl_s=600
        )
        docs = tiny_community.exhaustive_search("brandnew")
        assert [d.doc_id for d in docs] == ["hot-item"]


class TestRankedSearch:
    def test_returns_relevant_first(self, tiny_community):
        result = tiny_community.ranked_search("gossip epidemically", k=3)
        assert result.doc_ids()[0] == "d-gossip"

    def test_k_bounds_results(self, tiny_community):
        result = tiny_community.ranked_search("gossip", k=1)
        assert len(result.results) == 1

    def test_contacted_subset_of_ranked(self, tiny_community):
        result = tiny_community.ranked_search("gossip", k=5)
        ranked_ids = [pid for pid, _ in result.peer_ranking]
        assert set(result.peers_contacted) <= set(ranked_ids)

    def test_empty_query_raises(self, tiny_community):
        with pytest.raises(ValueError):
            tiny_community.ranked_search("the of", k=3)

    def test_custom_stopping(self, tiny_community):
        result = tiny_community.ranked_search("gossip", k=5, stopping=NeverStop())
        ranked_ids = [pid for pid, _ in result.peer_ranking]
        assert result.peers_contacted == ranked_ids

    def test_offline_peer_filter_still_visible(self, tiny_community):
        """Section 2, advantage 4: a query can reveal that an off-line
        peer holds relevant documents (its filter stays in the
        directory) even though it cannot be contacted."""
        tiny_community.replicate_directories()
        tiny_community.set_online(2, False)
        result = tiny_community.ranked_search("chord lookups", k=3)
        # Peer 2's document can't be retrieved...
        assert "d-chord" not in result.doc_ids()
        # ...but the local directory still shows its filter may match.
        terms = tiny_community.analyze_query("chord lookups")
        assert tiny_community.peers[0].directory[2].bloom_filter.contains_all(terms)


class TestPersistentQueries:
    def test_upcall_on_future_publish(self, tiny_community):
        seen = []
        tiny_community.post_persistent_query("fresh gossip", seen.append)
        tiny_community.publish(1, Document("d-new", "fresh gossip arrives daily"))
        assert [d.doc_id for d in seen] == ["d-new"]

    def test_non_matching_publish_ignored(self, tiny_community):
        seen = []
        tiny_community.post_persistent_query("fresh gossip", seen.append)
        tiny_community.publish(1, Document("d-other", "unrelated material"))
        assert seen == []

    def test_conjunctive_matching(self, tiny_community):
        seen = []
        tiny_community.post_persistent_query("alpha beta", seen.append)
        tiny_community.publish(0, Document("d-a", "alpha only"))
        tiny_community.publish(0, Document("d-ab", "alpha and beta both"))
        assert [d.doc_id for d in seen] == ["d-ab"]

    def test_no_duplicate_upcalls(self, tiny_community):
        seen = []
        tiny_community.post_persistent_query("gossip", seen.append)
        tiny_community.publish(1, Document("d-x", "gossip gossip"))
        # Republishing under a different id fires again, same id cannot
        # exist twice; ensure one upcall per document.
        assert len(seen) == 1

    def test_cancel(self, tiny_community):
        seen = []
        handle = tiny_community.post_persistent_query("gossip", seen.append)
        tiny_community.cancel_persistent_query(handle.sub_id)
        tiny_community.publish(1, Document("d-y", "gossip again"))
        assert seen == []

    def test_empty_query_rejected(self, tiny_community):
        with pytest.raises(ValueError):
            tiny_community.post_persistent_query("the", lambda d: None)


class TestCommunityMisc:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            InProcessCommunity(0)

    def test_unknown_peer_raises(self, tiny_community):
        with pytest.raises(KeyError):
            tiny_community.set_online(99, True)

    def test_replication_installs_filters(self, tiny_community):
        tiny_community.replicate_directories()
        directory = tiny_community.peers[0].directory
        assert len(directory) == len(tiny_community)
        assert directory[4].bloom_filter is not None
