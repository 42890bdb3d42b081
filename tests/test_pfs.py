"""Tests for PFS: file server, namespace, and the PFS core flows."""

import pytest

from repro.constants import PFS_BROKER_DISCARD_S, PFS_DIR_REFRESH_S
from repro.core.community import InProcessCommunity
from repro.pfs.fileserver import FileServer
from repro.pfs.namespace import SemanticNamespace
from repro.pfs.pfs import PFS


class TestFileServer:
    def test_url_roundtrip(self):
        fs = FileServer(3)
        fs.put_file("/docs/a.txt", "hello")
        url = fs.url_for("/docs/a.txt")
        assert fs.get(url) == "hello"

    def test_unknown_path(self):
        fs = FileServer(0)
        with pytest.raises(FileNotFoundError):
            fs.url_for("/missing")
        with pytest.raises(FileNotFoundError):
            fs.read("/missing")

    def test_foreign_url_rejected(self):
        fs = FileServer(0)
        with pytest.raises(ValueError):
            fs.get("http://elsewhere/doc")

    def test_relative_path_rejected(self):
        with pytest.raises(ValueError):
            FileServer(0).put_file("relative.txt", "x")

    def test_delete(self):
        fs = FileServer(0)
        fs.put_file("/a", "x")
        fs.delete_file("/a")
        assert "/a" not in fs
        with pytest.raises(FileNotFoundError):
            fs.delete_file("/a")


class TestNamespace:
    def test_make_and_get(self):
        ns = SemanticNamespace()
        d = ns.make_directory("/gossip", ("gossip",), now=0.0)
        assert ns.get("/gossip") is d
        assert "/gossip" in ns
        assert len(ns) == 1

    def test_effective_query_refines(self):
        ns = SemanticNamespace()
        assert ns.effective_query("/gossip/protocols") == "gossip protocols"

    def test_duplicate_rejected(self):
        ns = SemanticNamespace()
        ns.make_directory("/a", ("a1",), 0.0)
        with pytest.raises(FileExistsError):
            ns.make_directory("/a", ("a1",), 0.0)

    def test_bad_paths(self):
        ns = SemanticNamespace()
        with pytest.raises(ValueError):
            ns.effective_query("relative")
        with pytest.raises(ValueError):
            ns.effective_query("/")

    def test_remove(self):
        ns = SemanticNamespace()
        ns.make_directory("/a", ("a1",), 0.0)
        ns.remove_directory("/a")
        with pytest.raises(FileNotFoundError):
            ns.get("/a")


class TestPFS:
    @pytest.fixture
    def setup(self):
        clock = [0.0]
        community = InProcessCommunity(3, clock=lambda: clock[0])
        for pid in range(3):
            community.brokerage.add_member(pid)
        pfs = PFS(community, 0)
        return community, pfs, clock

    def test_publish_file_indexes_content(self, setup):
        community, pfs, _ = setup
        pfs.publish_file("/notes.txt", "gossip dissemination research notes")
        docs = community.exhaustive_search("dissemination")
        assert len(docs) == 1
        assert docs[0].metadata["path"] == "/notes.txt"

    def test_hot_terms_brokered(self, setup):
        community, pfs, _ = setup
        content = "gossip " * 20 + "rare term appears once"
        pfs.publish_file("/hot.txt", content)
        # 'gossip' dominates the file: it must be on the brokerage now.
        hits = community.brokerage.lookup("gossip")
        assert any(s.snippet_id == "pfs:0:/hot.txt" for s in hits)

    def test_brokered_advert_expires(self, setup):
        community, pfs, clock = setup
        pfs.publish_file("/hot.txt", "gossip " * 10)
        clock[0] = PFS_BROKER_DISCARD_S + 1
        assert community.brokerage.lookup("gossip") == []

    def test_directory_populated_on_create(self, setup):
        community, pfs, _ = setup
        pfs.publish_file("/a.txt", "alpha content about gossip")
        d = pfs.make_directory("/gossip")
        assert "a.txt" in d.links

    def test_upcall_adds_new_files(self, setup):
        community, pfs, _ = setup
        d = pfs.make_directory("/gossip")
        assert len(d) == 0
        pfs.publish_file("/later.txt", "late gossip news")
        assert "later.txt" in d.links

    def test_refinement_narrows(self, setup):
        community, pfs, _ = setup
        pfs.publish_file("/both.txt", "gossip about protocols")
        pfs.publish_file("/one.txt", "gossip only here")
        broad = pfs.make_directory("/gossip")
        narrow = pfs.make_directory("/gossip/protocols")
        assert set(broad.links) == {"both.txt", "one.txt"}
        assert set(narrow.links) == {"both.txt"}

    def test_stale_directory_refreshes_removals(self, setup):
        community, pfs, clock = setup
        pfs.publish_file("/temp.txt", "gossip that will vanish")
        d = pfs.make_directory("/gossip")
        assert "temp.txt" in d.links
        pfs.unpublish_file("/temp.txt")
        # Link lingers until the staleness refresh...
        assert "temp.txt" in d.links
        clock[0] = PFS_DIR_REFRESH_S + 1
        d = pfs.open_directory("/gossip")
        assert "temp.txt" not in d.links

    def test_unpublish_unknown_raises(self, setup):
        _, pfs, _ = setup
        with pytest.raises(FileNotFoundError):
            pfs.unpublish_file("/ghost")

    def test_read_url_cross_peer(self, setup):
        community, pfs, _ = setup
        other = PFS(community, 1)
        other.publish_file("/theirs.txt", "remote gossip file")
        d = pfs.make_directory("/remote")
        url = other.files.url_for("/theirs.txt")
        assert pfs.read_url(url, {1: other.files}) == "remote gossip file"
        with pytest.raises(LookupError):
            pfs.read_url("http://unknown.host/x")

    def test_xml_escaping_of_content(self, setup):
        community, pfs, _ = setup
        pfs.publish_file("/odd.txt", 'weird <tag> & "chars" gossip')
        docs = community.exhaustive_search("weird gossip")
        assert len(docs) == 1

    def test_unpublish_raises_typed_error_when_index_lost_the_doc(self, setup):
        """The community dropped the snippet out from under us: the
        failure surfaces as ContentNotFound, not the datastore's bare
        KeyError (which callers could not tell from a dict bug)."""
        from repro.store.chunkstore import ContentNotFound

        community, pfs, _ = setup
        pfs.publish_file("/fragile.txt", "gossip content that will vanish remotely")
        community.remove(pfs._snippet_id("/fragile.txt"))
        with pytest.raises(ContentNotFound) as exc:
            pfs.unpublish_file("/fragile.txt")
        assert isinstance(exc.value, LookupError)
        assert "not in the community index" in str(exc.value)

    def test_read_url_miss_raises_typed_error(self, setup):
        from repro.store.chunkstore import ContentNotFound

        _, pfs, _ = setup
        with pytest.raises(ContentNotFound, match="no server for URL") as exc:
            pfs.read_url("http://unknown.host/x")
        # KeyError-compatible: pre-typed-error handlers still work.
        assert isinstance(exc.value, KeyError)
        # ... and so do peer registries that simply lack the host.
        other = PFS(InProcessCommunity(2), 1)
        with pytest.raises(ContentNotFound):
            pfs.read_url("http://nowhere/x", {1: other.files})
