"""PFS Core (paper Section 6): publish files, maintain query directories.

Publishing a file:

1. obtain a URL from the File Server;
2. embed the URL and path in an XML snippet and publish it to PlanetP
   (which indexes the file's content);
3. ask PlanetP to advertise the snippet on the brokerage under the 10%
   most frequently appearing terms of the file, with a 10-minute TTL —
   the dual-publication trick that makes brand-new files findable for
   their hottest terms before the Bloom filter diffuses.

Creating a directory posts its (refined) query as a persistent exhaustive
query; upcalls add links as matching files are published.  Removals are
reconciled lazily: opening a directory not refreshed within the staleness
threshold re-runs the whole query.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from xml.sax.saxutils import escape

from repro.constants import (
    PFS_BROKER_DISCARD_S,
    PFS_BROKER_TERM_FRACTION,
    PFS_DIR_REFRESH_S,
)
from repro.core.community import InProcessCommunity
from repro.pfs.fileserver import FileServer
from repro.pfs.namespace import QueryDirectory, SemanticNamespace
from repro.store.chunkstore import ContentNotFound
from repro.text.document import Document
from repro.text.xmlsnippets import XMLSnippet

__all__ = ["PFS"]


class PFS:
    """One user's PFS instance, bound to a peer in a community."""

    def __init__(
        self,
        community: InProcessCommunity,
        peer_id: int,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.community = community
        self.peer_id = peer_id
        self.files = FileServer(peer_id)
        self.namespace = SemanticNamespace()
        # Share the community's clock by default so brokered-advert TTLs
        # and directory staleness agree on what "now" means.
        self._clock = clock if clock is not None else community.brokerage.clock
        #: snippet id -> local path, for deletion bookkeeping.
        self._published: dict[str, str] = {}

    # -- publishing -----------------------------------------------------------

    def _snippet_id(self, path: str) -> str:
        return f"pfs:{self.peer_id}:{path}"

    def publish_file(self, path: str, content: str) -> Document:
        """Share a local file with the community (steps 1-3 above)."""
        self.files.put_file(path, content)
        url = self.files.url_for(path)
        snippet_id = self._snippet_id(path)
        xml = (
            f'<pfsfile url="{escape(url, {chr(34): "&quot;"})}" '
            f'path="{escape(path, {chr(34): "&quot;"})}">'
            f"{escape(content)}</pfsfile>"
        )
        snippet = XMLSnippet(snippet_id, xml, {"url": url, "path": path})
        doc = self.community.publish(self.peer_id, snippet)
        self._published[snippet_id] = path
        # The brokerage is an optional optimization (Section 4): skip the
        # hot-term advertisement when nobody is brokering.
        hot_terms = self._top_terms(content) if self.community.brokerage.members() else []
        if hot_terms:
            self.community.brokerage.publish(
                snippet_id,
                xml,
                hot_terms,
                publisher=self.peer_id,
                ttl_s=PFS_BROKER_DISCARD_S,
                attributes={"url": url, "path": path},
            )
        return doc

    def _top_terms(self, content: str) -> list[str]:
        """The file's most frequent ``PFS_BROKER_TERM_FRACTION`` of terms."""
        freqs = Counter(self.community.analyzer.analyze(content))
        if not freqs:
            return []
        count = max(1, int(len(freqs) * PFS_BROKER_TERM_FRACTION))
        return [t for t, _ in freqs.most_common(count)]

    def unpublish_file(self, path: str) -> None:
        """Stop sharing a file (and delete it locally).

        Raises :class:`FileNotFoundError` for a path we never published
        and :class:`ContentNotFound` when the community no longer
        resolves the snippet id (e.g. it was removed out from under us) —
        previously that leaked the datastore's bare ``KeyError``.
        """
        snippet_id = self._snippet_id(path)
        if snippet_id not in self._published:
            raise FileNotFoundError(path)
        try:
            self.community.remove(snippet_id)
        except ContentNotFound:
            raise
        except KeyError:
            raise ContentNotFound(snippet_id, "not in the community index") from None
        del self._published[snippet_id]
        self.files.delete_file(path)

    # -- directories ------------------------------------------------------------

    def make_directory(self, path: str) -> QueryDirectory:
        """Create a query directory and wire up its persistent query."""
        query = self.namespace.effective_query(path)
        terms = tuple(self.community.analyze_query(query))
        if not terms:
            raise ValueError(f"directory query {query!r} analyzed to no terms")
        directory = self.namespace.make_directory(path, terms, self._clock())

        def _upcall(doc: Document) -> None:
            url = doc.metadata.get("url", doc.doc_id)
            directory.add_link(self._link_name(doc), str(url))

        self.community.post_persistent_query(query, _upcall)
        self._refresh(directory)
        return directory

    @staticmethod
    def _link_name(doc: Document) -> str:
        path = doc.metadata.get("path")
        if path:
            return str(path).rsplit("/", 1)[-1] or str(path)
        return doc.doc_id

    def open_directory(self, path: str) -> QueryDirectory:
        """Open a directory; re-run its query if it has gone stale
        (the lazy removal-reconciliation of Section 6)."""
        directory = self.namespace.get(path)
        if self._clock() - directory.last_updated > PFS_DIR_REFRESH_S:
            self._refresh(directory)
        return directory

    def _refresh(self, directory: QueryDirectory) -> None:
        """Re-run the directory's full query, replacing all links."""
        matches = self.community.exhaustive_search(
            " ".join(directory.terms), from_peer=self.peer_id
        )
        directory.links.clear()
        for doc in matches:
            url = doc.metadata.get("url", doc.doc_id)
            directory.add_link(self._link_name(doc), str(url))
        directory.last_updated = self._clock()

    # -- reading remote files -------------------------------------------------------

    def read_url(self, url: str, peers_files: dict[int, FileServer] | None = None) -> str:
        """Fetch a file by URL.

        With no registry supplied, only our own URLs resolve; tests and
        examples pass a {peer_id: FileServer} map standing in for HTTP.
        An unresolvable URL raises :class:`ContentNotFound` (a
        :class:`LookupError` subclass, so existing handlers still catch
        it).
        """
        prefix = f"http://{self.files.host}"
        if url.startswith(prefix):
            return self.files.get(url)
        if peers_files:
            for server in peers_files.values():
                if url.startswith(f"http://{server.host}"):
                    return server.get(url)
        raise ContentNotFound(url, "no server for URL")
