"""A popularity-ranked browsable global namespace.

Layered on :mod:`repro.pfs`'s query-named directories: a path like
``/gossip/protocols`` *is* the query "gossip protocols" (each segment
refines the last), so the community is browsable without anyone having
agreed on a directory tree — every path is materialized on demand from
the replicated directory, exactly the "popularity based global
namespace" construction.

Listings are **popularity-ordered**: the ranked search supplies the
candidate documents, and the gossiped analytics sketch re-ranks them by
community access counts (:class:`~repro.analytics.popularity.
PopularityIndex`), with search relevance breaking ties.  Each entry
carries a ``planetp://<doc_id>`` link — the content plane retrieves by
doc id from whatever replicas currently hold it, so links stay valid
across churn.

Two consumers share this module:

* :class:`CommunityBrowser` — the serving-plane browser, attached to a
  :class:`~repro.serve.scheduler.QueryScheduler` so browse traffic gets
  the same admission control, caching, and generation-keyed invalidation
  as search;
* :func:`local_listing` — the node-side handler for the
  :class:`~repro.gossip.wire.BrowseRequest` RPC, which lists only the
  answering node's local documents (fleet probes and the CLI poll many
  nodes cheaply without triggering community-wide fan-out per poll).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analytics.popularity import PopularityIndex
from repro.core.search import exhaustive_local_match
from repro.gossip.directory import directory_generation
from repro.gossip.wire import BrowseRequest, BrowseResponse
from repro.pfs.namespace import SemanticNamespace

if TYPE_CHECKING:
    from repro.net.node import NetworkPeer
    from repro.serve.scheduler import QueryScheduler

__all__ = ["BrowseEntry", "BrowseListing", "CommunityBrowser", "local_listing"]

#: A listing of k documents ranks k * OVERFETCH search results, so the
#: popularity re-rank has candidates beyond the final page.
OVERFETCH = 4


def doc_link(doc_id: str) -> str:
    """The content-addressed retrieval link for a document."""
    return f"planetp://{doc_id}"


@dataclass(frozen=True)
class BrowseEntry:
    """One listed document: id, retrieval link, popularity score."""

    doc_id: str
    link: str
    popularity: int


@dataclass(frozen=True)
class BrowseListing:
    """One directory listing, popularity-ordered best-first."""

    path: str
    query: str
    generation: int
    entries: tuple[BrowseEntry, ...]

    def names(self) -> list[str]:
        """Listed doc ids in display order."""
        return [e.doc_id for e in self.entries]


def path_terms(node: NetworkPeer, path: str) -> list[str]:
    """Analyze a directory path into its effective query terms.

    Raises ``ValueError`` for malformed paths (relative, root, or paths
    whose segments analyze to nothing — e.g. all stopwords).
    """
    segments = SemanticNamespace._segments(path)
    terms = list(node.analyzer.analyze_query(" ".join(segments)))
    if not terms:
        raise ValueError(f"path {path!r} analyzes to zero query terms")
    return terms


def local_listing(node: NetworkPeer, msg: BrowseRequest) -> BrowseResponse:
    """Serve one node-local browse: local matches, popularity-ordered."""
    try:
        terms = path_terms(node, msg.path)
    except ValueError:
        return BrowseResponse(False, msg.path, 0, ())
    k = max(1, min(msg.k, 1024))
    node.analytics.refresh_local()  # serve fresh pre-first-round popularity
    doc_ids = exhaustive_local_match(node.peer.store.index, terms)
    popularity = PopularityIndex(node.analytics.sketch)
    ranked = popularity.rank_docs((doc_id, 0.0) for doc_id in doc_ids)[:k]
    generation = directory_generation(node)
    return BrowseResponse(
        True,
        msg.path,
        generation,
        tuple((doc_id, doc_link(doc_id), score) for doc_id, score in ranked),
    )


class CommunityBrowser:
    """Community-wide listings for the serving plane.

    ``listing`` runs one ranked search for the path's effective query
    (over-fetching so the popularity re-rank has candidates beyond the
    final page) and re-orders the results by gossiped access counts.
    The scheduler calls it through ``_admit``, so listings are cached
    under the directory generation and shed under overload exactly like
    searches.
    """

    def __init__(self, scheduler: QueryScheduler) -> None:
        self.scheduler = scheduler

    async def listing(self, path: str, k: int) -> BrowseListing:
        """One popularity-ordered community listing of ``path``."""
        node = self.scheduler.node
        terms = path_terms(node, path)
        query = " ".join(terms)
        generation = directory_generation(node)
        result = await self.scheduler.client.ranked_search(
            query, k * OVERFETCH
        )
        node.analytics.refresh_local()  # fresh pre-first-round popularity
        popularity = PopularityIndex(node.analytics.sketch)
        ranked = popularity.rank_docs(
            (doc.doc_id, doc.score) for doc in result.results
        )[:k]
        return BrowseListing(
            path,
            query,
            generation,
            tuple(
                BrowseEntry(doc_id, doc_link(doc_id), score)
                for doc_id, score in ranked
            ),
        )
