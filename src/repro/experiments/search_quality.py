"""Figure 6: PlanetP's search quality vs centralized TF×IDF.

Mirrors the paper's search simulator (Section 7.3): distribute a
collection's documents over virtual peers by a Weibull law, give every
peer its real inverted index and Bloom filter, then for every benchmark
query compare:

* **TFxIDF** — the optimistic centralized baseline: full global index,
  top-k by eq. 2, contacting exactly the owners of those documents;
* **TFxIPF Ad.** — PlanetP's distributed search: eq. 3 peer ranking from
  the replicated Bloom filters, eq. 2 document ranking with IPF weights,
  adaptive stopping (eq. 4);
* **Best** — the oracle lower bound on peers contacted: the fewest peers
  whose stores cover k relevant documents, computed from the relevance
  judgments (greedy set cover).

Panels: (a) average recall & precision vs k; (b) recall vs community size
at fixed k; (c) average peers contacted vs k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.community import InProcessCommunity
from repro.corpus.collections import make_collection
from repro.corpus.partition import partition_documents
from repro.corpus.queries import Query
from repro.corpus.synthetic import SyntheticCollection
from repro.experiments.common import Series
from repro.ranking.evaluation import precision, recall
from repro.ranking.stopping import AdaptiveStopping, FirstKStopping
from repro.ranking.tfidf import CentralizedTFIDF
from repro.text.analyzer import Analyzer

__all__ = [
    "SearchTestbed",
    "build_testbed",
    "QueryOutcome",
    "evaluate_k",
    "run_figure6a",
    "run_figure6b",
    "run_figure6c",
]


@dataclass
class SearchTestbed:
    """A collection distributed over an in-process community, plus the
    centralized oracle."""

    collection: SyntheticCollection
    community: InProcessCommunity
    oracle: CentralizedTFIDF
    doc_owner: dict[str, int]
    num_peers: int

    def query_terms(self, query: Query) -> list[str]:
        """The query's terms as the community's analyzer sees them."""
        return self.community.analyze_query(query.text)


def build_testbed(
    collection: SyntheticCollection,
    num_peers: int = 400,
    distribution: str = "weibull",
    seed: int = 0,
) -> SearchTestbed:
    """Distribute ``collection`` over ``num_peers`` virtual peers.

    Synthetic corpora are indexed verbatim (no stemming / stop words) so
    query terms and document terms coincide exactly, as in the paper's
    pre-processed traces.
    """
    analyzer = Analyzer(remove_stopwords=False, stem=False)
    community = InProcessCommunity(num_peers, analyzer=analyzer)
    assignment = partition_documents(
        len(collection.documents), num_peers, distribution=distribution, seed=seed
    )
    oracle = CentralizedTFIDF()
    doc_owner: dict[str, int] = {}
    for peer_id, doc_indices in enumerate(assignment):
        for idx in doc_indices:
            doc = collection.documents[int(idx)]
            community.publish(peer_id, doc)
            oracle.add_document(doc.doc_id, analyzer.term_frequencies(doc.text))
            doc_owner[doc.doc_id] = peer_id
    community.replicate_directories()
    return SearchTestbed(
        collection=collection,
        community=community,
        oracle=oracle,
        doc_owner=doc_owner,
        num_peers=num_peers,
    )


@dataclass
class QueryOutcome:
    """Per-query metrics for both algorithms at one k."""

    query_id: str
    recall_idf: float
    precision_idf: float
    recall_ipf: float
    precision_ipf: float
    peers_idf: int
    peers_ipf: int
    peers_best: int


@dataclass
class KPoint:
    """Averaged metrics at one k (one x position of Figure 6)."""

    k: int
    recall_idf: float
    precision_idf: float
    recall_ipf: float
    precision_ipf: float
    avg_peers_idf: float
    avg_peers_ipf: float
    avg_peers_best: float
    outcomes: list[QueryOutcome] = field(repr=False, default_factory=list)


def _best_peer_count(testbed: SearchTestbed, query: Query, k: int) -> int:
    """Greedy set-cover: fewest peers covering min(k, |relevant|) relevant
    documents (the paper's "Best" curve)."""
    target = min(k, len(query.relevant))
    if target == 0:
        return 0
    per_peer: dict[int, int] = {}
    for doc_id in query.relevant:
        owner = testbed.doc_owner.get(doc_id)
        if owner is not None:
            per_peer[owner] = per_peer.get(owner, 0) + 1
    covered = 0
    used = 0
    for _, count in sorted(per_peer.items(), key=lambda kv: -kv[1]):
        covered += count
        used += 1
        if covered >= target:
            return used
    return used  # every holding peer, if k exceeds what's stored


def evaluate_k(
    testbed: SearchTestbed,
    k: int,
    queries: list[Query] | None = None,
    stopping: str = "adaptive",
) -> KPoint:
    """Evaluate both algorithms at one ``k`` over the query set.

    ``stopping`` selects PlanetP's policy: ``"adaptive"`` (eq. 4) or
    ``"first-k"`` (the naive baseline).
    """
    qs = queries if queries is not None else testbed.collection.queries
    outcomes: list[QueryOutcome] = []
    for query in qs:
        terms = testbed.query_terms(query)
        # Centralized TF×IDF oracle.
        ranked = testbed.oracle.rank(terms, k)
        idf_docs = [r.doc_id for r in ranked]
        idf_peers = {testbed.doc_owner[d] for d in idf_docs}
        # PlanetP distributed TF×IPF.
        policy = AdaptiveStopping() if stopping == "adaptive" else FirstKStopping()
        result = testbed.community.ranked_search(query.text, k=k, stopping=policy)
        ipf_docs = result.doc_ids()
        outcomes.append(
            QueryOutcome(
                query_id=query.query_id,
                recall_idf=recall(idf_docs, query.relevant),
                precision_idf=precision(idf_docs, query.relevant),
                recall_ipf=recall(ipf_docs, query.relevant),
                precision_ipf=precision(ipf_docs, query.relevant),
                peers_idf=len(idf_peers),
                peers_ipf=result.num_peers_contacted,
                peers_best=_best_peer_count(testbed, query, k),
            )
        )
    return KPoint(
        k=k,
        recall_idf=float(np.mean([o.recall_idf for o in outcomes])),
        precision_idf=float(np.mean([o.precision_idf for o in outcomes])),
        recall_ipf=float(np.mean([o.recall_ipf for o in outcomes])),
        precision_ipf=float(np.mean([o.precision_ipf for o in outcomes])),
        avg_peers_idf=float(np.mean([o.peers_idf for o in outcomes])),
        avg_peers_ipf=float(np.mean([o.peers_ipf for o in outcomes])),
        avg_peers_best=float(np.mean([o.peers_best for o in outcomes])),
        outcomes=outcomes,
    )


def run_figure6a(
    collection_name: str = "AP89",
    scale: float = 0.05,
    num_peers: int = 400,
    ks: tuple[int, ...] = (10, 20, 50, 100, 150, 200, 300),
    seed: int = 0,
) -> tuple[list[KPoint], dict[str, Series]]:
    """Panel (a): average recall and precision vs k, both algorithms."""
    collection = make_collection(collection_name, scale=scale, seed=seed)
    testbed = build_testbed(collection, num_peers=num_peers, seed=seed)
    points = [evaluate_k(testbed, k) for k in ks]
    series = {
        "R_IDF": Series("R IDF"),
        "P_IDF": Series("P IDF"),
        "R_IPF": Series("R IPF Ad.W"),
        "P_IPF": Series("P IPF Ad.W"),
    }
    for p in points:
        series["R_IDF"].add(p.k, p.recall_idf)
        series["P_IDF"].add(p.k, p.precision_idf)
        series["R_IPF"].add(p.k, p.recall_ipf)
        series["P_IPF"].add(p.k, p.precision_ipf)
    return points, series


def run_figure6b(
    collection_name: str = "AP89",
    scale: float = 0.05,
    community_sizes: tuple[int, ...] = (100, 200, 400, 600, 800, 1000),
    k: int = 20,
    seed: int = 0,
) -> tuple[list[KPoint], Series]:
    """Panel (b): PlanetP's recall vs community size at fixed k."""
    collection = make_collection(collection_name, scale=scale, seed=seed)
    points = []
    series = Series(f"IPF Ad.W (k={k})")
    for n in community_sizes:
        testbed = build_testbed(collection, num_peers=n, seed=seed)
        point = evaluate_k(testbed, k)
        points.append(point)
        series.add(n, point.recall_ipf)
    return points, series


def run_figure6c(
    collection_name: str = "AP89",
    scale: float = 0.05,
    num_peers: int = 400,
    ks: tuple[int, ...] = (10, 20, 50, 100, 150, 200, 300),
    seed: int = 0,
) -> tuple[list[KPoint], dict[str, Series]]:
    """Panel (c): average number of peers contacted vs k."""
    collection = make_collection(collection_name, scale=scale, seed=seed)
    testbed = build_testbed(collection, num_peers=num_peers, seed=seed)
    points = [evaluate_k(testbed, k) for k in ks]
    series = {
        "IPF": Series("IPF Ad.W"),
        "IDF": Series("IDF (oracle owners)"),
        "BEST": Series("Best"),
    }
    for p in points:
        series["IPF"].add(p.k, p.avg_peers_ipf)
        series["IDF"].add(p.k, p.avg_peers_idf)
        series["BEST"].add(p.k, p.avg_peers_best)
    return points, series
