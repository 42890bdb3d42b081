"""PlanetP reproduction: gossip-replicated Bloom-filter content search for
P2P communities.

Reproduces Cuenca-Acuna, Peery, Martin & Nguyen, *"PlanetP: Using
Gossiping to Build Content Addressable Peer-to-Peer Information Sharing
Communities"* (Rutgers DCS-TR-487 / HPDC 2003).

Quick start::

    from repro import InProcessCommunity, Document

    community = InProcessCommunity(num_peers=8)
    community.publish(0, Document("d1", "epidemic gossip protocols"))
    community.publish(3, Document("d2", "vector space ranking models"))
    result = community.ranked_search("gossip protocols", k=5)
    print(result.doc_ids())

Subpackages
-----------
``repro.bloom``       Bloom filters, Golomb-coded compression, diffs
``repro.text``        tokenizer, Porter stemmer, inverted index
``repro.corpus``      synthetic collections with relevance judgments
``repro.ranking``     TF×IDF baseline, TF×IPF + adaptive stopping
``repro.sim``         discrete-event engine, link model, churn
``repro.gossip``      the gossip protocol and its scenario runners
``repro.brokerage``   consistent-hashing information brokerage
``repro.core``        peers, communities, searches (public API)
``repro.pfs``         the PFS semantic-file-system example app
``repro.experiments`` one runner per paper table/figure
``repro.net``         codec, transports, ``NetworkPeer``, ``python -m repro.net``
``repro.store``       WAL, snapshots, directory checkpoint, chunk store
``repro.serve``       query scheduler, result cache, wire subscriptions
``repro.content``     chunked replication and retrieval of document bytes
``repro.analytics``   gossiped term sketches, popularity, browsing
``repro.obs``         metrics registry and trace log
``repro.fleet``       multi-process fleets of real nodes on localhost
``repro.utils``       RNG, bit arrays, statistics, distributions

A package ``__init__`` imports none of its submodules (``repro.obs``
and ``repro.fleet`` excepted), so a node process loads only the modules
it runs; import names from their defining modules.  Only the
quick-start names in ``__all__`` also resolve from this package, each
importing its defining module on first use.
"""

import importlib

__version__ = "1.0.0"

#: quick-start name -> defining module, imported on first access (PEP 562)
_EXPORTS = {
    "BloomFilter": "repro.bloom.filter",
    "BloomConfig": "repro.constants",
    "GossipConfig": "repro.constants",
    "InProcessCommunity": "repro.core.community",
    "PlanetPPeer": "repro.core.peer",
    "PFS": "repro.pfs.pfs",
    "CentralizedTFIDF": "repro.ranking.tfidf",
    "RankedDoc": "repro.ranking.tfidf",
    "DistributedSearchResult": "repro.ranking.tfipf",
    "Analyzer": "repro.text.analyzer",
    "Document": "repro.text.document",
    "XMLSnippet": "repro.text.xmlsnippets",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
