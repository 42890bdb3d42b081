"""PlanetP core: the public library tying everything together.

A :class:`PlanetPPeer` owns a local data store (published XML documents),
the local inverted index, and its Bloom filter summary.  An
:class:`InProcessCommunity` hosts many peers in one process — the form the
paper's search experiments use ("a simulator that first distributes
documents across a set of virtual peers") — and provides the two search
modes of Section 5: exhaustive conjunctive search and TF×IPF ranked
search, plus persistent queries and the optional brokerage.
"""

from repro.core.datastore import LocalDataStore
from repro.core.peer import PlanetPPeer, PeerEntry
from repro.core.community import InProcessCommunity
from repro.core.search import score_local_documents, exhaustive_local_match
from repro.core.persistent import StandingQueries, Subscription
from repro.core.merged import MergedDirectory

__all__ = [
    "MergedDirectory",
    "LocalDataStore",
    "PlanetPPeer",
    "PeerEntry",
    "InProcessCommunity",
    "score_local_documents",
    "exhaustive_local_match",
    "StandingQueries",
    "Subscription",
]
