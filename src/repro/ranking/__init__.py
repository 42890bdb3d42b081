"""Vector-space ranking: the centralized TF×IDF baseline and PlanetP's
distributed TF×IPF approximation (paper Section 5.2), with the adaptive
stopping heuristic (eq. 4) and recall/precision evaluation (eqs. 5-6).
"""

from repro.ranking.evaluation import (
    average_recall_precision,
    precision,
    recall,
)
from repro.ranking.stopping import (
    AdaptiveStopping,
    FirstKStopping,
    NeverStop,
    StoppingPolicy,
    StoppingState,
)
from repro.ranking.tfidf import CentralizedTFIDF, RankedDoc
from repro.ranking.tfipf import (
    DistributedSearchResult,
    PeerBackend,
    SearchRun,
    TFIPFSearch,
    rank_peers,
)
from repro.ranking.vsm import (
    document_term_weight,
    inverse_document_frequency,
    inverse_peer_frequency,
    similarity_from_parts,
)

__all__ = [
    "document_term_weight",
    "inverse_document_frequency",
    "inverse_peer_frequency",
    "similarity_from_parts",
    "CentralizedTFIDF",
    "RankedDoc",
    "DistributedSearchResult",
    "SearchRun",
    "TFIPFSearch",
    "PeerBackend",
    "rank_peers",
    "AdaptiveStopping",
    "FirstKStopping",
    "NeverStop",
    "StoppingPolicy",
    "StoppingState",
    "average_recall_precision",
    "precision",
    "recall",
]
