"""PlanetP core: the public library tying everything together.

A :class:`PlanetPPeer` owns a local data store (published XML documents),
the local inverted index, and its Bloom filter summary.  An
:class:`InProcessCommunity` hosts many peers in one process — the form the
paper's search experiments use ("a simulator that first distributes
documents across a set of virtual peers") — and provides the two search
modes of Section 5: exhaustive conjunctive search and TF×IPF ranked
search, plus persistent queries and the optional brokerage.
"""
