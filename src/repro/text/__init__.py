"""Text analysis substrate: tokenization, stop-word removal, Porter
stemming, XML document handling, and the per-peer inverted index.

The paper (Section 7.3) pre-processes all traces with stop-word removal and
stemming before indexing; Section 2 describes the per-peer local inverted
index that Bloom filters summarize.
"""
