"""The information brokerage service (paper Section 4).

An *optional* optimization layered over gossiping: peers publish XML
snippets with associated keys and a discard time; brokers partition the
key space with consistent hashing so new content is findable before the
publisher's next Bloom filter diffuses.  The service deliberately makes no
safety guarantee — a broker leaving abruptly loses its snippets.
"""
