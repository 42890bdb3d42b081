"""Bloom filters and their wire encoding.

The paper summarizes each peer's inverted index with a Bloom filter
(Section 2) and compresses filters for gossiping with a run-length /
Golomb-code scheme (Section 7.1).  This subpackage provides:

* :class:`BloomFilter` — a k-hash filter over a numpy bit array, with
  union/merge (the "combine filters of several peers" trade-off), batch
  insert/query, a monotonic mutation version, and false-positive math.
* :mod:`repro.bloom.golomb` — a from-scratch Golomb/Rice bitstream codec:
  streaming reference classes plus the vectorized
  :func:`~repro.bloom.golomb.encode_gaps` / ``decode_gaps`` hot path.
* :mod:`repro.bloom.compress` — gap run-length compression of a filter
  using Golomb codes, as in the prototype, memoized per filter version.
* :mod:`repro.bloom.diff` — filter diffs, used to gossip only the newly
  set bits when an index grows.
* :mod:`repro.bloom.matcher` — :class:`FilterMatrix`, stacked peer filters
  answering whole-directory query matching with one vectorized gather.
"""
