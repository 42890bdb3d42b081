"""The Bloom filter proper (paper Section 2).

A filter summarizes the set of terms in one peer's inverted index.  False
positives are possible, false negatives are not — the directory therefore
over-approximates which peers may hold a query term, never missing one.

The prototype used fixed 50 KB filters (≈50 000 terms at < 5% FP with two
hashes); :meth:`BloomFilter.paper_prototype` builds that configuration.
Peers may also merge several filters into one to save memory (Section 2
advantage 3); :meth:`union` implements that trade-off.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.constants import BloomConfig
from repro.utils.bitops import BitArray
from repro.bloom.hashing import HashFamily

__all__ = ["BloomFilter"]


class BloomFilter:
    """A k-hash Bloom filter over strings.

    Parameters
    ----------
    num_bits:
        Filter width in bits.
    num_hashes:
        Number of hash functions (bit positions per term).
    """

    __slots__ = ("hashes", "bits", "num_inserted", "version", "_compressed_cache")

    def __init__(self, num_bits: int, num_hashes: int = 2) -> None:
        self.hashes = HashFamily(num_bits, num_hashes)
        self.bits = BitArray(num_bits)
        #: count of insert calls (not distinct terms); used for FP estimates.
        self.num_inserted = 0
        #: monotonic mutation counter.  Every operation that may change the
        #: bit contents bumps it; caches (compressed bytes, directory
        #: matrices) key on ``(id(filter), version)`` to skip stale work.
        self.version = 0
        #: ``(version, blob)`` memo used by :mod:`repro.bloom.compress`.
        self._compressed_cache: tuple[int, bytes] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def paper_prototype(cls) -> "BloomFilter":
        """The prototype's fixed 50 KB, 2-hash filter (Section 7.1)."""
        cfg = BloomConfig()
        return cls(cfg.num_bits, cfg.num_hashes)

    @classmethod
    def with_capacity(
        cls, capacity: int, fp_rate: float = 0.05, num_hashes: int | None = None
    ) -> "BloomFilter":
        """Size a filter for ``capacity`` terms at target ``fp_rate``.

        If ``num_hashes`` is omitted the optimal count ``m/n * ln 2`` is
        used; otherwise the width is solved for the requested hash count.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        if num_hashes is None:
            num_bits = math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
            k = max(1, round(num_bits / capacity * math.log(2)))
            # Rounding k away from the optimum can nudge the rate just past
            # the target; widen the filter until the guarantee holds.
            while cls.theoretical_fp_rate(num_bits, k, capacity) > fp_rate:
                num_bits = math.ceil(num_bits * 1.05)
        else:
            k = num_hashes
            # Solve fp = (1 - e^{-kn/m})^k for m.
            inner = fp_rate ** (1.0 / k)
            num_bits = math.ceil(-k * capacity / math.log(1.0 - inner))
        return cls(max(8, num_bits), k)

    # -- core operations -------------------------------------------------------

    @property
    def num_bits(self) -> int:
        """Filter width in bits."""
        return self.hashes.num_bits

    @property
    def num_hashes(self) -> int:
        """Number of hash functions."""
        return self.hashes.num_hashes

    def touch(self) -> None:
        """Record a mutation: bump :attr:`version`, drop cached encodings.

        Called by every mutator here; callers that write :attr:`bits`
        directly must call it themselves to keep caches honest.
        """
        self.version += 1
        self._compressed_cache = None

    def add(self, term: str) -> None:
        """Insert one term."""
        self.bits.set_many(self.hashes.positions(term))
        self.num_inserted += 1
        self.touch()

    def add_many(self, terms: Iterable[str]) -> None:
        """Insert many terms (batched hashing + one vectorized bit-set)."""
        term_list = list(terms)
        if not term_list:
            return
        positions = self.hashes.positions_many(term_list)
        self.bits.set_many(positions.ravel())
        self.num_inserted += len(term_list)
        self.touch()

    def add_missing(self, terms: list[str]) -> list[str]:
        """Insert only the terms not already present; returns them.

        One hashing pass serves both the membership test and the insert,
        so publish/replay paths that need to know *whether* the filter
        grew (to bump its gossiped version) don't hash everything twice.
        """
        if not terms:
            return []
        positions = self.hashes.positions_many(terms)
        hits = self.bits.get_many(positions.ravel()).reshape(positions.shape)
        missing = np.flatnonzero(~hits.all(axis=1))
        if missing.size:
            self.bits.set_many(positions[missing].ravel())
            self.num_inserted += int(missing.size)
            self.touch()
        return [terms[i] for i in missing]

    def set_positions(self, positions: np.ndarray) -> None:
        """Set raw bit positions directly (diff application path)."""
        self.bits.set_many(positions)
        self.touch()

    def __contains__(self, term: str) -> bool:
        return bool(self.bits.get_many(self.hashes.positions(term)).all())

    def contains_all(self, terms: Iterable[str]) -> bool:
        """Whether every term may be present (conjunctive query check)."""
        term_list = list(terms)
        if not term_list:
            return True
        positions = self.hashes.positions_many(term_list)
        return bool(self.bits.get_many(positions.ravel()).all())

    def contains_each(self, terms: list[str]) -> np.ndarray:
        """Boolean per-term membership vector for ``terms``."""
        if not terms:
            return np.zeros(0, dtype=bool)
        positions = self.hashes.positions_many(terms)
        hits = self.bits.get_many(positions.ravel()).reshape(positions.shape)
        return hits.all(axis=1)

    # -- set algebra ------------------------------------------------------------

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Return a new filter representing the union of both term sets.

        This is the memory/accuracy trade-off of Section 2: a peer may merge
        the filters of several peers, at the cost of having to contact that
        whole set on any hit.
        """
        self._check_compatible(other)
        merged = BloomFilter(self.num_bits, self.num_hashes)
        merged.bits = self.bits.copy()
        merged.bits.union_inplace(other.bits)
        merged.num_inserted = self.num_inserted + other.num_inserted
        return merged

    def union_inplace(self, other: "BloomFilter") -> None:
        """Merge ``other`` into this filter."""
        self._check_compatible(other)
        self.bits.union_inplace(other.bits)
        self.num_inserted += other.num_inserted
        self.touch()

    def is_superset_of(self, other: "BloomFilter") -> bool:
        """Whether every bit set in ``other`` is set here."""
        self._check_compatible(other)
        return not np.any(other.bits.difference_words(self.bits))

    def _check_compatible(self, other: "BloomFilter") -> None:
        if self.hashes != other.hashes:
            raise ValueError("Bloom filters use incompatible hash families")

    # -- serialization -----------------------------------------------------------

    def to_compressed(self) -> bytes:
        """Golomb-compressed wire encoding (Section 7.1's gossip format)."""
        from repro.bloom.compress import compress_filter

        return compress_filter(self)

    @classmethod
    def from_compressed(
        cls, data: bytes, num_hashes: int = 2, num_inserted: int = 0
    ) -> "BloomFilter":
        """Inverse of :meth:`to_compressed` (hash count is community-wide
        metadata, not carried on the wire)."""
        from repro.bloom.compress import decompress_filter

        return decompress_filter(data, num_hashes=num_hashes, num_inserted=num_inserted)

    # -- accounting ----------------------------------------------------------------

    def bit_count(self) -> int:
        """Number of set bits."""
        return self.bits.count()

    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        return self.bit_count() / self.num_bits

    def false_positive_rate(self) -> float:
        """Estimated FP rate from the current fill ratio: ``fill**k``."""
        return self.fill_ratio() ** self.num_hashes

    @staticmethod
    def theoretical_fp_rate(num_bits: int, num_hashes: int, num_terms: int) -> float:
        """Classic FP-rate formula ``(1 - e^{-kn/m})^k``."""
        if num_bits <= 0 or num_hashes < 1 or num_terms < 0:
            raise ValueError("invalid Bloom filter parameters")
        return (1.0 - math.exp(-num_hashes * num_terms / num_bits)) ** num_hashes

    def approx_distinct_terms(self) -> float:
        """Estimate of distinct inserted terms from the fill ratio
        (the standard ``-m/k * ln(1 - fill)`` estimator)."""
        fill = self.fill_ratio()
        if fill >= 1.0:
            return float("inf")
        return -self.num_bits / self.num_hashes * math.log(1.0 - fill)

    def copy(self) -> "BloomFilter":
        """Deep copy."""
        dup = BloomFilter(self.num_bits, self.num_hashes)
        dup.bits = self.bits.copy()
        dup.num_inserted = self.num_inserted
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.hashes == other.hashes and self.bits == other.bits

    # Mutable with value equality: explicitly unhashable, so equal-but-
    # mutable filters can never land in sets or dict keys.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.num_bits}, hashes={self.num_hashes}, "
            f"fill={self.fill_ratio():.4f})"
        )
