"""A compact, numpy-backed bit array.

This is the storage substrate for Bloom filters and the Golomb bit streams.
Bits are packed into a ``uint64`` word array; all bulk operations (union,
intersection, popcount, set-many) are vectorized per the HPC guide's
"vectorize the inner loop" rule, so a 400 Kbit filter costs a handful of
numpy calls rather than 400 K Python iterations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitArray"]

_WORD_BITS = 64

# Hardware popcount (numpy >= 2.0); fall back to bit-unpacking without it.
_popcount = getattr(np, "bitwise_count", None)


class BitArray:
    """Fixed-size array of bits packed into 64-bit words.

    Parameters
    ----------
    num_bits:
        Total number of addressable bits.
    words:
        Optional pre-existing word buffer (shared, not copied) whose length
        must be ``ceil(num_bits / 64)``.
    """

    __slots__ = ("num_bits", "words")

    def __init__(self, num_bits: int, words: np.ndarray | None = None) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        self.num_bits = int(num_bits)
        num_words = (self.num_bits + _WORD_BITS - 1) // _WORD_BITS
        if words is None:
            self.words = np.zeros(num_words, dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (num_words,):
                raise ValueError("words buffer has wrong dtype or shape")
            self.words = words

    # -- single-bit access -------------------------------------------------

    def set(self, index: int) -> None:
        """Set bit ``index`` to 1."""
        self._check(index)
        self.words[index >> 6] |= np.uint64(1) << np.uint64(index & 63)

    def clear(self, index: int) -> None:
        """Set bit ``index`` to 0."""
        self._check(index)
        self.words[index >> 6] &= ~(np.uint64(1) << np.uint64(index & 63))

    def get(self, index: int) -> bool:
        """Return whether bit ``index`` is set."""
        self._check(index)
        return bool((self.words[index >> 6] >> np.uint64(index & 63)) & np.uint64(1))

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_bits:
            raise IndexError(f"bit index {index} out of range [0, {self.num_bits})")

    # -- bulk access --------------------------------------------------------

    def set_many(self, indices: np.ndarray) -> None:
        """Set all bits at ``indices`` (vectorized; duplicates allowed)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.num_bits:
            raise IndexError("bit index out of range")
        np.bitwise_or.at(
            self.words, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64)
        )

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        """Return a boolean array of the bits at ``indices`` (vectorized)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        if idx.min() < 0 or idx.max() >= self.num_bits:
            raise IndexError("bit index out of range")
        return (
            (self.words[idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1)
        ).astype(bool)

    def set_bit_positions(self) -> np.ndarray:
        """Return the sorted positions of all set bits."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        positions = np.nonzero(bits[: self.num_bits])[0]
        return positions.astype(np.int64)

    # -- whole-array operations ----------------------------------------------

    def count(self) -> int:
        """Population count (number of set bits)."""
        if _popcount is not None:
            return int(_popcount(self.words).sum())
        return int(np.unpackbits(self.words.view(np.uint8)).sum())

    def union_inplace(self, other: "BitArray") -> None:
        """Bitwise OR ``other`` into this array."""
        self._check_compatible(other)
        np.bitwise_or(self.words, other.words, out=self.words)

    def intersection_inplace(self, other: "BitArray") -> None:
        """Bitwise AND ``other`` into this array."""
        self._check_compatible(other)
        np.bitwise_and(self.words, other.words, out=self.words)

    def difference_words(self, other: "BitArray") -> np.ndarray:
        """Return ``self & ~other`` as a raw word buffer (bits newly set
        here relative to ``other``)."""
        self._check_compatible(other)
        return self.words & ~other.words

    def _check_compatible(self, other: "BitArray") -> None:
        if self.num_bits != other.num_bits:
            raise ValueError(
                f"bit arrays differ in size: {self.num_bits} vs {other.num_bits}"
            )

    def copy(self) -> "BitArray":
        """Deep copy."""
        return BitArray(self.num_bits, self.words.copy())

    def clear_all(self) -> None:
        """Reset every bit to 0."""
        self.words[:] = 0

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Raw little-endian word buffer."""
        return self.words.tobytes()

    @classmethod
    def from_bytes(cls, num_bits: int, data: bytes) -> "BitArray":
        """Inverse of :meth:`to_bytes`."""
        words = np.frombuffer(data, dtype=np.uint64).copy()
        return cls(num_bits, words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self.num_bits == other.num_bits and bool(
            np.array_equal(self.words, other.words)
        )

    # Mutable with value equality: explicitly unhashable (same rationale as
    # BloomFilter — equal-but-mutable arrays must not land in sets/dicts).
    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return self.num_bits

    def __repr__(self) -> str:
        return f"BitArray(num_bits={self.num_bits}, set={self.count()})"
