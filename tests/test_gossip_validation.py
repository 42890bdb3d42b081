"""Simulator-vs-reality validation: Table 2's Bloom-filter wire model
(``bloom_filter_bytes``) against the real Golomb encoding."""

from repro.bloom.compress import compressed_size
from repro.bloom.filter import BloomFilter
from repro.constants import bloom_filter_bytes


def real_bytes(num_keys):
    bf = BloomFilter.paper_prototype()
    bf.add_many([f"validation-key-{i}" for i in range(num_keys)])
    return compressed_size(bf)


class TestWireModel:
    def test_model_within_2x_of_real_compression(self):
        """Table 2's interpolated wire sizes and our actual Golomb
        compression agree to within a factor of two across the range the
        paper anchors (1000 and 20000 keys)."""
        for n in (1000, 5000, 10000, 20000):
            ratio = real_bytes(n) / bloom_filter_bytes(n)
            assert 0.5 <= ratio <= 2.0, (n, ratio)

    def test_real_size_monotone_in_keys(self):
        sizes = [real_bytes(n) for n in (1000, 5000, 20000)]
        assert sizes == sorted(sizes)

    def test_anchors_order_of_magnitude(self):
        """1000 keys ≈ 3 KB and 20000 keys ≈ 16 KB in the paper; our real
        encodings land in the same order of magnitude."""
        assert 1000 < real_bytes(1000) < 10_000
        assert 8_000 < real_bytes(20000) < 64_000
