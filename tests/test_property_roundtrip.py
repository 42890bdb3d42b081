"""Property-based round-trips: seeded random cases, 200+ per property.

Pure stdlib ``random`` (no hypothesis dependency needed at runtime): each
test prints nothing on success and embeds SEED plus the case index in
every failure message, so any counterexample reproduces exactly.
"""

import random
import string

import pytest

from repro.bloom.compress import compress_filter, decompress_filter
from repro.bloom.filter import BloomFilter
from repro.bloom.golomb import GolombDecoder, GolombEncoder
from repro.gossip.schema import Spec
from repro.gossip.wire import ROWS
from repro.net.codec import RankedQuery, decode, encode

pytestmark = pytest.mark.chaos

SEED = 20260806
CASES = 200


# ---------------------------------------------------------------------------
# Golomb coding
# ---------------------------------------------------------------------------


def _random_values(rng: random.Random) -> list[int]:
    dist = rng.randrange(4)
    n = rng.randrange(0, 200)
    if dist == 0:  # small gaps, the common Bloom case
        return [rng.randrange(0, 16) for _ in range(n)]
    if dist == 1:  # geometric-ish: what Golomb is optimal for
        return [min(int(rng.expovariate(0.1)), 10_000) for _ in range(n)]
    if dist == 2:  # wide uniform
        return [rng.randrange(0, 1 << 20) for _ in range(n)]
    return [0] * n  # degenerate all-zero run


def test_golomb_roundtrip_random_streams():
    rng = random.Random(f"{SEED}-golomb")
    for case in range(CASES + 50):
        m = rng.randrange(1, 513)
        values = _random_values(rng)
        encoder = GolombEncoder(m)
        encoder.encode_many(values)
        decoded = GolombDecoder(m, encoder.getvalue()).decode_many(len(values))
        assert decoded == values, f"seed={SEED} case={case} m={m}"


# ---------------------------------------------------------------------------
# Bloom filter compression
# ---------------------------------------------------------------------------


def _random_term(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=rng.randrange(1, 12)))


def test_bloom_compress_roundtrip_random_filters():
    rng = random.Random(f"{SEED}-bloom")
    for case in range(CASES):
        num_bits = rng.choice([64, 256, 1024, 8192, 65536])
        num_hashes = rng.randrange(1, 5)
        bf = BloomFilter(num_bits, num_hashes)
        bf.add_many(_random_term(rng) for _ in range(rng.randrange(0, 300)))
        blob = compress_filter(bf)
        back = decompress_filter(blob, num_hashes, bf.num_inserted)
        assert back == bf, f"seed={SEED} case={case} bits={num_bits}"
        assert back.bit_count() == bf.bit_count()
        # The method pair is the same codec.
        assert BloomFilter.from_compressed(bf.to_compressed(), num_hashes) == bf


def test_bloom_compress_roundtrip_extremes():
    empty = BloomFilter(512, 2)
    assert decompress_filter(compress_filter(empty)) == empty
    full = BloomFilter(512, 2)
    full.add_many(f"t{i}" for i in range(5000))  # near-saturated
    assert decompress_filter(compress_filter(full)) == full


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------


_ALPHABET = string.printable + "éèüßλ中文"
_INT_BITS = {"u8": 8, "u16": 16, "u32": 32, "u64": 64, "rid": 48}


def _text(rng: random.Random) -> str:
    return "".join(rng.choices(_ALPHABET, k=rng.randrange(0, 40)))


def random_value(spec: Spec, rng: random.Random):
    """A random value of ``spec``'s type, built by walking its structure —
    so every row of the wire table is generated without a per-type builder."""
    kind, parts = spec.kind, spec.parts
    if kind in _INT_BITS:
        return rng.randrange(0, 1 << _INT_BITS[kind])
    if kind == "f64":  # arbitrary doubles ride the wire exactly
        return rng.choice([0.0, round(rng.uniform(0.0, 1e9), 6), rng.uniform(-50.0, 50.0)])
    if kind == "bool":
        return rng.random() < 0.5
    if kind in ("text", "doctext"):
        return _text(rng)
    if kind == "blob":
        return rng.randbytes(rng.randrange(0, 64))
    if kind == "enum":
        return rng.choice(parts[0])
    if kind == "seq":
        item = parts[0]  # 0-8 items: under every max_items cap in the table
        return tuple(random_value(item, rng) for _ in range(rng.randrange(0, 9)))
    if kind == "tup":
        return tuple(random_value(item, rng) for item in parts)
    assert kind == "record", kind
    cls, layout = parts
    values = {}
    for name, field in layout:
        if field.kind == "when":  # present iff the earlier flag field is set
            flag, field = field.parts
            if not values[flag]:
                values[name] = None
                continue
        values[name] = random_value(field, rng)
    return cls(**values)


def _random_message(rng: random.Random):
    return random_value(rng.choice(ROWS).body, rng)


def test_codec_roundtrip_random_messages():
    rng = random.Random(f"{SEED}-codec")
    for case in range(CASES + 100):
        msg = _random_message(rng)
        back = decode(encode(msg))
        assert back == msg, f"seed={SEED} case={case} type={type(msg).__name__}"


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.cls.__name__)
def test_every_row_roundtrips_and_is_priced_at_its_width(row):
    # The width walk (the model size of the non-Table-2 types) and the
    # minimum size (the u32-count guard) come from the same layout as the
    # encoding: apart from member records, which the model prices flat,
    # width is exactly the encoded length; no body is under min_bytes.
    rng = random.Random(f"{SEED}-{row.cls.__name__}")
    for case in range(CASES // 4):
        msg = random_value(row.body, rng)
        frame = encode(msg)
        context = f"seed={SEED} case={case}"
        assert decode(frame) == msg, context
        body_bytes = len(frame) - 2  # minus version and type bytes
        assert body_bytes >= row.body.min_bytes, context
        width = row.body.width(msg, 0)
        if row.body.width(msg, 1) == width:  # no member record inside
            assert width == body_bytes, context
        else:
            assert width < body_bytes, context


def test_ranked_query_ipf_precision_survives_f64():
    # IPF weights ride the wire as f64: arbitrary doubles must round-trip.
    rng = random.Random(f"{SEED}-ipf")
    for case in range(CASES):
        q = RankedQuery(("t",), (("t", rng.uniform(0.0, 50.0)),), 5)
        assert decode(encode(q)) == q, f"seed={SEED} case={case}"
