"""Seeded inputs: corpora, queries, documents, blobs.

Everything the system under test ever receives is made here from one
integer seed with ``random.Random`` — no clocks, no host names — so the
same ``--seed`` gives bit-identical inputs and two runs differ only by
what the machine did.  Tokens are ``term0007``-style (alphanumeric,
stop-word free, fixed points of the Porter stemmer) exactly like
:mod:`repro.fleet.scenario`, so what is published is what is indexed.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (puts src/ on sys.path)

import itertools
import random
from bisect import bisect_left

from repro.fleet.scenario import FleetSpec, Scenario
from repro.text.document import Document

NUM_NODES = 12
DOCS_PER_NODE = 20
TERMS_PER_DOC = 30
VOCAB_SIZE = 400
#: queries draw from the most popular terms only, so ranked search has
#: to contact most of the community (≈ 10 of 12 peers per query).
QUERY_VOCAB = 150
INGEST_VOCAB = 2000
INGEST_TERMS = 250
BLOB_BYTES = 4 * 1024 * 1024
NUM_BLOBS = 4
ZIPF_QUERIES = 200
TOP_K = 10


def vocab(size: int) -> list[str]:
    """``term0000`` … in popularity order (rank 0 is the most popular)."""
    return [f"term{i:04d}" for i in range(size)]


class Zipf:
    """Rank sampler with P(rank r) ∝ 1 / (r + 1) ** s over ``n`` ranks."""

    def __init__(self, n: int, s: float = 1.0) -> None:
        weights = [1.0 / (r + 1) ** s for r in range(n)]
        self._cum = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> int:
        return bisect_left(self._cum, rng.random() * self._cum[-1])


def fleet_spec(seed: int) -> FleetSpec:
    """The one fleet shape every workload runs on (what ``Fleet`` ships:
    0.25 s gossip, 64 Kbit / 2-hash filters, flat directory, 2 replicas)."""
    return FleetSpec(
        num_nodes=NUM_NODES,
        seed=seed,
        gossip_interval_s=0.25,
        bloom_bits=65536,
        bloom_hashes=2,
        docs_per_node=DOCS_PER_NODE,
        terms_per_doc=TERMS_PER_DOC,
        vocab_size=VOCAB_SIZE,
        num_queries=0,
        top_k=TOP_K,
        num_waves=0,
        num_crashes=0,
        replicas=2,
    )


def scenario(seed: int, durable: bool = False) -> Scenario:
    """12 nodes × 20 documents × 30 Zipf(1) terms from a 400-term
    vocabulary, plus one node-unique term per document.  ``durable``
    launches every node with ``--data-dir --no-fsync`` (``Fleet`` does
    that for the crash set, so the crash set is everyone; nobody is
    crashed)."""
    rng = random.Random(seed)
    terms = vocab(VOCAB_SIZE)
    zipf = Zipf(VOCAB_SIZE)
    corpus = []
    for pid in range(NUM_NODES):
        docs = []
        for d in range(DOCS_PER_NODE):
            words = [terms[zipf.draw(rng)] for _ in range(TERMS_PER_DOC)]
            words.append(f"uniq{pid:04d}x{d}")
            rng.shuffle(words)
            docs.append(Document(f"n{pid:04d}-d{d}", " ".join(words)))
        corpus.append(tuple(docs))
    return Scenario(
        spec=fleet_spec(seed),
        corpus=tuple(corpus),
        queries=(),
        waves=(),
        crash_pids=tuple(range(NUM_NODES)) if durable else (),
    )


def distinct_queries(seed: int, count: int, terms_per_query: int = 3) -> list[str]:
    """``count`` queries over the popular terms, no two with the same
    term set — every one misses the result cache."""
    rng = random.Random(seed ^ 0xD157)
    popular = vocab(QUERY_VOCAB)
    seen: set[tuple[str, ...]] = set()
    out = []
    while len(out) < count:
        picked = rng.sample(popular, terms_per_query)
        key = tuple(sorted(picked))
        if key not in seen:
            seen.add(key)
            out.append(" ".join(picked))
    return out


def zipf_query_stream(seed: int, count: int) -> tuple[list[str], list[int]]:
    """200 fixed 2-term queries and a Zipf(1) stream of ``count``
    indices into them (rank 0 is asked most)."""
    fixed = distinct_queries(seed ^ 0x21BF, ZIPF_QUERIES, terms_per_query=2)
    rng = random.Random(seed ^ 0x57EA)
    zipf = Zipf(ZIPF_QUERIES)
    return fixed, [zipf.draw(rng) for _ in range(count)]


def marker(seed: int, tag: str, i: int) -> str:
    """A term carried by exactly one published document."""
    return f"mk{tag}{seed % 10_000:04d}x{i:05d}"


def marker_docs(seed: int, count: int) -> list[tuple[int, str, Document]]:
    """``(node, marker, doc)`` for the publish stream beside queries.

    Besides its marker a document carries ten terms from a vocabulary of
    its own: each publish grows the node's filter and so moves the
    directory generation, but no answer to the fixed queries changes —
    the recall check stays exact throughout the window."""
    rng = random.Random(seed ^ 0x9B11)
    out = []
    for i in range(count):
        mark = marker(seed, "p", i)
        words = [mark] + [f"pub{rng.randrange(5000):04d}" for _ in range(10)]
        out.append((rng.randrange(NUM_NODES), mark, Document(f"pub-{i:05d}", " ".join(words))))
    return out


def ingest_docs(seed: int, client: int):
    """Endless ``(node, marker, doc)`` stream of ~2 KB documents for one
    closed-loop publisher: 250 uniform terms from a 2000-term vocabulary
    plus the marker."""
    rng = random.Random((seed ^ 0x1E57) * 31 + client)
    terms = vocab(INGEST_VOCAB)
    for i in itertools.count():
        mark = marker(seed, f"i{client}", i)
        words = [mark] + rng.choices(terms, k=INGEST_TERMS)
        yield rng.randrange(NUM_NODES), mark, Document(f"ing{client}-{i:06d}", " ".join(words))


def blobs(seed: int) -> list[tuple[int, Document]]:
    """Four 4 MiB documents.  The body is one unbroken hex run — longer
    than the tokenizer's 40-character limit, so indexing sees only the
    two leading words and the cost measured is the content plane's.
    The bytes come from the seed; the origins do not (nodes 1, 4, 7, 10):
    with four documents, two that happen to share an origin would halve
    the nodes serving them and move ``fetch_MBps`` by a quarter."""
    rng = random.Random(seed ^ 0xB10B)
    out = []
    for i in range(NUM_BLOBS):
        head = f"{marker(seed, 'b', i)} blobdoc "
        body = rng.randbytes((BLOB_BYTES - len(head)) // 2).hex()
        out.append((1 + 3 * i, Document(f"blob-{i}", head + body)))
    return out
