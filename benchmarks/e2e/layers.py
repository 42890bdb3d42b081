"""``--layers``: direct single-thread drives of public functions.

Each layer's public entry point is called in a tight loop on the
workload's own generated inputs (same seed, same generators), with no
fleet, no sockets but the one echo pair, and nothing else running.
These are the per-message and per-byte costs underneath the end-to-end
figures — the frames/s and chunk-MB/s baseline the transport and codec
work is judged against — at the smallest frame, where per-message cost
dominates, and at chunk size.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (puts src/ on sys.path)

import asyncio
import itertools
import shutil
import statistics
import time
from typing import Callable

import inputs
from repro.bloom.compress import compress_filter
from repro.bloom.diff import diff_filters
from repro.bloom.filter import BloomFilter
from repro.bloom.matcher import FilterMatrix
from repro.constants import BloomConfig
from repro.core.peer import PlanetPPeer
from repro.core.search import score_local_documents
from repro.gossip.rumor import RumorKind
from repro.gossip.wire import ChunkReply, RumorData, WireRumor
from repro.net import codec
from repro.net.codec import RankedQuery, RankedResponse
from repro.net.transport import TcpTransport
from repro.obs import Registry
from repro.store.chunkstore import ChunkStore
from repro.store.wal import WriteAheadLog
from repro.text.analyzer import Analyzer

#: seconds each tight loop runs (five timed batches inside it).
BUDGET_S = 0.2


def per_call_s(fn: Callable[[], object], budget_s: float = BUDGET_S) -> float:
    """Median-of-batches seconds per call of ``fn``."""
    started = time.perf_counter()
    fn()
    once = max(time.perf_counter() - started, 1e-7)
    batch = max(1, int(budget_s / 5 / once))
    batches = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(batch):
            fn()
        batches.append((time.perf_counter() - started) / batch)
    return statistics.median(batches)


def _node_filter(docs, analyzer: Analyzer) -> BloomFilter:
    bf = BloomFilter(65536, 2)
    for doc in docs:
        bf.add_many(analyzer.analyze(doc.text))
    return bf


def _codec(seed: int) -> dict[str, float]:
    terms = tuple(inputs.distinct_queries(seed, 1)[0].split())
    scenario = inputs.scenario(seed)
    analyzer = Analyzer()
    old = _node_filter(scenario.corpus[0], analyzer)
    rumors = []
    for i, (_pid, _mark, doc) in enumerate(itertools.islice(inputs.ingest_docs(seed, 0), 3)):
        new = old.copy()
        new.add_many(analyzer.analyze(doc.text))
        payload = codec.encode_update_payload(i + 1, diff_filters(old, new).to_bytes())
        rumors.append(WireRumor((7 << 32) | i, RumorKind.BF_UPDATE, 7, 12.5 + i, payload))
        old = new
    messages = {
        "ranked_query": RankedQuery(
            terms, tuple((t, 1.0 + i / 7) for i, t in enumerate(terms)), 10
        ),
        "ranked_response": RankedResponse(
            tuple((f"n{i:04d}-d{i}", 0.9 - i / 20) for i in range(10))
        ),
        "rumor_data": RumorData(tuple(rumors)),
        "chunk_reply_64k": ChunkReply(
            True, "blob-0", 0, 0, 65536, inputs.blobs(seed)[0][1].text.encode()[:65536]
        ),
    }
    out = {}
    for name, msg in messages.items():
        if codec.decode(codec.encode(msg)) != msg:
            raise AssertionError(f"codec round trip changed {name}")
        out[f"net.codec.frames_per_s.{name}"] = 1.0 / per_call_s(
            lambda msg=msg: codec.decode(codec.encode(msg))
        )
    return out


async def _transport() -> dict[str, float]:
    """A ``TcpTransport`` pair over loopback in this one process: the
    round trip includes both ends' framing and both event-loop hops."""
    server, client = TcpTransport(), TcpTransport()

    async def echo(body: bytes) -> bytes:
        return body

    address = await server.serve("127.0.0.1:0", echo)
    try:
        out = {}
        for label, size in (("16B", 16), ("64KiB", 65536)):
            body = bytes(size)
            for _ in range(20):
                await client.request(address, body)
            batches = []
            count = 200 if size == 16 else 60
            for _ in range(5):
                started = time.perf_counter()
                for _ in range(count):
                    await client.request(address, body)
                batches.append((time.perf_counter() - started) / count)
            rtt = statistics.median(batches)
            if size == 16:
                out[f"net.transport.echo_rtt_us.{label}"] = 1e6 * rtt
            else:
                out[f"net.transport.echo_MBps.{label}"] = 2 * size / 1e6 / rtt
        return out
    finally:
        await client.close()
        await server.close()


def _bloom(seed: int) -> dict[str, float]:
    scenario = inputs.scenario(seed)
    analyzer = Analyzer()
    filters = [_node_filter(docs, analyzer) for docs in scenario.corpus]
    terms = inputs.distinct_queries(seed, 1)[0].split()
    out = {}
    for size in (12, 500):
        matrix = FilterMatrix()
        for pid in range(size):
            matrix.update(pid, filters[pid % len(filters)])
        out[f"bloom.matcher.hit_matrix_us.{size}"] = 1e6 * per_call_s(
            lambda matrix=matrix: matrix.hit_matrix(terms)
        )
    out["bloom.compress.encode_us"] = 1e6 * per_call_s(
        lambda: compress_filter(filters[0], use_cache=False)
    )
    grown = filters[0].copy()
    grown.add_many(analyzer.analyze(next(inputs.ingest_docs(seed, 0))[2].text))
    out["bloom.diff.encode_us"] = 1e6 * per_call_s(
        lambda: diff_filters(filters[0], grown).to_bytes()
    )
    return out


def _write_path(seed: int) -> dict[str, float]:
    docs = [doc for _p, _m, doc in itertools.islice(inputs.ingest_docs(seed, 0), 400)]
    analyzer = Analyzer()
    feed = itertools.cycle(docs)
    out = {
        "text.analyzer.docs_per_s": 1.0 / per_call_s(
            lambda: analyzer.term_frequencies(next(feed).text)
        )
    }
    # Publishing a document id twice is refused, so this loop is bounded
    # by the documents generated rather than by time.
    peer = PlanetPPeer(0, bloom_config=BloomConfig(num_bits=65536, num_hashes=2))
    started = time.perf_counter()
    for doc in docs[:150]:
        peer.publish(doc)
    out["core.peer.publish_docs_per_s"] = 150 / (time.perf_counter() - started)

    root = _bootstrap.WORK / f"layers-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        wal = WriteAheadLog(root / "wal.log", fsync=False, registry=Registry())
        wal.open()
        seq = itertools.count(1)
        record_feed = itertools.cycle(
            {"op": "publish", "id": d.doc_id, "fv": 1, "text": d.text,
             "tf": dict(analyzer.term_frequencies(d.text))}
            for d in docs[:50]
        )
        out["store.wal.append_us"] = 1e6 * per_call_s(
            lambda: wal.append({**next(record_feed), "seq": next(seq)})
        )
        wal.close()

        # Durable chunk store, as the ingest nodes run it: every chunk is
        # an atomic write with its fsyncs, so this is one timed pass.
        blob = inputs.blobs(seed)[0][1].text.encode()
        store = ChunkStore(root / "chunks")
        started = time.perf_counter()
        store.ingest("blob-0", 0, blob, 65536)
        out["store.chunkstore.put_MBps"] = len(blob) / 1e6 / (time.perf_counter() - started)
        cold = ChunkStore(root / "chunks")  # nothing cached: reads, CRCs, digest
        started = time.perf_counter()
        data = cold.read_doc("blob-0")
        out["store.chunkstore.read_MBps"] = len(blob) / 1e6 / (time.perf_counter() - started)
        if data != blob:
            raise AssertionError("chunk store returned different bytes")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def _scoring(seed: int) -> dict[str, float]:
    config = BloomConfig(num_bits=65536, num_hashes=2)
    corpus = [d for s in (seed, seed + 1) for docs in inputs.scenario(s).corpus for d in docs]
    terms = inputs.distinct_queries(seed, 1)[0].split()
    ipf = {t: 1.0 + i / 7 for i, t in enumerate(terms)}
    out = {}
    for size in (20, 400):
        peer = PlanetPPeer(0, bloom_config=config)
        for i, doc in enumerate(corpus[:size]):
            peer.publish(type(doc)(f"d{i}", doc.text))
        index = peer.store.index
        out[f"core.search.score_local_us.{size}docs"] = 1e6 * per_call_s(
            lambda index=index: score_local_documents(index, terms, ipf, inputs.TOP_K)
        )
    return out


async def drive(seed: int, say=lambda _msg: None) -> dict[str, float]:
    """Every direct-drive figure, by per-layer metric name."""
    started = time.perf_counter()
    out = {}
    out.update(_codec(seed))
    out.update(await _transport())
    out.update(_bloom(seed))
    out.update(_write_path(seed))
    out.update(_scoring(seed))
    say(f"layers: {len(out)} direct-drive figures in {time.perf_counter() - started:.1f}s")
    return out
