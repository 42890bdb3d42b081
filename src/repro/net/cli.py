"""Command line for running a real PlanetP node.

Launch a node, optionally bootstrap into an existing community, publish a
directory of text files, and gossip until stopped::

    # first node of a community
    python -m repro.net --peer-id 0 --port 9301 --corpus ./docs

    # later nodes bootstrap off any member
    python -m repro.net --peer-id 1 --port 9302 \\
        --bootstrap 127.0.0.1:9301 --corpus ./more-docs

    # one-shot: join, converge briefly, run a ranked query, exit
    python -m repro.net --peer-id 2 --bootstrap 127.0.0.1:9301 \\
        --query "gossip protocols" --max-runtime 10

    # durable node: WAL + snapshots + directory checkpoint under ./state;
    # a crash or restart recovers documents and directory without
    # re-analyzing the corpus or re-fetching every Bloom filter
    python -m repro.net --peer-id 3 --port 9303 \\
        --bootstrap 127.0.0.1:9301 --corpus ./docs --data-dir ./state

Poll any live member's runtime metrics (gossip rounds, bytes on the
wire, Bloom compression, injected faults) without joining::

    python -m repro.net stats 127.0.0.1:9301
    python -m repro.net stats 127.0.0.1:9301 --grep bytes

Post a persistent query (paper Section 5.1) at a serving member and
print each upcall as matching documents are published anywhere in the
community::

    python -m repro.net subscribe 127.0.0.1:9301 "gossip protocols"
    python -m repro.net subscribe 127.0.0.1:9301 "bloom" --max-runtime 30

Retrieve a document's bytes from the content plane (``--replicas N``
on the serving nodes keeps N copies on the replica ring, so the fetch
works even after the publisher dies)::

    python -m repro.net get 127.0.0.1:9301 some/doc-id
    python -m repro.net get 127.0.0.1:9301 some/doc-id --out doc.txt

Mine the community (``--analytics`` on the serving nodes): ask any
member for its converged community-wide frequent-term estimate, or
browse the popularity-ranked global namespace (every path *is* a query
over the member's documents)::

    python -m repro.net top-terms 127.0.0.1:9301 --k 20
    python -m repro.net browse 127.0.0.1:9301 /gossip/protocols
"""

from __future__ import annotations

import argparse
import asyncio
import math
import os
import sys
from pathlib import Path

from repro.constants import (
    NET_DEFAULT_PORT,
    AnalyticsConfig,
    BloomConfig,
    ContentConfig,
    GossipConfig,
    NetConfig,
    PartialViewConfig,
    StoreConfig,
)
from repro.gossip.wire import (
    BrowseRequest,
    BrowseResponse,
    TopTermsReply,
    TopTermsRequest,
)
from repro.net import codec
from repro.net.chaos import EdgeFaults, FaultPlan, FaultyTransport
from repro.net.client import NetworkSearchClient
from repro.net.codec import StatsRequest, StatsResponse
from repro.net.node import NetworkPeer, read_checkpoint
from repro.net.transport import TcpTransport, Transport, TransportError
from repro.obs.metrics import format_non_finite
from repro.text.document import Document

__all__ = [
    "build_parser",
    "build_browse_parser",
    "build_get_parser",
    "build_stats_parser",
    "build_subscribe_parser",
    "build_top_terms_parser",
    "run",
    "run_browse",
    "run_get",
    "run_stats",
    "run_subscribe",
    "run_top_terms",
    "main",
]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.net`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Run a PlanetP peer over real TCP sockets.",
    )
    parser.add_argument("--peer-id", type=int, required=True, help="community-unique id (0..65535)")
    parser.add_argument("--host", default="127.0.0.1", help="address to bind (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=NET_DEFAULT_PORT,
        help=f"TCP port to listen on (default {NET_DEFAULT_PORT}; 0 = ephemeral)",
    )
    parser.add_argument(
        "--bootstrap", default=None, metavar="HOST:PORT",
        help="existing member to join through (omit for the first node)",
    )
    parser.add_argument(
        "--corpus", type=Path, default=None, metavar="DIR",
        help="publish every *.txt file under DIR, recursively "
             "(doc id = relative path without the suffix)",
    )
    parser.add_argument(
        "--data-dir", type=Path, default=None, metavar="DIR",
        help="persist the data store (WAL + snapshots) and directory "
             "checkpoint under DIR, and restart warm from it",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=StoreConfig().snapshot_every,
        metavar="N",
        help="WAL records between automatic snapshots under --data-dir "
             f"(default {StoreConfig().snapshot_every})",
    )
    parser.add_argument(
        "--no-fsync", action="store_true",
        help="skip the WAL fsync before acking publishes (trades crash "
             "durability of the newest records for throughput; useful for "
             "large single-host fleets)",
    )
    parser.add_argument(
        "--bloom-bits", type=int, default=BloomConfig().num_bits, metavar="BITS",
        help="Bloom filter size in bits — every member of a community must "
             f"agree on it (default {BloomConfig().num_bits}; smaller "
             "filters shrink per-member directory memory at large scale)",
    )
    parser.add_argument(
        "--bloom-hashes", type=int, default=BloomConfig().num_hashes, metavar="K",
        help=f"Bloom filter hash count (default {BloomConfig().num_hashes})",
    )
    parser.add_argument(
        "--gossip-interval", type=float, default=GossipConfig().base_interval_s,
        help="base gossip interval T_g in seconds (paper: 30)",
    )
    parser.add_argument(
        "--partial-view", action="store_true",
        help="keep full Bloom filters only for this node's directory shard "
             "plus a bounded sample; other shards are coarse OR-summaries "
             "(sublinear directory memory for very large communities)",
    )
    parser.add_argument(
        "--shards", type=int, default=PartialViewConfig().num_shards, metavar="N",
        help="directory shard count under --partial-view — every member of "
             f"a community must agree on it (default "
             f"{PartialViewConfig().num_shards})",
    )
    parser.add_argument(
        "--view-sample", type=int, default=PartialViewConfig().sample_size,
        metavar="M",
        help="out-of-shard full filters to sample under --partial-view "
             f"(default {PartialViewConfig().sample_size})",
    )
    parser.add_argument(
        "--replicas", type=int, default=ContentConfig().replicas, metavar="K",
        help="keep K copies of every published document on the content "
             "plane's consistent-hash ring (default "
             f"{ContentConfig().replicas}; 0 = serve own documents only)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=ContentConfig().chunk_size,
        metavar="BYTES",
        help="content-plane transfer chunk size "
             f"(default {ContentConfig().chunk_size})",
    )
    parser.add_argument(
        "--analytics", action="store_true",
        help="gossip mergeable term/popularity sketches each round and "
             "serve top-terms and browse requests (off by default)",
    )
    parser.add_argument(
        "--sketch-capacity", type=int,
        default=AnalyticsConfig().sketch_capacity, metavar="N",
        help="space-saving counters per node under --analytics "
             f"(default {AnalyticsConfig().sketch_capacity}; per-term "
             "error is bounded by local-terms/N)",
    )
    parser.add_argument(
        "--query", default=None, help="run one ranked query after joining, print the top-k, keep serving"
    )
    parser.add_argument("--top-k", type=int, default=10, help="k for --query (default 10)")
    parser.add_argument(
        "--max-runtime", type=float, default=None, metavar="SECONDS",
        help="exit after this many seconds (default: run forever)",
    )
    chaos = parser.add_argument_group(
        "chaos", "seeded fault injection on this node's outbound requests"
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="enable fault injection with this seed (off by default)",
    )
    chaos.add_argument(
        "--chaos-drop", type=float, default=0.1, metavar="P",
        help="per-request drop probability under --chaos-seed (default 0.1)",
    )
    chaos.add_argument(
        "--chaos-reset", type=float, default=0.0, metavar="P",
        help="mid-stream reset probability under --chaos-seed (default 0)",
    )
    chaos.add_argument(
        "--chaos-jitter", type=float, default=0.0, metavar="SECONDS",
        help="max added latency per request under --chaos-seed (default 0)",
    )
    return parser


def build_stats_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.net stats`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net stats",
        description="Poll a live peer's runtime metrics (its repro.obs registry).",
    )
    parser.add_argument("address", metavar="HOST:PORT", help="peer to poll")
    parser.add_argument(
        "--grep", default=None, metavar="SUBSTR",
        help="only print samples whose name contains SUBSTR",
    )
    return parser


def build_get_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.net get`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net get",
        description="Fetch a document's bytes from the content plane, "
        "verified against its manifest digest.",
    )
    parser.add_argument("address", metavar="HOST:PORT", help="any community member")
    parser.add_argument("doc_id", metavar="DOC_ID", help="document to fetch")
    parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write the bytes to FILE (default: print to stdout)",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-RPC deadline before falling back to the next replica "
        "(default 5)",
    )
    return parser


def build_top_terms_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.net top-terms`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net top-terms",
        description="Ask an analytics-serving peer for its converged "
        "community-wide frequent-term estimate.",
    )
    parser.add_argument("address", metavar="HOST:PORT", help="peer to ask")
    parser.add_argument(
        "--k", type=int, default=10, metavar="K",
        help="how many terms to print (default 10)",
    )
    return parser


def build_browse_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.net browse`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net browse",
        description="List one directory of the popularity-ranked global "
        "namespace at an analytics-serving peer (the path is the query).",
    )
    parser.add_argument("address", metavar="HOST:PORT", help="peer to ask")
    parser.add_argument("path", metavar="/PATH", help="directory to list, e.g. /gossip/protocols")
    parser.add_argument(
        "--k", type=int, default=20, metavar="K",
        help="how many entries to list (default 20)",
    )
    return parser


def build_subscribe_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.net subscribe`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net subscribe",
        description="Post a persistent query at a serving peer and print "
        "each upcall as matching documents are published.",
    )
    parser.add_argument("address", metavar="HOST:PORT", help="serving peer")
    parser.add_argument("query", help="conjunctive query terms")
    parser.add_argument(
        "--listen-host", default="127.0.0.1",
        help="address to receive upcalls on (default 127.0.0.1)",
    )
    parser.add_argument(
        "--listen-port", type=int, default=0,
        help="port to receive upcalls on (default: ephemeral)",
    )
    parser.add_argument(
        "--max-runtime", type=float, default=None, metavar="SECONDS",
        help="unsubscribe and exit after this many seconds "
        "(default: listen forever)",
    )
    return parser


async def run_subscribe(args: argparse.Namespace) -> None:
    """Post a standing query and print upcalls until stopped."""
    from repro.serve.subscriptions import SubscriptionClient

    client = SubscriptionClient(args.listen_host, args.listen_port)

    def upcall(notify) -> None:
        preview = " ".join(notify.text.split())[:72]
        print(f"notify sub={notify.sub_id} origin=peer-{notify.origin} "
              f"doc={notify.doc_id!r}: {preview}", flush=True)

    await client.start()
    try:
        sub_id = await client.subscribe(args.address, args.query, upcall)
        print(
            f"subscribed #{sub_id} at {args.address} for {args.query!r}; "
            f"upcalls to {client.address}",
            flush=True,
        )
        if args.max_runtime is not None:
            await asyncio.sleep(args.max_runtime)
            await client.unsubscribe(args.address, sub_id)
            print(f"unsubscribed #{sub_id}")
        else:
            while True:  # listen until interrupted
                await asyncio.sleep(3600.0)
    finally:
        await client.close()


async def run_get(args: argparse.Namespace) -> None:
    """Fetch one document via :class:`~repro.content.retrieval.ContentClient`."""
    from repro.content.retrieval import ContentClient
    from repro.store.chunkstore import ContentNotFound

    transport = TcpTransport(NetConfig())
    client = ContentClient(transport, request_timeout_s=args.timeout)
    try:
        try:
            data = await client.fetch([args.address], args.doc_id)
        except ContentNotFound as exc:
            raise TransportError(str(exc)) from None
    finally:
        await transport.close()
    if args.out is not None:
        args.out.write_bytes(data)
        print(f"wrote {len(data)} bytes of {args.doc_id!r} to {args.out}")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


async def _request_once(address: str, msg: object) -> object:
    """One encoded request/decoded reply against a raw address."""
    transport = TcpTransport(NetConfig())
    try:
        return await codec.call(transport, address, msg)
    finally:
        await transport.close()


async def run_top_terms(args: argparse.Namespace) -> None:
    """Print one peer's community-wide top-k term estimate."""
    reply = await _request_once(args.address, TopTermsRequest(args.k))
    if not isinstance(reply, TopTermsReply):
        raise TransportError(
            f"{args.address} answered with {type(reply).__name__} "
            f"(is it running with --analytics?)"
        )
    print(
        f"top {min(args.k, len(reply.entries))} terms at {args.address} "
        f"({reply.origin_count} origins merged):"
    )
    for term, count in reply.entries:
        print(f"  {term:24s} {count}")


async def run_browse(args: argparse.Namespace) -> None:
    """Print one popularity-ranked directory listing from a peer."""
    reply = await _request_once(args.address, BrowseRequest(args.path, args.k))
    if not isinstance(reply, BrowseResponse):
        raise TransportError(
            f"{args.address} answered with {type(reply).__name__} "
            f"(is it running with --analytics?)"
        )
    if not reply.found:
        raise SystemExit(f"error: {args.path!r} is not a browsable path")
    print(
        f"{reply.path} at {args.address} "
        f"(generation {reply.generation:#x}, {len(reply.entries)} entries):"
    )
    for doc_id, link, popularity in reply.entries:
        print(f"  {doc_id:32s} pop={popularity:<6d} {link}")


async def run_stats(args: argparse.Namespace) -> None:
    """Send one StatsRequest to ``args.address`` and print the samples."""
    reply = await _request_once(args.address, StatsRequest())
    if not isinstance(reply, StatsResponse):
        raise TransportError(
            f"{args.address} answered with {type(reply).__name__}, not stats"
        )
    print(f"peer {reply.peer_id} at {args.address}: uptime {reply.uptime_s:.1f}s")
    for name, value in reply.samples:
        if args.grep is not None and args.grep not in name:
            continue
        print(f"  {name} {_render_sample(value)}")


def _render_sample(value: float) -> str:
    """A stats sample for the terminal: integers bare, at most six
    decimals, non-finite values spelled as Prometheus spells them (a
    remote node may send any float)."""
    if not math.isfinite(value):
        return format_non_finite(value)
    if value == int(value):
        return str(int(value))
    return f"{value:.6f}".rstrip("0").rstrip(".")


def _load_corpus(node: NetworkPeer, corpus: Path) -> int:
    """Publish every ``*.txt`` under ``corpus`` (recursively).

    Doc ids are relative paths without the suffix, so nested corpora
    can't collide on file stems.  Files already in the store (a warm
    ``--data-dir`` restart) are skipped, as are unreadable paths — one
    bad file must not take down the node.  Undecodable bytes are
    replaced rather than fatal.
    """
    count = 0
    for path in sorted(corpus.rglob("*.txt")):
        doc_id = path.relative_to(corpus).with_suffix("").as_posix()
        if doc_id in node.peer.store:
            continue  # recovered from the data dir; don't re-publish
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            print(f"warning: skipping unreadable {path}: {exc}", file=sys.stderr)
            continue
        node.publish(Document(doc_id, text))
        count += 1
    return count


def _chaos_transport(args: argparse.Namespace) -> Transport | None:
    """A fault-injecting TCP transport when ``--chaos-seed`` was given."""
    if args.chaos_seed is None:
        return None
    plan = FaultPlan(
        seed=args.chaos_seed,
        default=EdgeFaults(
            drop_rate=args.chaos_drop,
            reset_rate=args.chaos_reset,
            latency_max_s=args.chaos_jitter,
        ),
    )
    return FaultyTransport(TcpTransport(NetConfig()), plan)


def _check_data_dir(data_dir: Path) -> None:
    """Refuse an existing-but-unreadable directory checkpoint.

    Checkpoint writes are atomic (tmp + rename), so a checkpoint that
    exists yet fails to parse is real damage or an older format or codec
    version, not a torn write.  The library layer would silently
    cold-start over it; at the CLI — where the operator explicitly asked
    for a warm restart — discarding state without saying so is worse
    than stopping, so fail with instructions.
    """
    ckpt_path = data_dir / "directory.ckpt"
    if ckpt_path.exists() and read_checkpoint(ckpt_path) is None:
        raise ValueError(
            f"corrupt directory checkpoint at {ckpt_path}; delete it to "
            f"cold-start from the WAL/snapshots (documents are unaffected)"
        )


async def run(args: argparse.Namespace) -> None:
    """Start a node per the parsed arguments and gossip until stopped."""
    config = GossipConfig(base_interval_s=args.gossip_interval)
    if args.data_dir is not None:
        _check_data_dir(args.data_dir)
    node = NetworkPeer(
        args.peer_id,
        args.host,
        args.port,
        gossip_config=config,
        bloom_config=BloomConfig(
            num_bits=args.bloom_bits, num_hashes=args.bloom_hashes
        ),
        transport=_chaos_transport(args),
        data_dir=args.data_dir,
        store_config=StoreConfig(
            snapshot_every=args.snapshot_every, fsync=not args.no_fsync
        )
        if args.data_dir is not None
        else None,
        partial_view=PartialViewConfig(
            num_shards=args.shards, sample_size=args.view_sample
        )
        if args.partial_view
        else None,
        content_config=ContentConfig(
            replicas=args.replicas, chunk_size=args.chunk_size
        ),
        analytics_config=AnalyticsConfig(sketch_capacity=args.sketch_capacity)
        if args.analytics
        else None,
    )
    address = await node.start()
    print(f"peer {args.peer_id} serving at {address}")
    if node.persistence is not None:
        recovery = node.persistence.last_recovery
        if recovery.documents or node.restored_members:
            print(
                f"warm start: {recovery.documents} documents recovered "
                f"({recovery.replayed_records} WAL records replayed), "
                f"{node.restored_members} members from checkpoint"
            )
    if args.chaos_seed is not None:
        print(
            f"chaos enabled: seed={args.chaos_seed} drop={args.chaos_drop} "
            f"reset={args.chaos_reset} jitter<={args.chaos_jitter}s"
        )
    if node.pview is not None:
        print(
            f"partial view: shards={args.shards} sample={args.view_sample} "
            f"home={node.pview.home}"
        )
    if node.content.active:
        print(
            f"content replication: k={args.replicas} "
            f"chunk-size={args.chunk_size}"
        )
    if node.analytics.enabled:
        print(f"analytics: sketch-capacity={args.sketch_capacity}")

    if args.corpus is not None:
        published = _load_corpus(node, args.corpus)
        print(f"published {published} documents from {args.corpus}")

    if args.bootstrap:
        if node.restored_members > 0:
            # The checkpoint already seeded the directory; the REJOIN
            # rumor minted at start re-introduces us, so a full join
            # snapshot transfer would be wasted bytes.
            print(
                f"warm rejoin: {node.restored_members} members from the "
                f"checkpoint; skipping bootstrap snapshot"
            )
        else:
            await node.join(args.bootstrap)
            print(f"joined via {args.bootstrap}: {len(node.membership)} members known")

    # One machine-readable line once the node is fully up (serving,
    # corpus published, joined): orchestrators parse it for the bound
    # ephemeral port instead of scraping the human-oriented output.
    print(
        f"PLANETP_READY peer={args.peer_id} addr={address} pid={os.getpid()} "
        f"members={len(node.membership)}",
        flush=True,
    )

    node.run()
    try:
        if args.query:
            # Give gossip a moment to converge before querying.
            await asyncio.sleep(min(2.0 * args.gossip_interval, 5.0))
            client = NetworkSearchClient(node)
            result = await client.ranked_search(args.query, k=args.top_k)
            print(f"ranked {args.query!r}: contacted {result.num_peers_contacted} peers")
            for doc in result.results:
                print(f"  {doc.doc_id:24s} score={doc.score:.3f}")
        if args.max_runtime is not None:
            await asyncio.sleep(args.max_runtime)
        else:
            while True:  # serve until interrupted
                await asyncio.sleep(3600.0)
    finally:
        await node.stop()
        print(f"peer {args.peer_id} stopped")


def main(argv: list[str] | None = None) -> None:
    """Console entry point: node daemon, or the ``stats`` subcommand."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] == "stats":
            asyncio.run(run_stats(build_stats_parser().parse_args(argv[1:])))
        elif argv and argv[0] == "top-terms":
            asyncio.run(run_top_terms(build_top_terms_parser().parse_args(argv[1:])))
        elif argv and argv[0] == "browse":
            asyncio.run(run_browse(build_browse_parser().parse_args(argv[1:])))
        elif argv and argv[0] == "get":
            asyncio.run(run_get(build_get_parser().parse_args(argv[1:])))
        elif argv and argv[0] == "subscribe":
            asyncio.run(run_subscribe(build_subscribe_parser().parse_args(argv[1:])))
        else:
            asyncio.run(run(build_parser().parse_args(argv)))
    except KeyboardInterrupt:
        pass
    except (ValueError, TransportError, OSError) as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    main()
