#!/usr/bin/env python
"""Restart benchmark: cold rebuild vs warm repro.store recovery.

Two costs a restarting PlanetP node pays without persistence, measured
against the ``repro.store`` warm paths that remove them:

* **restart** — time to bring the local store back: re-analyzing and
  re-indexing every document (cold, the Analyzer pipeline), vs replaying
  the WAL's persisted term frequencies (warm/wal), vs loading the newest
  snapshot wholesale (warm/snapshot).  Neither warm path runs the
  Analyzer at all.
* **rejoin** — directory bytes the restarted node itself sends and
  receives until the community sees it online again at its new address:
  a cold join (full ``JoinSnapshot`` transfer: every member's record and
  compressed Bloom filter) vs a warm rejoin seeded from the directory
  checkpoint (one REJOIN rumor and digest-level anti-entropy).

Usage::

    PYTHONPATH=src python benchmarks/bench_store_restart.py --write BENCH_store.json
    PYTHONPATH=src python benchmarks/bench_store_restart.py --quick --check BENCH_store.json

``--check`` compares *ratios* (speedups, byte fractions), not absolute
times, so a baseline committed from one machine is meaningful on CI
hardware.  Hard floors: both warm restart paths must beat a cold rebuild
(>= 2x), and a warm rejoin must gossip fewer bytes than a cold join.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.constants import StoreConfig
from repro.core.datastore import LocalDataStore
from repro.corpus.synthetic import generate_collection
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.store.persistent_store import PersistentDataStore
from repro.text.document import Document

#: Hard floors (ratios) from the issue's acceptance criteria.
FLOORS = {
    ("restart", "speedup_wal"): 2.0,
    ("restart", "speedup_snapshot"): 2.0,
    ("rejoin", "warm_fraction"): 1.0,  # upper bound: warm must be cheaper
}

FAST_STORE = StoreConfig(fsync=False)


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _synthetic_corpus(num_docs: int, rng: np.random.Generator) -> list[Document]:
    """The repo's Zipf/topic-model corpus, so cold Analyzer cost is
    representative of real text (stemming, stopwords, skewed repeats)."""
    collection = generate_collection(
        "bench-restart",
        num_documents=num_docs,
        vocabulary_size=max(2000, num_docs * 10),
        num_queries=0,
        seed=rng,
    )
    return collection.documents


# -- restart: cold rebuild vs WAL replay vs snapshot load ---------------------


def bench_restart(num_docs: int, repeats: int, rng: np.random.Generator) -> dict:
    docs = _synthetic_corpus(num_docs, rng)

    def cold_rebuild() -> LocalDataStore:
        store = LocalDataStore()
        for doc in docs:
            store.publish(doc)
        return store

    with tempfile.TemporaryDirectory() as tmp:
        wal_dir = Path(tmp) / "wal-only"
        seeded = PersistentDataStore(
            wal_dir, LocalDataStore(), config=FAST_STORE, registry=Registry()
        )
        for doc in docs:
            seeded.store.publish(doc)
        reference = seeded.store.bloom_filter.copy()
        seeded.close(snapshot=False)  # leave every record in the WAL

        snap_dir = Path(tmp) / "snapshotted"
        seeded = PersistentDataStore(
            snap_dir, LocalDataStore(), config=FAST_STORE, registry=Registry()
        )
        for doc in docs:
            seeded.store.publish(doc)
        seeded.close()  # final snapshot: recovery is a pure load

        def recover(data_dir: Path) -> None:
            journal = PersistentDataStore(
                data_dir, LocalDataStore(), config=FAST_STORE, registry=Registry()
            )
            assert len(journal.store) == num_docs
            assert journal.store.bloom_filter == reference
            journal.close(snapshot=False)  # keep the dir's shape for repeats

        cold_s = _best_seconds(cold_rebuild, repeats)
        warm_wal_s = _best_seconds(lambda: recover(wal_dir), repeats)
        warm_snap_s = _best_seconds(lambda: recover(snap_dir), repeats)

    return {
        "num_docs": num_docs,
        "cold_publish_s": cold_s,
        "warm_wal_s": warm_wal_s,
        "warm_snapshot_s": warm_snap_s,
        "speedup_wal": cold_s / warm_wal_s,
        "speedup_snapshot": cold_s / warm_snap_s,
    }


# -- rejoin: directory bytes with vs without a checkpoint ---------------------


def bench_rejoin(num_peers: int, rng: np.random.Generator) -> dict:
    """Directory bytes the (re)joining node itself sends and receives
    until the community sees it online again.

    Measured from the node's own transport counters, not the whole
    fabric: while the REJOIN/JOIN news spreads, the other peers keep
    gossiping among themselves, and that steady-state background traffic
    scales with community size and convergence rounds — it is not a cost
    of joining.  What the checkpoint avoids is the node's own bill: the
    full ``JoinSnapshot`` (every member record and compressed filter).
    """

    def _node_bytes(registry: Registry) -> int:
        return int(
            registry.value("transport", "bytes_sent_total")
            + registry.value("transport", "bytes_recv_total")
        )

    async def _converge(node: NetworkPeer, others: list[NetworkPeer]) -> None:
        for _ in range(30):
            await node.gossip_round()
            for other in others:
                await other.gossip_round()
            views = [o.peer.directory.get(node.peer_id) for o in others]
            if all(
                e is not None
                and e.address == node.address
                and o.membership.is_online(node.peer_id)
                for e, o in zip(views, others)
            ):
                return
        raise RuntimeError("restarted node never converged")

    async def scenario(data_dir: Path) -> dict:
        net = LoopbackNetwork()
        others = []
        bootstrap = None
        for pid in range(num_peers):
            if pid == 1:
                continue  # the node that will restart
            n = NetworkPeer(
                pid, "peer", pid, transport=net.transport(), seed=pid,
                registry=Registry(),
            )
            await n.start()
            n.publish(
                Document(f"d-{pid}", " ".join(f"peer{pid}word{i}" for i in range(60)))
            )
            if bootstrap is None:
                bootstrap = n
            else:
                await n.join(bootstrap.address)
            others.append(n)
        b = NetworkPeer(
            1, "peer", 1, transport=net.transport(), seed=1,
            registry=Registry(), data_dir=data_dir, store_config=FAST_STORE,
        )
        await b.start()
        b.publish(Document("d-1", " ".join(f"peer1word{i}" for i in range(60))))
        await b.join(bootstrap.address)
        await _converge(b, others)
        b.write_checkpoint()
        await b.transport.close()  # crash

        # Warm restart: checkpoint seeds the directory.
        warm_reg = Registry()
        b2 = NetworkPeer(
            1, "peer", 101, transport=net.transport(), seed=1,
            registry=warm_reg, data_dir=data_dir, store_config=FAST_STORE,
        )
        await b2.start()
        await _converge(b2, others)
        warm_bytes = _node_bytes(warm_reg)
        await b2.transport.close()

        # Cold restart of the same node: checkpoint gone, full join.
        (data_dir / "directory.ckpt").unlink()
        cold_reg = Registry()
        b3 = NetworkPeer(
            1, "peer", 102, transport=net.transport(), seed=1,
            registry=cold_reg, data_dir=data_dir, store_config=FAST_STORE,
        )
        await b3.start()
        await b3.join(bootstrap.address)
        await _converge(b3, others)
        cold_bytes = _node_bytes(cold_reg)

        for n in others:
            await n.stop()
        await b3.stop()
        return {
            "num_peers": num_peers,
            "warm_bytes": warm_bytes,
            "cold_bytes": cold_bytes,
            "warm_fraction": warm_bytes / cold_bytes,
        }

    with tempfile.TemporaryDirectory() as tmp:
        return asyncio.run(scenario(Path(tmp)))


# -- harness -----------------------------------------------------------------


def run_sweep(quick: bool, seed: int = 20030612) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "meta": {
            "quick": quick,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "restart": bench_restart(
            num_docs=150 if quick else 600, repeats=2 if quick else 4, rng=rng
        ),
        "rejoin": bench_rejoin(num_peers=4 if quick else 8, rng=rng),
    }


def check_regression(results: dict, baseline: dict, threshold: float) -> list[str]:
    """Failures vs floors and the committed baseline; empty means pass."""
    failures = []
    restart, rejoin = results["restart"], results["rejoin"]
    for key in ("speedup_wal", "speedup_snapshot"):
        if restart[key] < FLOORS[("restart", key)]:
            failures.append(
                f"restart/{key}: {restart[key]:.1f}x below the "
                f"{FLOORS[('restart', key)]:.0f}x floor"
            )
    if rejoin["warm_fraction"] >= FLOORS[("rejoin", "warm_fraction")]:
        failures.append(
            f"rejoin: warm rejoin ({rejoin['warm_bytes']}B) not cheaper than "
            f"a cold join ({rejoin['cold_bytes']}B)"
        )
    base_restart = baseline.get("restart", {})
    for key in ("speedup_wal", "speedup_snapshot"):
        base = base_restart.get(key)
        if base and restart[key] < base * (1.0 - threshold):
            failures.append(
                f"restart/{key}: {restart[key]:.1f}x regressed >"
                f"{threshold:.0%} from baseline {base:.1f}x"
            )
    base_fraction = baseline.get("rejoin", {}).get("warm_fraction")
    if base_fraction and rejoin["warm_fraction"] > base_fraction * (1.0 + threshold):
        failures.append(
            f"rejoin: warm fraction {rejoin['warm_fraction']:.2f} worsened >"
            f"{threshold:.0%} from baseline {base_fraction:.2f}"
        )
    return failures


def _report(results: dict) -> str:
    r = results["restart"]
    j = results["rejoin"]
    return "\n".join(
        [
            f"restart ({r['num_docs']} documents, best-of-N):",
            f"  cold rebuild (Analyzer):  {r['cold_publish_s'] * 1e3:9.1f} ms",
            f"  warm WAL replay:          {r['warm_wal_s'] * 1e3:9.1f} ms"
            f"  ({r['speedup_wal']:.1f}x)",
            f"  warm snapshot load:       {r['warm_snapshot_s'] * 1e3:9.1f} ms"
            f"  ({r['speedup_snapshot']:.1f}x)",
            f"rejoin ({j['num_peers']} peers):",
            f"  cold join:   {j['cold_bytes']:7d} bytes gossiped",
            f"  warm rejoin: {j['warm_bytes']:7d} bytes gossiped"
            f"  ({j['warm_fraction']:.0%} of cold)",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    # __doc__ is None under python -OO; the benches must still run there.
    parser = argparse.ArgumentParser(
        description=(__doc__ or "store restart benchmark").splitlines()[0]
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--write", metavar="PATH", help="write results JSON")
    parser.add_argument(
        "--check", metavar="PATH", help="compare ratios against a baseline JSON"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.40,
        help="allowed fractional ratio regression vs baseline (default 0.40)",
    )
    args = parser.parse_args(argv)

    results = run_sweep(quick=args.quick)
    print(_report(results))
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.write}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_regression(results, baseline, args.threshold)
        if failures:
            print("REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"ok: no restart-path regression vs {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
