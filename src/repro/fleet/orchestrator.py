"""The fleet conductor: launch, measure, perturb, and reap real nodes.

:class:`Fleet` drives N ``python -m repro.net`` subprocesses through a
:class:`~repro.fleet.scenario.Scenario`:

* **staggered launch** — a seed node, then batches that each bootstrap
  off a random already-ready member (so join load spreads instead of
  hammering node 0), every node on ``--port 0`` with its bound address
  parsed from the ``PLANETP_READY`` line;
* **outside-in measurement** — each node's metrics are scraped over the
  ``StatsRequest`` wire message with bounded concurrency; directory
  convergence is "every node's ``planetp_node_directory_size`` gauge
  reports full membership";
* **control plane** — publish waves are injected with the
  ``PublishRequest`` RPC at exact scenario moments (the document takes
  the node's ordinary publish path: WAL when durable, index, filter
  flush, BF_UPDATE rumor);
* **an observer** — one in-process :class:`~repro.net.node.NetworkPeer`
  joins the live fleet and fronts it with a
  :class:`~repro.serve.scheduler.QueryScheduler`, so ranked searches,
  freshness checks, and document fetches run through the production
  query plane rather than a test backdoor;
* **churn** — SIGKILL per the crash schedule, warm restart from the
  same ``--data-dir`` (new ephemeral port; the community relearns the
  address from the REJOIN rumor, exactly as the paper prescribes);
* **guaranteed reaping** — graceful SIGINT sweep, bounded wait, SIGKILL
  stragglers, then a leak audit of processes and ports.

:func:`run_scenario` strings those into the full timeline and returns a
:class:`~repro.fleet.invariants.FleetReport`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import repro
from repro.constants import BloomConfig, GossipConfig, NetConfig, PartialViewConfig
from repro.content.retrieval import ContentClient
from repro.fleet.invariants import (
    FleetReport,
    convergence_bound_s,
    recall_at_k,
)
from repro.fleet.oracle import FleetOracle
from repro.fleet.proc import FleetError, NodeProcess, ReadyInfo
from repro.fleet.scenario import FleetSpec, Scenario, build_scenario
from repro.net import codec
from repro.net.codec import PublishAck, PublishRequest, StatsRequest, StatsResponse
from repro.net.node import NetworkPeer
from repro.net.transport import TcpTransport, TransportError
from repro.obs import Registry
from repro.serve.scheduler import QueryScheduler
from repro.store.chunkstore import ContentNotFound
from repro.text.document import Document

__all__ = ["Fleet", "FleetError", "run_scenario", "run_scenario_async"]

#: directory-size gauge every convergence check reads.
_DIRECTORY_GAUGE = "planetp_node_directory_size"


def _subprocess_env() -> dict[str, str]:
    """The child environment, with this interpreter's ``repro`` first on
    ``PYTHONPATH`` — fleets must run the code under test even when the
    orchestrating process imported it from a source tree."""
    pkg_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_root if not previous else pkg_root + os.pathsep + previous
    )
    return env


class Fleet:
    """N live node subprocesses plus the plumbing to drive and read them."""

    def __init__(
        self,
        scenario: Scenario,
        root: str | Path,
        log_dir: str | Path | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.scenario = scenario
        self.spec = scenario.spec
        self.root = Path(root)
        self.log_dir = Path(log_dir) if log_dir is not None else self.root / "logs"
        self.say = progress if progress is not None else lambda _msg: None
        #: live (or most recent) process per peer id.
        self.procs: dict[int, NodeProcess] = {}
        #: current serving address per peer id.
        self.addresses: dict[int, str] = {}
        self.transport = TcpTransport(NetConfig())
        # The fleet's own randomness (bootstrap targets, observer join
        # point) keys off the scenario seed too: one seed, one run.
        self._rng = random.Random(self.spec.seed ^ 0x5EED)
        self._scrape_gate = asyncio.Semaphore(self.spec.scrape_concurrency)
        self._env = _subprocess_env()
        self.observer: NetworkPeer | None = None
        self.scheduler: QueryScheduler | None = None
        self._content_client: ContentClient | None = None

    # -- layout --------------------------------------------------------------

    def corpus_dir(self, pid: int) -> Path:
        """Where node ``pid``'s startup ``--corpus`` tree lives."""
        return self.root / "corpus" / f"n{pid:04d}"

    def data_dir(self, pid: int) -> Path:
        """Durable node ``pid``'s ``--data-dir``."""
        return self.root / "data" / f"n{pid:04d}"

    def log_path(self, pid: int) -> Path:
        """Node ``pid``'s log file (shared across restarts)."""
        return self.log_dir / f"n{pid:04d}.log"

    def write_corpora(self) -> None:
        """Materialize every node's scenario corpus as ``*.txt`` files."""
        for pid, docs in enumerate(self.scenario.corpus):
            directory = self.corpus_dir(pid)
            directory.mkdir(parents=True, exist_ok=True)
            for doc in docs:
                (directory / f"{doc.doc_id}.txt").write_text(
                    doc.text, encoding="utf-8"
                )

    def _node_args(self, pid: int, bootstrap: str | None) -> list[str]:
        args = [
            sys.executable,
            "-u",
            "-m",
            "repro.net",
            "--peer-id", str(pid),
            "--port", "0",
            "--corpus", str(self.corpus_dir(pid)),
            "--gossip-interval", str(self.spec.gossip_interval_s),
            "--bloom-bits", str(self.spec.bloom_bits),
            "--bloom-hashes", str(self.spec.bloom_hashes),
        ]
        if bootstrap is not None:
            args += ["--bootstrap", bootstrap]
        if self.spec.replicas > 0:
            args += ["--replicas", str(self.spec.replicas)]
        if self.spec.analytics:
            args += ["--analytics"]
        if self.spec.partial_view:
            args += [
                "--partial-view",
                "--shards", str(self.spec.resolved_num_shards),
                "--view-sample", str(self.spec.view_sample),
            ]
        if pid in self.scenario.durable_pids:
            # Durable exactly where the crash schedule needs it; fsync
            # off — the WAL still reaches the OS on every append, so a
            # SIGKILL (not a host crash) loses nothing.
            args += [
                "--data-dir", str(self.data_dir(pid)),
                "--snapshot-every", str(self.spec.snapshot_every),
                "--no-fsync",
            ]
        return args

    # -- launch --------------------------------------------------------------

    async def launch(self) -> float:
        """Staggered batched launch; seconds from first spawn to last ready."""
        self.write_corpora()
        self.log_dir.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        ready_addrs: list[str] = []
        await self._launch_batch([0], ready_addrs)
        pending = list(range(1, self.spec.num_nodes))
        while pending:
            batch = pending[: self.spec.launch_batch]
            pending = pending[self.spec.launch_batch :]
            await self._launch_batch(batch, ready_addrs)
            self.say(
                f"fleet: {len(ready_addrs)}/{self.spec.num_nodes} nodes ready"
            )
        return time.monotonic() - started

    async def _launch_batch(
        self, pids: list[int], ready_addrs: list[str]
    ) -> None:
        batch = []
        for pid in pids:
            bootstrap = self._rng.choice(ready_addrs) if ready_addrs else None
            proc = NodeProcess(
                pid, self._node_args(pid, bootstrap), self.log_path(pid),
                env=self._env,
            )
            proc.spawn()
            self.procs[pid] = proc
            batch.append(proc)
        infos = await asyncio.gather(
            *(p.wait_ready(self.spec.ready_timeout_s) for p in batch)
        )
        for info in infos:
            self.addresses[info.peer_id] = info.address
            ready_addrs.append(info.address)

    # -- scraping ------------------------------------------------------------

    async def scrape(self, pid: int) -> dict[str, float] | None:
        """One node's metrics as a name→value dict (None if unreachable)."""
        address = self.addresses.get(pid)
        if address is None:
            return None
        async with self._scrape_gate:
            try:
                reply = await codec.call(self.transport, address, StatsRequest())
            except TransportError:
                return None
        if not isinstance(reply, StatsResponse):
            return None
        return dict(reply.samples)

    async def scrape_all(self) -> dict[int, dict[str, float]]:
        """Metrics from every live node (unreachable nodes omitted)."""
        pids = [pid for pid, proc in self.procs.items() if proc.alive]
        results = await asyncio.gather(*(self.scrape(pid) for pid in pids))
        return {
            pid: samples
            for pid, samples in zip(pids, results)
            if samples is not None
        }

    async def await_convergence(self, expected: int, timeout_s: float) -> float:
        """Seconds until every node's directory gauge reports ``expected``
        members; raises :class:`FleetError` past ``timeout_s``."""
        started = time.monotonic()
        last_said = 0.0
        poll_s = max(0.2, self.spec.gossip_interval_s / 2)
        while True:
            stats = await self.scrape_all()
            converged = sum(
                1
                for samples in stats.values()
                if samples.get(_DIRECTORY_GAUGE, 0.0) >= expected
            )
            elapsed = time.monotonic() - started
            if converged == self.spec.num_nodes:
                return elapsed
            if elapsed > timeout_s:
                raise FleetError(
                    f"directory convergence timed out after {elapsed:.1f}s: "
                    f"{converged}/{self.spec.num_nodes} nodes at "
                    f"{expected} members ({len(stats)} scrapable)"
                )
            if elapsed - last_said > 5.0:
                self.say(
                    f"fleet: {converged}/{self.spec.num_nodes} directories "
                    f"converged after {elapsed:.1f}s"
                )
                last_said = elapsed
            await asyncio.sleep(poll_s)

    # -- control plane -------------------------------------------------------

    async def publish(self, pid: int, doc: Document) -> PublishAck:
        """Inject ``doc`` at node ``pid``; raises unless acked accepted."""
        msg = PublishRequest(doc.doc_id, doc.text)
        reply = await codec.call(self.transport, self.addresses[pid], msg)
        if not isinstance(reply, PublishAck) or not reply.accepted:
            raise FleetError(
                f"node {pid} did not accept publish of {doc.doc_id!r}: {reply!r}"
            )
        return reply

    async def top_terms(self, pid: int, k: int) -> list[str] | None:
        """One node's community top-``k`` term estimate over the wire
        (``None`` if unreachable or not serving analytics)."""
        from repro.gossip.wire import TopTermsReply, TopTermsRequest

        address = self.addresses.get(pid)
        if address is None:
            return None
        async with self._scrape_gate:
            try:
                reply = await codec.call(self.transport, address, TopTermsRequest(k))
            except TransportError:
                return None
        if not isinstance(reply, TopTermsReply):
            return None
        return [term for term, _count in reply.entries]

    # -- the content plane ----------------------------------------------------

    def content_client(self) -> ContentClient:
        """The fleet's retrieval client (shared transport, lazy)."""
        if self._content_client is None:
            self._content_client = ContentClient(
                self.transport, request_timeout_s=10.0
            )
        return self._content_client

    async def fetch_content(self, doc_id: str, via: list[str]) -> bytes | None:
        """Fetch ``doc_id`` through the content plane starting from the
        ``via`` addresses; ``None`` when no verified copy is reachable."""
        try:
            return await self.content_client().fetch(via, doc_id)
        except ContentNotFound:
            return None

    async def await_replication(self, total_docs: int, timeout_s: float) -> float:
        """Seconds until every node is at the replication fixed point:
        each node's ``docs_fully_replicated`` gauge equals its
        ``docs_held``, and the community holds at least ``replicas``
        copies' worth of documents.  Gates the crash schedule — a doc
        SIGKILLed with its origin before this point is unrecoverable."""
        started = time.monotonic()
        poll_s = max(0.2, self.spec.gossip_interval_s / 2)
        live = sum(1 for proc in self.procs.values() if proc.alive)
        floor = total_docs * self.spec.replicas
        while True:
            stats = await self.scrape_all()
            held = sum(
                s.get("planetp_content_docs_held", 0.0) for s in stats.values()
            )
            settled = (
                len(stats) >= live
                and held >= floor
                and all(
                    s.get("planetp_content_docs_held", 0.0)
                    == s.get("planetp_content_docs_fully_replicated", -1.0)
                    for s in stats.values()
                )
            )
            elapsed = time.monotonic() - started
            if settled:
                return elapsed
            if elapsed > timeout_s:
                raise FleetError(
                    f"content replication not settled after {elapsed:.1f}s: "
                    f"{held:.0f} copies held across {len(stats)} nodes "
                    f"(floor {floor})"
                )
            await asyncio.sleep(poll_s)

    def kill(self, pid: int) -> None:
        """SIGKILL node ``pid`` (the crash schedule — no cleanup runs)."""
        self.procs[pid].sigkill()

    async def restart(self, pid: int) -> ReadyInfo:
        """Respawn a killed node on its old ``--data-dir`` (new port)."""
        await self.procs[pid].reap(10.0)
        live = [
            self.addresses[p]
            for p, proc in self.procs.items()
            if p != pid and proc.alive
        ]
        if not live:
            raise FleetError("no live node left to bootstrap a restart from")
        proc = NodeProcess(
            pid,
            self._node_args(pid, self._rng.choice(live)),
            self.log_path(pid),
            env=self._env,
        )
        proc.spawn()
        self.procs[pid] = proc
        info = await proc.wait_ready(self.spec.ready_timeout_s)
        self.addresses[pid] = info.address
        return info

    # -- the observer --------------------------------------------------------

    async def start_observer(self) -> QueryScheduler:
        """Join an in-process observer node and front it with the query
        plane.  Its own registry keeps fleet metrics out of the global one."""
        spec = self.spec
        self.observer = NetworkPeer(
            spec.num_nodes,
            "127.0.0.1",
            0,
            gossip_config=GossipConfig(base_interval_s=spec.gossip_interval_s),
            bloom_config=BloomConfig(
                num_bits=spec.bloom_bits, num_hashes=spec.bloom_hashes
            ),
            registry=Registry(),
            # The observer searches the same way the fleet's members do:
            # under partial view its queries exercise the shard fan-out.
            partial_view=PartialViewConfig(
                num_shards=spec.resolved_num_shards,
                sample_size=spec.view_sample,
            )
            if spec.partial_view
            else None,
        )
        await self.observer.start()
        await self.observer.join(self._rng.choice(list(self.addresses.values())))
        self.observer.run()
        self.scheduler = QueryScheduler(self.observer)
        return self.scheduler

    async def await_observer_addresses(self, timeout_s: float) -> float:
        """Seconds until the observer can address every fleet member;
        raises :class:`FleetError` past ``timeout_s``.

        Directory convergence counts entries, and an entry made by a
        filter rumor that overtook its member's JOIN has no address yet
        (a bootstrap hands such entries on in its snapshot): until the
        record arrives the member is no search candidate, so a recall
        measured now would judge the join, not the search.
        """
        assert self.observer is not None
        directory = self.observer.peer.directory
        started = time.monotonic()
        while True:
            missing = [
                pid
                for pid in range(self.spec.num_nodes)
                if pid not in directory or not directory[pid].address
            ]
            elapsed = time.monotonic() - started
            if not missing:
                return elapsed
            if elapsed > timeout_s:
                raise FleetError(
                    f"observer still cannot address nodes {missing} "
                    f"after {elapsed:.1f}s"
                )
            await asyncio.sleep(max(0.05, self.spec.gossip_interval_s / 4))

    # -- teardown ------------------------------------------------------------

    async def stop(self, reap_timeout_s: float | None = None) -> tuple[int, int, int]:
        """Stop everything; returns (forced_kills, leaked_procs, leaked_ports).

        Graceful first (SIGINT runs each node's checkpoint-and-close
        path), SIGKILL for stragglers, then the leak audit the scale
        test gates on: no process unreaped, no port still accepting.
        """
        if self.observer is not None:
            await self.observer.stop()
            self.observer = None
            self.scheduler = None
        if reap_timeout_s is None:
            # Every node finalizes concurrently but shares the host CPU.
            reap_timeout_s = 30.0 + 0.2 * len(self.procs)
        for proc in self.procs.values():
            proc.interrupt()
        deadline = time.monotonic() + reap_timeout_s
        forced = 0
        for proc in self.procs.values():
            remaining = max(0.0, deadline - time.monotonic())
            if not await proc.reap(remaining):
                proc.sigkill()
                forced += 1
        leaked_procs = 0
        for proc in self.procs.values():
            if not await proc.reap(5.0):
                leaked_procs += 1
        leaked_ports = await self._count_open_ports()
        await self.transport.close()
        return forced, leaked_procs, leaked_ports

    async def _count_open_ports(self) -> int:
        """How many node addresses still accept connections (should be 0)."""
        leaked = 0
        for address in self.addresses.values():
            host, _, port = address.rpartition(":")
            try:
                _reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, int(port)), 1.0
                )
            except (OSError, asyncio.TimeoutError):
                continue
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            leaked += 1
        return leaked


# ---------------------------------------------------------------------------
# the scripted timeline
# ---------------------------------------------------------------------------


async def run_scenario_async(
    spec: FleetSpec,
    root: str | Path | None = None,
    log_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> FleetReport:
    """Run the full fleet timeline for ``spec``; see :func:`run_scenario`."""
    say = progress if progress is not None else lambda _msg: None
    scenario = build_scenario(spec)
    cleanup_root = root is None
    root = (
        Path(tempfile.mkdtemp(prefix="planetp-fleet-")) if root is None else Path(root)
    )
    fleet = Fleet(scenario, root, log_dir=log_dir, progress=progress)
    bound = convergence_bound_s(
        spec.num_nodes, spec.gossip_interval_s, spec.convergence_slack_s
    )
    poll_s = max(0.2, spec.gossip_interval_s / 2)
    m: dict = {}
    try:
        say(f"fleet: launching {spec.num_nodes} nodes under {root}")
        m["launch_s"] = await fleet.launch()
        say(f"fleet: all nodes ready in {m['launch_s']:.1f}s")

        m["convergence_s"] = await fleet.await_convergence(spec.num_nodes, bound)
        say(
            f"fleet: directories converged in {m['convergence_s']:.1f}s "
            f"(bound {bound:.1f}s)"
        )

        scheduler = await fleet.start_observer()
        waited = await fleet.await_observer_addresses(bound)
        say(f"fleet: observer can address every node (+{waited:.1f}s)")
        client = scheduler.client
        oracle = FleetOracle(scenario)

        # Baseline: ranked recall of the live fleet vs. the oracle.
        recalls = []
        for query in scenario.queries:
            served = await scheduler.ranked(query, spec.top_k)
            expected = oracle.ranked_ids(query, spec.top_k)
            recalls.append(
                recall_at_k(expected, [d.doc_id for d in served.results])
            )
        m["recall"] = statistics.fmean(recalls)
        m["recall_min"] = min(recalls)
        say(f"fleet: baseline recall {m['recall']:.3f} (min {m['recall_min']:.3f})")

        # Analytics: every node's gossiped top-k frequent-term estimate
        # must agree with the exact oracle (startup corpora) within the
        # same Fig.-2 bound the directory itself converges under.
        m["analytics"] = spec.analytics
        m["analytics_precision_min"] = 1.0
        m["analytics_convergence_s"] = 0.0
        m["analytics_bytes_per_round"] = 0.0
        if spec.analytics:
            expected_terms = set(oracle.top_terms(spec.analytics_top_k))
            analytics_started = time.monotonic()
            analytics_deadline = analytics_started + bound
            while True:
                estimates = await asyncio.gather(
                    *(
                        fleet.top_terms(pid, spec.analytics_top_k)
                        for pid in range(spec.num_nodes)
                    )
                )
                precisions = [
                    len(set(est or ()) & expected_terms) / len(expected_terms)
                    for est in estimates
                ]
                m["analytics_precision_min"] = min(precisions)
                m["analytics_convergence_s"] = time.monotonic() - analytics_started
                if m["analytics_precision_min"] >= 0.9:
                    break
                if time.monotonic() > analytics_deadline:
                    break
                await asyncio.sleep(poll_s)
            say(
                f"fleet: analytics top-{spec.analytics_top_k} precision "
                f"{m['analytics_precision_min']:.3f} after "
                f"{m['analytics_convergence_s']:.1f}s"
            )

        # Publish waves: measure propagation, then prove freshness — the
        # cache was primed with the pre-wave answer, so serving anything
        # but the new documents afterwards is a stale serve.
        stale_serves = 0
        wave_propagation = []
        for wave in scenario.waves:
            await scheduler.ranked(wave.query, spec.top_k)
            wave_started = time.monotonic()
            for pid, doc in wave.publishes:
                await fleet.publish(pid, doc)
            oracle.apply_wave(wave)
            wave_ids = set(wave.doc_ids)
            wave_deadline = wave_started + bound
            while True:
                direct = await client.ranked_search(wave.query, spec.top_k)
                if wave_ids <= {d.doc_id for d in direct.results}:
                    break
                if time.monotonic() > wave_deadline:
                    raise FleetError(
                        f"wave {wave.index} not searchable within {bound:.1f}s"
                    )
                await asyncio.sleep(poll_s)
            wave_propagation.append(time.monotonic() - wave_started)
            served = await scheduler.ranked(wave.query, spec.top_k)
            if wave_ids - {d.doc_id for d in served.results}:
                stale_serves += 1
            say(
                f"fleet: wave {wave.index} searchable after "
                f"{wave_propagation[-1]:.1f}s"
            )
        m["stale_serves"] = stale_serves
        m["wave_propagation_s"] = wave_propagation

        # Content plane: wait for the replication fixed point, then
        # retrieve every wave document byte-identically through the
        # chunked-transfer protocol (manifest digest verified in fetch).
        m["content_replicas"] = spec.replicas
        m["replication_s"] = 0.0
        m["content_fetches_expected"] = 0
        m["content_fetches_ok"] = 0
        m["churn_fetches_ok"] = True
        m["orphan_chunk_bytes_max"] = 0.0
        if spec.replicas > 0:
            total_docs = spec.num_nodes * spec.docs_per_node + sum(
                len(w.publishes) for w in scenario.waves
            )
            m["replication_s"] = await fleet.await_replication(total_docs, bound)
            say(
                f"fleet: {total_docs} documents at {spec.replicas}-way "
                f"replication after {m['replication_s']:.1f}s"
            )
            fetch_docs = [
                doc for wave in scenario.waves for _pid, doc in wave.publishes
            ]
            fetched_ok = 0
            for doc in fetch_docs:
                via = fleet._rng.choice(list(fleet.addresses.values()))
                data = await fleet.fetch_content(doc.doc_id, [via])
                if data == doc.text.encode("utf-8"):
                    fetched_ok += 1
            m["content_fetches_expected"] = len(fetch_docs)
            m["content_fetches_ok"] = fetched_ok
            say(
                f"fleet: retrieved {fetched_ok}/{len(fetch_docs)} wave "
                f"documents byte-identical"
            )

        # Crash schedule: SIGKILL, keep serving, warm restart, recover.
        m["crash_pids"] = list(scenario.crash_pids)
        m["crash_search_ok"] = True
        m["recovery_s"] = 0.0
        if scenario.crash_pids:
            say(f"fleet: SIGKILL nodes {list(scenario.crash_pids)}")
            for pid in scenario.crash_pids:
                fleet.kill(pid)
            for query in scenario.queries[:2]:
                try:
                    await scheduler.ranked(query, spec.top_k)
                except Exception:
                    m["crash_search_ok"] = False
            if spec.replicas > 0:
                # Retrieval under churn: each SIGKILLed origin's sentinel
                # document must still come back byte-identical from the
                # surviving replicas while the origin is down.
                survivors = [
                    fleet.addresses[p]
                    for p, proc in fleet.procs.items()
                    if proc.alive
                ]
                churn_pending = {
                    pid: scenario.sentinel_doc(pid)
                    for pid in scenario.crash_pids
                }
                churn_deadline = time.monotonic() + bound
                while churn_pending:
                    for pid, doc in list(churn_pending.items()):
                        data = await fleet.fetch_content(
                            doc.doc_id, [fleet._rng.choice(survivors)]
                        )
                        if data == doc.text.encode("utf-8"):
                            del churn_pending[pid]
                    if not churn_pending:
                        break
                    if time.monotonic() > churn_deadline:
                        m["churn_fetches_ok"] = False
                        break
                    await asyncio.sleep(poll_s)
                say(
                    "fleet: retrieval under churn "
                    + ("ok" if m["churn_fetches_ok"] else
                       f"FAILED for {sorted(churn_pending)}")
                )
            restart_started = time.monotonic()
            for pid in scenario.crash_pids:
                await fleet.restart(pid)
            pending = {
                pid: scenario.sentinel_doc(pid) for pid in scenario.crash_pids
            }
            recovery_deadline = restart_started + bound + spec.ready_timeout_s
            while pending:
                recovered = []
                for pid, doc in pending.items():
                    fetched = await client.fetch(pid, doc.doc_id)
                    if fetched is not None and fetched.text == doc.text:
                        recovered.append(pid)
                for pid in recovered:
                    del pending[pid]
                if not pending:
                    break
                if time.monotonic() > recovery_deadline:
                    raise FleetError(
                        f"nodes {sorted(pending)} not recovered within "
                        f"{bound + spec.ready_timeout_s:.1f}s of restart"
                    )
                await asyncio.sleep(poll_s)
            m["recovery_s"] = time.monotonic() - restart_started
            say(f"fleet: crash schedule recovered in {m['recovery_s']:.1f}s")

        # Post-recovery recall over base + wave queries.  The sentinel
        # fetch above only proves the restarted nodes are serving again;
        # the rest of the fleet re-learns their filters (and, under
        # --partial-view, refolds them into shard summaries) over the
        # next few gossip rounds.  Poll within the convergence bound
        # until recall is back to the pre-crash baseline instead of
        # snapshotting that race.
        post_queries = [*scenario.queries, *(w.query for w in scenario.waves)]
        recall_deadline = time.monotonic() + bound
        while True:
            recalls2 = []
            for query in post_queries:
                served = await scheduler.ranked(query, spec.top_k)
                expected = oracle.ranked_ids(query, spec.top_k)
                recalls2.append(
                    recall_at_k(expected, [d.doc_id for d in served.results])
                )
            m["recall_after_recovery"] = statistics.fmean(recalls2)
            if not scenario.crash_pids:
                break
            if m["recall_after_recovery"] >= min(1.0, m["recall"]):
                break
            if time.monotonic() > recall_deadline:
                break
            await asyncio.sleep(poll_s)

        # Handoff hygiene: once the restarted nodes are back on the ring,
        # every node's orphaned-copy gauge must drain to zero — churn may
        # never strand chunk bytes nobody is responsible for.
        if spec.replicas > 0 and scenario.crash_pids:
            orphan_deadline = time.monotonic() + bound
            while True:
                orphan_stats = await fleet.scrape_all()
                orphans = [
                    s.get("planetp_content_orphan_chunk_bytes", 0.0)
                    for s in orphan_stats.values()
                ]
                m["orphan_chunk_bytes_max"] = max(orphans) if orphans else 0.0
                if m["orphan_chunk_bytes_max"] == 0.0:
                    break
                if time.monotonic() > orphan_deadline:
                    break
                await asyncio.sleep(poll_s)
            say(
                f"fleet: orphaned chunk bytes after churn: "
                f"{m['orphan_chunk_bytes_max']:.0f}"
            )

        # Cost: what the convergence and churn above took on the wire.
        stats = await fleet.scrape_all()
        byte_totals = [
            s.get("planetp_node_gossip_real_bytes_total", 0.0)
            for s in stats.values()
        ]
        round_totals = [
            s.get("planetp_node_gossip_rounds_total", 0.0) for s in stats.values()
        ]
        m["gossip_bytes_per_node"] = (
            statistics.fmean(byte_totals) if byte_totals else 0.0
        )
        m["gossip_rounds_per_node"] = (
            statistics.fmean(round_totals) if round_totals else 0.0
        )
        total_rounds = sum(round_totals)
        m["gossip_bytes_per_round"] = (
            sum(byte_totals) / total_rounds if total_rounds else 0.0
        )
        if spec.analytics:
            analytics_totals = [
                s.get("planetp_node_analytics_real_bytes_total", 0.0)
                for s in stats.values()
            ]
            m["analytics_bytes_per_round"] = (
                sum(analytics_totals) / total_rounds if total_rounds else 0.0
            )
        # Directory memory + partial-view traffic: the sublinearity gate
        # compares these means across flat and partial-view runs.
        filter_bytes = [
            s.get("planetp_node_directory_filter_bytes", 0.0)
            for s in stats.values()
        ]
        pv_bytes = [
            s.get("planetp_node_partialview_real_bytes_total", 0.0)
            for s in stats.values()
        ]
        m["partial_view"] = spec.partial_view
        m["directory_filter_bytes_per_node"] = (
            statistics.fmean(filter_bytes) if filter_bytes else 0.0
        )
        m["partialview_bytes_per_node"] = (
            statistics.fmean(pv_bytes) if pv_bytes else 0.0
        )
    finally:
        forced, leaked_procs, leaked_ports = await fleet.stop()
        if cleanup_root:
            shutil.rmtree(root, ignore_errors=True)

    report = FleetReport(
        num_nodes=spec.num_nodes,
        seed=spec.seed,
        convergence_bound_s=bound,
        forced_kills=forced,
        leaked_processes=leaked_procs,
        leaked_ports=leaked_ports,
        **m,
    )
    say(f"fleet: done — {len(report.violations()) or 'no'} violation(s)")
    return report


def run_scenario(
    spec: FleetSpec,
    root: str | Path | None = None,
    log_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> FleetReport:
    """Launch a fleet per ``spec``, run the scripted timeline, and return
    the measured :class:`~repro.fleet.invariants.FleetReport`.

    ``root`` holds corpora, data dirs, and (by default) logs; a
    temporary directory is created and removed when omitted.  Pass
    ``log_dir`` to keep per-node logs somewhere durable (CI uploads
    them as an artifact on failure).  ``progress`` receives one-line
    status updates.  Teardown always runs — the fleet is reaped even
    when the scenario fails.
    """
    return asyncio.run(run_scenario_async(spec, root, log_dir, progress))
