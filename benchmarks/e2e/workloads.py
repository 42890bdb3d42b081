"""The four workloads: set-up, measured window, drain, output checks.

Every run launches its own seeded fleet of twelve ``python -m repro.net``
subprocesses on 127.0.0.1 (the host's loopback interface, not a real
link) through :class:`repro.fleet.Fleet`, joins one in-process observer
``NetworkPeer`` fronted by a default-config ``QueryScheduler`` — the
user's node and the only load generator — runs one workload and checks
what came back.  No knob of the system is set beyond what ``Fleet``
passes: the benchmark measures what ships.

Why these four (the table in README.md has the long form):

* ``query_distinct`` — every query key is new, so the result cache does
  nothing and the whole read path runs each time, on a quiescent fleet.
* ``query_zipf_publish`` — a Zipf query mix that *could* be served from
  the cache, beside a publish stream that keeps moving the directory
  generation: the hit ratio is set by gossip, and publish→searchable is
  measured under query load.
* ``fetch_mixed`` — the same transport carrying 64 KiB chunk frames
  beside 100-byte RPCs; ``query_distinct`` is its control.
* ``ingest`` — the write path and gossip under a high rumor rate, on
  durable nodes.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (puts src/ on sys.path)

import asyncio
import contextlib
import functools
import hashlib
import os
import platform
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import inputs
import layers
import outside
import spans
from ledger import BY_NAME, END_TO_END, QUERY_WORKLOADS
from loadgen import OpLog, closed_loop, highest_percentile, open_loop, percentile, sliced
from repro.core.search import score_local_documents
from repro.fleet import Fleet, FleetOracle, convergence_bound_s, recall_at_k

#: offered query rate (per second) of each workload's open loop.
QUERY_RATE = {"query_distinct": 100.0, "query_zipf_publish": 100.0, "fetch_mixed": 50.0}
PUBLISH_RATE = 8.0
CLIENTS = 2  # closed-loop clients; the box has two cores
WARMUP_QUERIES = 50
RECALL_SAMPLE = 50
RECALL_FLOOR = 0.98
#: floor under the mean recall of the answers given *during* the window.
#: Lower than the serial floor because overlapping searches share one
#: stopping state and cut one another short (README.md, "Findings"): what
#: ships holds 0.98–1.0, so this passes it with room for a bad minute and
#: fails answers that get worse under concurrency.
RECALL_IN_WINDOW_FLOOR = 0.97
#: a run whose generator sent this late at p99 measured the generator.
LATE_LIMIT_MS = 10.0
SPOT_SEARCHES = 20
SPOT_FETCHES = 5
#: how long a publish may take to become searchable before it has failed.
SEARCHABLE_DEADLINE_S = 20.0


@dataclass
class Window:
    """Everything the measured window observed."""

    queries: OpLog | None = None
    publishes: OpLog | None = None
    fetches: OpLog | None = None
    fetched_bytes: int = 0
    searchable_s: list[float] = field(default_factory=list)
    stale_serves: int = 0
    #: fresh searches for a searchable marker that came back without it.
    cut_short: int = 0
    #: publishes whose marker the target's filter (falsely) held already.
    marker_false_positives: int = 0
    #: fetches whose bytes were not the ones generated.
    wrong_fetches: int = 0
    #: query index → (query, answered doc ids), for the recall checks.
    answers: dict[int, tuple[str, list[str]]] = field(default_factory=dict)
    #: a sample of the same queries re-asked serially after the window.
    answers_serial: dict[int, list[str]] = field(default_factory=dict)
    #: executed (not cached) results, for peers contacted and the replay.
    executed: list[tuple[str, object]] = field(default_factory=list)
    #: traced-run latencies split by whether the query carried a trace.
    latency_by_traced: dict[bool, list[float]] = field(
        default_factory=lambda: {True: [], False: []}
    )
    #: ingest: everything acked, in order.
    published: list[tuple[int, str, object]] = field(default_factory=list)
    closed_loop_qps: float = 0.0
    drain_s: float = 0.0
    replicate_drain_s: float = 0.0


def _holds(result, doc) -> bool:
    """Whether a search result lists ``doc``."""
    return any(d.doc_id == doc.doc_id for d in result.results)


class Run:
    """One run of one workload on its own fleet."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 say=lambda _msg: None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.say = say
        self.scenario = inputs.scenario(seed, durable=workload == "ingest")
        self.blobs = inputs.blobs(seed) if workload == "fetch_mixed" else []
        self._blob_sha = {
            doc.doc_id: hashlib.sha256(doc.text.encode()).digest() for _pid, doc in self.blobs
        }
        self.fleet: Fleet | None = None
        self.tracer: spans.Tracer | None = spans.Tracer() if trace else None
        self.w = Window()
        self.violations: list[str] = []
        self._timeout = convergence_bound_s(inputs.NUM_NODES, 0.25)
        self._rng = random.Random(seed ^ 0xC0DE)
        self._settle_replication_s = 0.0
        #: recall of the serial re-ask and of the answers given under
        #: load (both gated); None where the workload asks no queries.
        self.recall: float | None = None
        self.recall_in_window: float | None = None

    # -- set-up and teardown -------------------------------------------------

    async def _setup(self) -> float:
        """``setup_s``: launch → directories converged → observer joined
        (a usable community with the user's node in it)."""
        root = _bootstrap.WORK / f"{self.workload}-{self.seed}-{os.getpid()}"
        shutil.rmtree(root, ignore_errors=True)
        self.fleet = fleet = Fleet(self.scenario, root)
        started = time.monotonic()
        await fleet.launch()
        await fleet.await_convergence(inputs.NUM_NODES, self._timeout)
        await fleet.start_observer()
        return time.monotonic() - started

    async def _settle(self) -> float:
        """Bring the fleet that will be measured to rest: the observer
        known to every node (its JOIN rumor has stopped spreading), the
        workload's large documents published, and the content plane at
        its replication fixed point (the observer's arrival moved the
        replica ring).  Not part of ``setup_s``: it is the workload's
        preparation, not the system coming up."""
        fleet = self.fleet
        started = time.monotonic()
        await fleet.await_convergence(inputs.NUM_NODES + 1, self._timeout)
        for pid, doc in self.blobs:
            await fleet.publish(pid, doc)
        total_docs = inputs.NUM_NODES * inputs.DOCS_PER_NODE + len(self.blobs)
        self._settle_replication_s = await fleet.await_replication(total_docs, self._timeout)
        return time.monotonic() - started

    async def _teardown(self) -> None:
        fleet, self.fleet = self.fleet, None
        if fleet is None:
            return
        try:
            audit = await fleet.stop()
        finally:
            shutil.rmtree(fleet.root, ignore_errors=True)
        if audit != (0, 0, 0):
            self.violations.append(f"leak audit {audit} (forced, procs, ports)")

    # -- the run -------------------------------------------------------------

    async def execute(self) -> dict:
        record = {
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "loadavg_1m": os.getloadavg()[0],
        }
        try:
            setup_s = await self._setup()
            self.say(f"set-up: {setup_s:.2f}s")
            fleet = self.fleet
            record["settle_s"] = await self._settle()
            if self.tracer is not None:
                spans.install(
                    self.tracer,
                    scheduler=fleet.scheduler,
                    transports=(fleet.observer.transport, fleet.transport),
                    content_client=fleet.content_client(),
                )
            await self._warm_up()
            retries_before = self._transport_counts()
            before = await outside.take(fleet)
            await getattr(self, f"_window_{self.workload}")()
            after = await outside.take(fleet)
            retries_after = self._transport_counts()
            await self._after_window()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            await self._teardown()
        self._check_outputs()
        direct = await layers.drive(self.seed, self.say) if self.trace else {}
        return self._assemble(record, setup_s, before, after, direct,
                              [b - a for a, b in zip(retries_before, retries_after)])

    def _transport_counts(self) -> tuple[float, float, float]:
        fleet = self.fleet
        transports = (fleet.observer.transport, fleet.transport)
        return (
            sum(t.retried_requests for t in transports),
            sum(t.failed_requests for t in transports),
            fleet.content_client().obs.value("content_client", "crc_rejects_total"),
        )

    async def _warm_up(self) -> None:
        """Open every connection and fill lazy state before timing."""
        if self.workload in QUERY_WORKLOADS:
            for q in inputs.distinct_queries(self.seed ^ 0x3A3A, WARMUP_QUERIES):
                await self.fleet.scheduler.ranked(q, inputs.TOP_K)
        if self.workload == "fetch_mixed":
            for _pid, doc in self.blobs:
                await self._fetch(doc, 0)
            self.w.fetched_bytes = 0

    # -- operations ----------------------------------------------------------

    def _query_op(self, queries: list[str]):
        scheduler = self.fleet.scheduler
        tracer = self.tracer
        w = self.w
        clock = time.perf_counter

        async def op(i: int, due: float) -> bool:
            query = queries[i]
            # Every other query carries a trace; the rest are the
            # untraced half trace.overhead_frac compares against.
            traced = tracer is not None and i % 2 == 0
            with self._trace("query", due) if traced else contextlib.nullcontext():
                result = await scheduler.ranked(query, inputs.TOP_K)
            if tracer is not None:
                w.latency_by_traced[traced].append(clock() - due)
                w.executed.append((query, result))
            w.answers[i] = (query, [d.doc_id for d in result.results])
            return True

        return op

    def _trace(self, name: str, start: float | None = None):
        """A trace root around one operation of a traced run; nothing
        otherwise."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.root(name, start)

    async def _fetch(self, doc, entry: int) -> bool:
        """One content fetch, entered at node ``entry``, SHA-256 checked
        against the bytes that were generated."""
        fleet = self.fleet
        via = [fleet.addresses[entry % inputs.NUM_NODES]]
        with self._trace("fetch"):
            data = await fleet.content_client().fetch(via, doc.doc_id)
        if hashlib.sha256(data).digest() != self._blob_sha[doc.doc_id]:
            self.w.wrong_fetches += 1
            return False
        self.w.fetched_bytes += len(data)
        return True

    async def _publish_until_searchable(self, pid: int, mark: str, doc) -> bool:
        """Publish at node ``pid`` and time how long until a ranked
        search at the observer returns the document."""
        fleet = self.fleet
        scheduler, observer = fleet.scheduler, fleet.observer
        term = observer.analyzer.analyze_query(mark)[0]
        replica = observer.replica_of(pid)
        if replica is not None and term in replica:
            # The node's filter already claims the marker — a Bloom false
            # positive, about 4 publishes in 10,000.  A search would then
            # ask the node and find the document before its filter update
            # arrives, so this marker can show neither when it arrives nor
            # whether the cache noticed: publish it for the load, time nothing.
            self.w.marker_false_positives += 1
            await fleet.publish(pid, doc)
            return True
        # Prime the cache with the pre-publish answer: serving it again
        # once the document is searchable would be a stale serve.
        primed = await scheduler.ranked(mark, inputs.TOP_K)
        sent = time.perf_counter()
        await fleet.publish(pid, doc)  # raises unless acked accepted
        while True:
            replica = observer.replica_of(pid)
            if replica is not None and term in replica:
                if _holds(await scheduler.client.ranked_search(mark, inputs.TOP_K), doc):
                    break
            if time.perf_counter() - sent > SEARCHABLE_DEADLINE_S:
                return False
            await asyncio.sleep(0.005)
        self.w.searchable_s.append(time.perf_counter() - sent)
        served = await scheduler.ranked(mark, inputs.TOP_K)
        if _holds(served, doc):
            return True
        if served is primed:
            self.w.stale_serves += 1  # the cache handed back the old answer
        else:
            # A fresh search that missed the document: not the cache's
            # doing but a concurrent search cutting this one short (shared
            # stopping state, see _check_outputs).
            self.w.cut_short += 1
        return False  # either way a wrong answer: a failed operation

    # -- the measured windows ------------------------------------------------

    def _query_stream(self, queries: list[str]):
        """The workload's open loop over ``queries`` (one per due time)."""
        return open_loop(QUERY_RATE[self.workload], self.seconds, self._query_op(queries))

    def _query_count(self) -> int:
        return int(QUERY_RATE[self.workload] * self.seconds)

    async def _window_query_distinct(self) -> None:
        queries = inputs.distinct_queries(self.seed, self._query_count())
        self.w.queries = await self._query_stream(queries)

    async def _window_query_zipf_publish(self) -> None:
        fixed, stream = inputs.zipf_query_stream(self.seed, self._query_count())
        docs = inputs.marker_docs(self.seed, int(PUBLISH_RATE * self.seconds))

        async def publish_op(i: int, _due: float) -> bool:
            with self._trace("publish"):
                return await self._publish_until_searchable(*docs[i])

        self.w.queries, self.w.publishes = await asyncio.gather(
            self._query_stream([fixed[rank] for rank in stream]),
            open_loop(PUBLISH_RATE, self.seconds, publish_op),
        )

    async def _window_fetch_mixed(self) -> None:
        queries = inputs.distinct_queries(self.seed, self._query_count())
        docs = [doc for _pid, doc in self.blobs]

        async def fetch_op(client: int, i: int) -> bool:
            # Rotate documents and entry addresses so both clients walk
            # every holder and every resolve path.
            n = client + CLIENTS * i
            return await self._fetch(docs[n % len(docs)], 5 * n + client)

        self.w.queries, self.w.fetches = await asyncio.gather(
            self._query_stream(queries),
            closed_loop(CLIENTS, self.seconds, fetch_op),
        )

    async def _window_ingest(self) -> None:
        fleet = self.fleet
        streams = [inputs.ingest_docs(self.seed, c) for c in range(CLIENTS)]

        async def op(client: int, _i: int) -> bool:
            pid, mark, doc = next(streams[client])
            with self._trace("publish"):
                await fleet.publish(pid, doc)
            self.w.published.append((pid, mark, doc))
            return True

        self.w.publishes = await closed_loop(CLIENTS, self.seconds, op)

    async def _closed_loop_diagnostic(self) -> None:
        """Two closed-loop clients on fresh distinct queries.  Diagnostic
        only: their throughput swings too much between identical runs to
        be an end-to-end figure."""
        diag_s = min(3.0, self.seconds / 3)
        scheduler = self.fleet.scheduler
        spare = iter(inputs.distinct_queries(self.seed ^ 0xD1A6, int(1000 * diag_s)))

        async def op(_client: int, _i: int) -> bool:
            await scheduler.ranked(next(spare), inputs.TOP_K)
            return True

        log = await closed_loop(CLIENTS, diag_s, op)
        self.w.closed_loop_qps = log.completed / log.elapsed_s

    async def _after_window(self) -> None:
        """After the second snapshot: the closed-loop diagnostic, the
        serial re-ask the recall gate judges, and ``ingest``'s drain."""
        if self.workload == "query_distinct" and self.trace:
            await self._closed_loop_diagnostic()
        # Through the search client, not the scheduler, whose cache would
        # hand back the very answer being double-checked.
        client = self.fleet.scheduler.client
        asked = sorted(self.w.answers)
        for i in sorted(self._rng.sample(asked, min(RECALL_SAMPLE, len(asked)))):
            again = await client.ranked_search(self.w.answers[i][0], inputs.TOP_K)
            self.w.answers_serial[i] = [d.doc_id for d in again.results]
        if self.workload == "ingest":
            await self._drain_ingest()
        else:
            self.w.replicate_drain_s = self._settle_replication_s

    async def _drain_ingest(self) -> None:
        """Drain gossip (and, traced, replication), then spot-check that
        what was acked is searchable and fetchable."""
        fleet, observer = self.fleet, self.fleet.observer
        started = time.monotonic()
        last = {pid: mark for pid, mark, _doc in self.w.published}
        pending = {
            pid: observer.analyzer.analyze_query(mark)[0] for pid, mark in last.items()
        }
        while pending:
            for pid, term in list(pending.items()):
                replica = observer.replica_of(pid)
                if replica is not None and term in replica:
                    del pending[pid]
            if time.monotonic() - started > self._timeout:
                self.violations.append(f"gossip not drained: nodes {sorted(pending)}")
                break
            await asyncio.sleep(0.01)
        self.w.drain_s = time.monotonic() - started
        if self.trace:
            # ~10 s for a 10 s window's documents (two durable copies of
            # each): only the traced run, which reports it, can afford it.
            total = inputs.NUM_NODES * inputs.DOCS_PER_NODE + len(self.w.published)
            self.w.replicate_drain_s = await fleet.await_replication(total, 4 * self._timeout)
        picks = self._rng.sample(self.w.published, min(SPOT_SEARCHES, len(self.w.published)))
        client = fleet.scheduler.client
        for n, (pid, mark, doc) in enumerate(picks):
            # A node's last marker can overtake an earlier filter diff
            # still being pulled, so each pick gets the rest of the
            # Fig.-2 bound to turn up before it counts as lost.
            while not _holds(await client.ranked_search(mark, inputs.TOP_K), doc):
                if time.monotonic() - started > self._timeout:
                    self.violations.append(f"acked document {doc.doc_id} is not searchable")
                    break
                await asyncio.sleep(0.05)
            if n < SPOT_FETCHES:
                # Entered at the origin: its replicas may not hold the
                # document yet (only the traced run waits for them).
                data = await fleet.fetch_content(doc.doc_id, [fleet.addresses[pid]])
                if data != doc.text.encode():
                    self.violations.append(f"acked document {doc.doc_id} fetched wrong")

    # -- output checks -------------------------------------------------------

    def _check_outputs(self) -> None:
        """Recall against the full-directory oracle, stale serves, fetch
        digests.  Two recall gates: 50 sampled queries re-asked one at a
        time after the window must reach 0.98, and the answers given
        during the window must reach 0.97 on average.  The second floor
        is lower because the search client shares one adaptive-stopping
        state between concurrent searches, so overlapping queries cut one
        another short (measured: recall 1.0 serial, 0.96 at four in
        flight) — a defect of the program that this benchmark records,
        must not trip over at random, and must not let get worse."""
        w = self.w
        if w.answers:
            oracle = self._oracle

            def recall(query: str, got: list[str]) -> float:
                return recall_at_k(oracle.ranked_ids(query, inputs.TOP_K), got)

            # In completion order and sliced like the mean latency: the
            # pile-up behind one stall of the host cuts a burst of answers
            # short (0.958 over a whole window once); the host did that.
            self.recall_in_window = sliced(
                [recall(q, got) for q, got in w.answers.values()], statistics.fmean)
            self.recall = statistics.fmean(
                recall(w.answers[i][0], got) for i, got in w.answers_serial.items())
            if self.recall < RECALL_FLOOR:
                self.violations.append(
                    f"ranked recall {self.recall:.3f} < {RECALL_FLOOR} on "
                    f"{len(w.answers_serial)} queries re-asked serially")
            if self.recall_in_window < RECALL_IN_WINDOW_FLOOR:
                self.violations.append(
                    f"ranked recall {self.recall_in_window:.3f} < {RECALL_IN_WINDOW_FLOOR} "
                    f"on the {len(w.answers)} answers given in the window (median slice)")
        if w.stale_serves:
            self.violations.append(f"{w.stale_serves} stale serves")
        if w.wrong_fetches:
            self.violations.append(f"{w.wrong_fetches} fetches not byte-identical")

    @functools.cached_property
    def _oracle(self) -> FleetOracle:
        return FleetOracle(self.scenario)

    # -- assembling the result -----------------------------------------------

    def _assemble(self, record, setup_s, before, after, direct, transport_deltas) -> dict:
        w = self.w
        logs = [log for log in (w.queries, w.publishes, w.fetches) if log is not None]
        attempted = sum(log.attempted for log in logs)
        failed = sum(log.failed for log in logs)
        if self.workload == "fetch_mixed":
            ops = w.fetched_bytes / 1e6
        elif self.workload == "ingest":
            ops = w.publishes.completed
        else:
            ops = w.queries.completed
        ops = max(ops, 1e-9)
        window_s = after.at - before.at
        cpu_s = (
            sum(after.node_cpu_s.values()) - sum(before.node_cpu_s.values())
            + after.observer_cpu_s - before.observer_cpu_s
        )
        # p99 of the generator's lateness, or the highest percentile a
        # short window's sample supports.
        late = w.queries.late_s if w.queries is not None else []
        late_p99_ms = (
            1e3 * percentile(late, min(99.0, highest_percentile(len(late)))) if late else 0.0
        )
        record.update(window_s=window_s, late_p99_ms=late_p99_ms)

        # The workload's own figures, in their own units:
        # name → (value, unit, sample count or None).
        own: dict[str, tuple] = {
            "settle_s": (record.pop("settle_s"), "s", None),
            "gossip_bytes_per_node_round": (
                outside.gossip_bytes_per_node_round(before, after), "B", None),
            "node_wire_bytes_per_op": (outside.node_wire_bytes(before, after) / ops, "B", None),
        }
        # Gossip is loaded where documents are being published; where it
        # idles its bytes are a few rare exchanges, too noisy to hold.
        wire = (
            "gossip_bytes_per_node_round" if self.workload in ("query_zipf_publish", "ingest")
            else "node_wire_bytes_per_op"
        )
        if w.queries is not None:
            lat = w.queries.latency_s
            own["query_p50_ms"] = (1e3 * percentile(lat, 50.0), "ms", len(lat))
            own["query_p90_ms"] = (1e3 * percentile(lat, 90.0), "ms", len(lat))
            # Sliced: one stall of the host moved the plain mean of a window
            # by half between identical runs.
            own["query_mean_ms"] = (1e3 * sliced(lat, statistics.fmean), "ms", len(lat))
            top = highest_percentile(len(lat))
            if top > 90.0:
                own[f"query_p{top:g}_ms"] = (1e3 * percentile(lat, top), "ms", len(lat))
            own["recall"] = (self.recall, "1", len(w.answers_serial))
            own["recall_in_window"] = (self.recall_in_window, "1", len(w.answers))
            p50 = "query_p50_ms"
            work_ms = own["query_mean_ms"][0], len(lat)
        if self.workload == "query_zipf_publish":
            own["publish_searchable_mean_s"] = (
                statistics.fmean(w.searchable_s), "s", len(w.searchable_s))
            own["cut_short_answers"] = (float(w.cut_short), "count", len(w.searchable_s))
            own["marker_false_positives"] = (
                float(w.marker_false_positives), "count", w.publishes.attempted)
            work_ms = 1e3 * statistics.fmean(w.searchable_s), len(w.searchable_s)
        if self.workload == "fetch_mixed":
            own["fetch_MBps"] = (
                w.fetched_bytes / 1e6 / w.fetches.elapsed_s, "MB/s", w.fetches.completed)
            work_ms = 1e3 / own["fetch_MBps"][0], w.fetches.completed
        if self.workload == "ingest":
            acks = w.publishes.latency_s
            own["publish_ack_p50_ms"] = (1e3 * percentile(acks, 50.0), "ms", len(acks))
            own["publish_ack_p90_ms"] = (1e3 * percentile(acks, 90.0), "ms", len(acks))
            own["publish_docs_per_s"] = (
                w.publishes.completed / w.publishes.elapsed_s, "docs/s", w.publishes.completed)
            own["gossip_drain_s"] = (w.drain_s, "s", None)
            p50 = "publish_ack_p50_ms"
            work_ms = 1e3 / own["publish_docs_per_s"][0], w.publishes.completed

        # The end-to-end metrics: name → (value, sample count or None).
        # ledger.END_TO_END says which own figure fills each slot where.
        ledger_values = {
            "setup_s": (setup_s, None),
            "op_p50_ms": (own[p50][0], own[p50][2]),
            "work_ms": work_ms,
            "wire_bytes": (own[wire][0], None),
            "cpu_ms_per_op": (1e3 * cpu_s / ops, None),
            "rss_mb_per_node": (statistics.fmean(after.node_rss_mb.values()), None),
            "failed_frac": (failed / attempted, attempted),
            "stale_serves": (float(w.stale_serves), len(w.searchable_s)),
        }
        end_to_end = {}
        for metric in END_TO_END:
            if self.workload not in metric.workloads:
                continue
            value, n = ledger_values[metric.name]
            entry = end_to_end[metric.name] = {"value": value, "unit": metric.unit}
            if n is not None:
                entry["n"] = n
            if isinstance(metric.what, dict):
                entry["is"] = metric.what[self.workload]
        reported = {}
        for name, (value, unit, n) in own.items():
            reported[name] = {"value": value, "unit": unit}
            if n is not None:
                reported[name]["n"] = n

        run = {
            "workload": self.workload,
            "record": record,
            "valid": late_p99_ms <= LATE_LIMIT_MS,
            "invalid_reason": (
                "" if late_p99_ms <= LATE_LIMIT_MS
                else f"generator ran {late_p99_ms:.1f} ms late at p99 (limit {LATE_LIMIT_MS})"
            ),
            "end_to_end": end_to_end,
            "reported": reported,
            "attempted": attempted,
            "failed": failed,
            "failure_reasons": dict(sum((log.reasons for log in logs), Counter())),
            "violations": self.violations,
        }
        if self.tracer is not None:
            publishes = len(w.published) or len(w.searchable_s)
            layer_values = outside.scraped_layers(before, after, ops, publishes)
            layer_values.update(self._span_layers(transport_deltas, late_p99_ms))
            layer_values.update(direct)
            # Only what this workload produced: a layer it does not
            # exercise has no figure, not a zero.
            run["per_layer"] = {
                name: {"value": float(value), "unit": BY_NAME[name].unit}
                for name, value in layer_values.items()
            }
            run["stack_ms_per_query"] = self._stack()
        return run

    # -- per-layer figures from the spans ------------------------------------

    def _query_spans(self) -> list[spans.Span]:
        all_spans = self.tracer.spans
        return [s for s in all_spans if all_spans[s.trace].name == "query"]

    def _span_layers(self, transport_deltas, late_p99_ms: float) -> dict[str, float]:
        w = self.w
        out = {
            "net.transport.retries": transport_deltas[0],
            "net.transport.failed_requests": transport_deltas[1],
            "content.plane.replicate_drain_s": w.replicate_drain_s,
        }
        if w.queries is not None:
            out["loadgen.late_p99_ms"] = late_p99_ms
            out["net.client.recall_in_window"] = self.recall_in_window
        if w.closed_loop_qps:
            out["serve.scheduler.closed_loop_qps"] = w.closed_loop_qps
        if self.workload == "fetch_mixed":
            out["content.retrieval.crc_rejects"] = transport_deltas[2]
        if self.workload == "ingest":
            out["gossip.drain_s"] = w.drain_s
        for p in (50.0, 90.0):  # each only where the sample supports it
            if (highest_percentile(len(w.searchable_s)) or 0.0) >= p:
                out[f"gossip.searchable_p{p:g}_s"] = percentile(w.searchable_s, p)
        t = spans.totals_by_name(self._query_spans())
        queries = t["query"].calls
        executed = t["net.client.ranked_search"].calls
        if queries:
            sched, gen = t["serve.scheduler.ranked"], t["serve.cache.generation"]
            out["serve.scheduler.self_ms_per_query"] = 1e3 * sched.self_s / queries
            out["serve.cache.generation_us_per_call"] = 1e6 * gen.duration_s / max(gen.calls, 1)
            out["serve.cache.generation_calls_per_query"] = gen.calls / queries
            out["serve.cache.hit_ratio"] = 1.0 - executed / queries
            out["trace.unattributed_frac"] = t["query"].self_s / t["query"].duration_s
            p50 = {k: percentile(v, 50.0) for k, v in w.latency_by_traced.items()}
            out["trace.overhead_frac"] = p50[True] / p50[False] - 1.0
            both = w.latency_by_traced[True] + w.latency_by_traced[False]
            for p in (90.0, 99.0):  # each only where the sample supports it
                if (highest_percentile(len(both)) or 0.0) >= p:
                    out[f"net.client.query_p{p:g}_ms"] = 1e3 * percentile(both, p)
        if executed:
            search = t["net.client.ranked_search"]
            enc, dec = t["net.codec.encode"], t["net.codec.decode"]
            req = t["net.transport.request"]
            out["net.client.search_ms_per_query"] = 1e3 * search.duration_s / executed
            out["net.client.self_ms_per_query"] = 1e3 * search.self_s / executed
            out["ranking.rank_peers_us_per_query"] = (
                1e6 * t["ranking.rank_peers"].duration_s / executed)
            out["net.codec.encode_us_per_msg"] = 1e6 * enc.duration_s / max(enc.calls, 1)
            out["net.codec.decode_us_per_msg"] = 1e6 * dec.duration_s / max(dec.calls, 1)
            out["net.codec.msgs_per_query"] = enc.calls / executed
            out["net.transport.request_us_per_rpc"] = 1e6 * req.duration_s / max(req.calls, 1)
            out["net.transport.rpcs_per_query"] = req.calls / executed
            out["net.transport.bytes_per_query"] = req.value / executed
            fresh = {id(r): (q, r) for q, r in w.executed}  # a cache hit repeats the object
            out["net.client.peers_contacted_per_query"] = statistics.fmean(
                len(r.peers_contacted) for _q, r in fresh.values())
            out["core.search.score_local_us_per_call"] = self._replay_scoring(
                list(fresh.values()))
        all_spans = self.tracer.spans
        fetches = [s for s in all_spans if s.name == "content.retrieval.fetch"]
        if fetches:
            resolves = [s for s in all_spans if s.name == "content.retrieval.resolve"]
            chunk_rpcs = [
                s for s in all_spans
                if s.name == "net.transport.request" and s.parent is not None
                and all_spans[s.parent].name == "content.retrieval.fetch"
            ]
            out["content.retrieval.fetch_ms_per_doc"] = 1e3 * statistics.fmean(
                s.duration for s in fetches)
            out["content.retrieval.resolve_ms_per_doc"] = 1e3 * statistics.fmean(
                s.duration for s in resolves)
            out["content.retrieval.chunk_rpc_us"] = 1e6 * statistics.fmean(
                s.duration for s in chunk_rpcs)
        return out

    def _replay_scoring(self, executed: list[tuple[str, object]]) -> float:
        """Remote ``score_local_documents`` runs inside the node
        processes, out of reach of spans recorded here.  Replay it: the
        oracle holds the same per-node indexes, and each traced result
        carries the terms' IPF and the peers that were asked."""
        community = self._oracle.community
        analyzer = community.analyzer
        calls, spent = 0, 0.0
        for query, result in executed[:200]:
            terms = analyzer.analyze_query(query)
            for pid in result.peers_contacted:
                if pid >= inputs.NUM_NODES:
                    continue
                index = community.peers[pid].store.index
                started = time.perf_counter()
                score_local_documents(index, terms, result.ipf, inputs.TOP_K)
                spent += time.perf_counter() - started
                calls += 1
        return 1e6 * spent / calls if calls else 0.0

    def _stack(self) -> dict[str, float]:
        """Per traced query: each layer's self time, the unattributed
        remainder, and the wall they must add up to (ms)."""
        t = spans.totals_by_name(self._query_spans())
        queries = t["query"].calls
        if not queries:
            return {}
        stack = {
            name: 1e3 * totals.self_s / queries
            for name, totals in sorted(t.items()) if name != "query"
        }
        stack["unattributed"] = 1e3 * t["query"].self_s / queries
        stack["wall"] = 1e3 * t["query"].duration_s / queries
        return stack
