"""Fleet-free self-tests of the harness (``python -m pytest benchmarks/e2e -q``).

Outside ``testpaths``, so the tier-1 run does not collect them.  They
cover the parts of the harness a wrong number could hide in: open-loop
latency accounting, span self-time, input determinism, the percentile
helper, and the ``--compare`` verdicts.
"""

from __future__ import annotations

import _bootstrap

import asyncio
import hashlib
import itertools
import json
import statistics

import pytest

import bench_e2e
import inputs
import ledger
import spans
from loadgen import closed_loop, highest_percentile, open_loop, percentile, sliced


# -- open-loop accounting ----------------------------------------------------


def test_open_loop_charges_a_stall_to_the_requests_it_delayed():
    now = [0.0]

    async def sleep(delay: float) -> None:
        wake = now[0] + delay
        await asyncio.sleep(0)  # the operations already sent run meanwhile
        now[0] = max(now[0], wake)  # a timer cannot fire while the loop is held

    async def op(i: int, _due: float) -> bool:
        if i == 2:
            now[0] += 1.0  # blocks the loop: nothing else can be sent
        return True

    log = asyncio.run(open_loop(10.0, 1.0, op, clock=lambda: now[0], sleep=sleep))
    # Requests 3..9 were due at 0.3..0.9 but could only be sent at 1.2:
    # timed from the due time they carry the stall, 0.9 s down to 0.3 s.
    expected = [0.0, 0.0, 1.0] + [1.2 - i / 10 for i in range(3, 10)]
    assert sorted(log.latency_s) == pytest.approx(sorted(expected))
    assert log.late_s[:3] == pytest.approx([0.0, 0.0, 0.0])
    assert log.late_s[3:] == pytest.approx([1.2 - i / 10 for i in range(3, 10)])
    assert (log.attempted, log.failed) == (10, 0)


def test_a_failed_operation_stays_in_the_sample_and_is_counted():
    async def op(i: int, _due: float) -> bool:
        if i == 1:
            raise RuntimeError("refused")
        return i != 2  # falsy: a wrong answer

    log = asyncio.run(open_loop(1000.0, 0.005, op))
    assert (log.attempted, log.failed, log.completed) == (5, 2, 3)
    assert log.reasons == {"RuntimeError": 1, "wrong": 1}
    assert sorted(log.latency_s)[-2:] == [float("inf")] * 2


def test_closed_loop_sends_the_next_request_only_after_the_reply():
    inflight = [0]
    peak = [0]

    async def op(_client: int, _i: int) -> bool:
        inflight[0] += 1
        peak[0] = max(peak[0], inflight[0])
        await asyncio.sleep(0.001)
        inflight[0] -= 1
        return True

    log = asyncio.run(closed_loop(2, 0.05, op))
    assert peak[0] == 2 and log.attempted >= 4 and log.failed == 0


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    rows = [
        spans.Span(0, None, 0, "parent", 0.0, 10.0),
        spans.Span(1, 0, 0, "child", 1.0, 5.0),
        spans.Span(2, 0, 0, "child", 3.0, 8.0),  # overlaps the first
        spans.Span(3, 0, 0, "child", 9.0, 12.0),  # clipped to the parent
        spans.Span(4, 2, 0, "grandchild", 4.0, 6.0),
    ]
    own = spans.self_times(rows)
    assert own[0] == pytest.approx(10.0 - (7.0 + 1.0))
    assert own[2] == pytest.approx(5.0 - 2.0)
    totals = spans.totals_by_name(rows)
    assert totals["child"].calls == 3
    assert totals["child"].self_s == pytest.approx(4.0 + 3.0 + 3.0)


def test_spans_nest_across_await_and_into_spawned_tasks():
    class Layer:
        async def fan_out(self):
            return await asyncio.gather(self.leaf(0.002), self.leaf(0.004))

        async def leaf(self, delay):
            await asyncio.sleep(delay)
            return delay

    layer = Layer()
    tracer = spans.Tracer()
    tracer.patch(layer, "fan_out", "layer.fan_out")
    tracer.patch(layer, "leaf", "layer.leaf")

    async def main():
        await layer.fan_out()  # no trace root: must not be recorded
        with tracer.root("op"):
            await layer.fan_out()

    asyncio.run(main())
    names = [s.name for s in tracer.spans]
    assert names == ["op", "layer.fan_out", "layer.leaf", "layer.leaf"]
    root, fan, a, b = tracer.spans
    assert (fan.parent, a.parent, b.parent) == (root.id, fan.id, fan.id)
    assert {s.trace for s in tracer.spans} == {root.id}
    own = spans.self_times(tracer.spans)
    # The two leaves overlap: the fan-out's self time is what the longer
    # one leaves uncovered, not duration minus the sum of both.
    assert own[fan.id] == pytest.approx(fan.duration - (max(a.end, b.end) - min(a.start, b.start)))
    tracer.uninstall()
    assert "fan_out" not in vars(layer)


# -- inputs ----------------------------------------------------------------------


def _digest(seed: int) -> str:
    h = hashlib.sha256()
    for docs in inputs.scenario(seed).corpus:
        for doc in docs:
            h.update(f"{doc.doc_id}\0{doc.text}\0".encode())
    for q in inputs.distinct_queries(seed, 200):
        h.update(q.encode())
    fixed, stream = inputs.zipf_query_stream(seed, 500)
    h.update(json.dumps([fixed, stream]).encode())
    for pid, mark, doc in inputs.marker_docs(seed, 20):
        h.update(f"{pid}{mark}{doc.text}".encode())
    for pid, mark, doc in itertools.islice(inputs.ingest_docs(seed, 1), 5):
        h.update(f"{pid}{mark}{doc.text}".encode())
    for pid, doc in inputs.blobs(seed):
        h.update(f"{pid}{doc.doc_id}".encode() + doc.text.encode())
    return h.hexdigest()


def test_inputs_are_bit_identical_per_seed():
    assert _digest(7) == _digest(7)
    assert _digest(7) != _digest(8)


def test_input_shapes():
    scenario = inputs.scenario(3, durable=True)
    assert len(scenario.corpus) == 12 and all(len(d) == 20 for d in scenario.corpus)
    assert scenario.durable_pids == tuple(range(12))
    assert inputs.scenario(3).durable_pids == ()
    queries = inputs.distinct_queries(3, 1500)
    assert len({tuple(sorted(q.split())) for q in queries}) == 1500
    fixed, stream = inputs.zipf_query_stream(3, 4000)
    assert len(fixed) == 200 and all(len(q.split()) == 2 for q in fixed)
    # Zipf(1): rank 0 is asked about twice as often as rank 1.
    assert 1.5 < stream.count(0) / stream.count(1) < 2.7
    (_pid, doc), *_ = inputs.blobs(3)
    assert len(doc.text.encode()) == inputs.BLOB_BYTES
    _pid, _mark, ingest = next(inputs.ingest_docs(3, 0))
    assert 1800 < len(ingest.text) < 2400


# -- percentiles -------------------------------------------------------------------


def test_percentile_is_nearest_rank_and_refuses_thin_tails():
    values = list(range(1, 1001))
    assert percentile(values, 50.0) == 500
    assert percentile(values, 90.0) == 900
    assert percentile(values, 99.0) == 990  # exactly ten samples beyond
    with pytest.raises(ValueError, match="beyond"):
        percentile(values[:999], 99.0)
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(19)), 50.0)
    assert highest_percentile(1000) == 99.0
    assert highest_percentile(500) == 90.0
    assert highest_percentile(10_000) == 99.9
    assert highest_percentile(5) is None


def test_sliced_is_the_median_over_runs_of_100_so_a_stall_spoils_one_run():
    values = [1.0] * 1000
    values[300:400] = [50.0] * 100  # a stall: one run of 100 is slow
    assert statistics.fmean(values) > 5.0
    assert sliced(values, statistics.fmean) == 1.0
    assert sliced(values, lambda run: percentile(run, 90.0)) == 1.0
    # a last partial run is left out; a sample shorter than one run is taken whole
    assert sliced([1.0] * 100 + [9.0] * 50, max) == 1.0
    assert sliced([2.0, 4.0], statistics.fmean) == 3.0


# -- the ledger and --compare ------------------------------------------------------


def _run(workload: str, **values: float) -> dict:
    return {
        "workload": workload,
        "valid": True,
        "record": {"trace": 0},
        "end_to_end": {k: {"value": v, "unit": "x"} for k, v in values.items()},
    }


def test_compare_verdicts():
    base = [_run("ingest", work_ms=v, op_p50_ms=20.0) for v in (9.9, 10.0, 10.1)]
    slower = [_run("ingest", work_ms=v, op_p50_ms=20.5) for v in (13.4, 13.5, 13.6)]
    noisy = [_run("ingest", work_ms=v, op_p50_ms=20.0) for v in (6.0, 10.0, 14.0)]
    verdict = lambda rows: {r["metric"]: r["verdict"] for r in rows}  # noqa: E731
    assert verdict(ledger.compare_rows(base, base)) == {"work_ms": "ok", "op_p50_ms": "ok"}
    # 35 % more time per document (bound 25 %); the latency moved 2.5 %.
    assert verdict(ledger.compare_rows(base, slower)) == {
        "work_ms": "regressed", "op_p50_ms": "ok"}
    # a spread wider than the bound cannot show "unchanged".
    assert verdict(ledger.compare_rows(base, noisy))["work_ms"] == "unresolved"
    # a must-be-zero metric regresses on any increase.
    failing = [_run("ingest", failed_frac=v) for v in (0.0, 0.001, 0.001)]
    clean = [_run("ingest", failed_frac=0.0)] * 3
    assert verdict(ledger.compare_rows(clean, failing)) == {"failed_frac": "regressed"}
    text = ledger.format_compare(ledger.compare_rows(base, slower))
    assert "regressed (3/3)" in text


def test_compare_ignores_invalid_and_traced_runs():
    good = _run("query_distinct", op_p50_ms=5.0)
    late = {**_run("query_distinct", op_p50_ms=50.0), "valid": False}
    traced = {**_run("query_distinct", op_p50_ms=50.0), "record": {"trace": 1}}
    (row,) = ledger.compare_rows([good], [good, late, traced])
    assert (row["b"], row["n_b"], row["verdict"]) == (5.0, 1, "ok")


def test_driver_line_carries_exactly_the_contract_metrics():
    entry = {"value": 1.5, "unit": "ms"}
    run = {
        "record": {"trace": 0}, "violations": [], "attempted": 10, "failed": 0,
        "end_to_end": {m.name: entry for m in ledger.END_TO_END},
        "per_layer": {"trace.overhead_frac": {"value": float("inf"), "unit": "1"}},
    }
    line = json.loads(bench_e2e.driver_line(run))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    # the must-be-zero two travel as `failed` and `correct`, not as metrics
    assert list(line["metrics"]) == [
        m.name for m in ledger.END_TO_END if m.name not in ("failed_frac", "stale_serves")]
    run["record"]["trace"] = 1
    traced = json.loads(bench_e2e.driver_line(run))["metrics"]
    assert list(traced) == [m.name for m in ledger.PER_LAYER]
    assert traced["trace.overhead_frac"]["value"] == 1e12  # JSON has no infinity
    assert traced["gossip.drain_s"]["value"] == 0.0  # not produced by this run


def test_every_slot_names_the_figure_that_fills_it_on_every_workload():
    slots = [m for m in ledger.END_TO_END if isinstance(m.what, dict)]
    assert [m.name for m in slots] == ["op_p50_ms", "work_ms", "wire_bytes"]
    for m in slots:
        assert tuple(m.what) == ledger.WORKLOADS == m.workloads


def test_benchmark_json_matches_the_harness():
    contract = json.loads((_bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(ledger.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in ledger.DRIVER_METRICS]
    assert [m["name"] for m in contract["per_layer"]] == [m.name for m in ledger.PER_LAYER]
    for m in contract["per_layer"]:
        assert (m["unit"], m["better"]) == (ledger.BY_NAME[m["name"]].unit,
                                            ledger.BY_NAME[m["name"]].better)
    assert contract["command"] == ["python3", "benchmarks/e2e/bench_e2e.py"]
    assert contract["run_seconds"] == bench_e2e.parse_args([]).seconds
