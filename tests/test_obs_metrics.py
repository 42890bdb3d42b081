"""Unit tests for repro.obs: instruments, registry, traces, exposition.

The Prometheus text format is checked with a small strict parser rather
than eyeballing substrings: every non-comment line must match the sample
grammar, every sample must be preceded by HELP/TYPE for its family, and
histogram bucket series must be cumulative with ``le="+Inf"`` equal to
``_count``.
"""

import json
import re

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    Registry,
    TraceLog,
    global_registry,
    set_global_registry,
)

# ---------------------------------------------------------------------------
# Counter / Gauge
# ---------------------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("t", "x_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        c = Counter("t", "x_total")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0

    def test_zero_increment_allowed(self):
        c = Counter("t", "x_total")
        c.inc(0)
        assert c.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("t", "depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12.0
        g.inc(-20)
        assert g.value == -8.0


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_bucketing_and_overflow(self):
        h = Histogram("t", "lat", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        # le=1.0 gets 0.5 and the boundary value 1.0 (le is inclusive).
        assert snap.counts == (2, 1, 1, 1)
        assert snap.total == 5
        assert snap.sum == pytest.approx(106.0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", "h", bounds=())
        with pytest.raises(ValueError):
            Histogram("t", "h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t", "h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t", "h", bounds=(1.0, float("inf")))

    def test_snapshot_is_frozen(self):
        h = Histogram("t", "h", bounds=(1.0,))
        snap = h.snapshot()
        with pytest.raises(AttributeError):
            snap.total = 99

    def test_merge_requires_same_bounds(self):
        a = Histogram("t", "a", bounds=(1.0, 2.0)).snapshot()
        b = Histogram("t", "b", bounds=(1.0, 3.0)).snapshot()
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_adds_elementwise(self):
        ha = Histogram("t", "a", bounds=(1.0, 2.0))
        hb = Histogram("t", "b", bounds=(1.0, 2.0))
        ha.observe(0.5)
        hb.observe(1.5)
        hb.observe(5.0)
        merged = ha.snapshot().merge(hb.snapshot())
        assert merged.counts == (1, 1, 1)
        assert merged.total == 3
        assert merged.sum == pytest.approx(7.0)

    def test_quantiles(self):
        h = Histogram("t", "h", bounds=(10.0, 20.0, 30.0))
        for _ in range(10):
            h.observe(5.0)  # all in the first bucket
        snap = h.snapshot()
        assert snap.quantile(0.0) == 0.0
        # Median of a full first bucket interpolates to its middle.
        assert snap.quantile(0.5) == pytest.approx(5.0)
        assert snap.quantile(1.0) == pytest.approx(10.0)

    def test_quantile_overflow_clamps_to_last_bound(self):
        h = Histogram("t", "h", bounds=(1.0, 2.0))
        h.observe(50.0)
        assert h.snapshot().quantile(0.99) == 2.0

    def test_quantile_empty_and_domain(self):
        snap = Histogram("t", "h", bounds=(1.0,)).snapshot()
        assert snap.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            snap.quantile(1.5)
        with pytest.raises(ValueError):
            snap.quantile(-0.1)

    def test_mean(self):
        h = Histogram("t", "h", bounds=(100.0,))
        assert h.snapshot().mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.snapshot().mean == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# TraceLog
# ---------------------------------------------------------------------------


class TestTraceLog:
    def test_emit_and_filter(self):
        ticks = iter(range(100))
        log = TraceLog(capacity=8, clock=lambda: next(ticks))
        log.emit("round_started", peer=1)
        log.emit("rumor_pushed", peer=1, target=2)
        log.emit("round_started", peer=2)
        assert len(log) == 3
        rounds = log.events("round_started")
        assert [e.fields["peer"] for e in rounds] == [1, 2]
        assert rounds[0].seq == 0 and rounds[1].seq == 2
        assert rounds[0].time == 0.0

    def test_ring_eviction_counts_dropped(self):
        log = TraceLog(capacity=3)
        for i in range(5):
            log.emit("e", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.fields["i"] for e in log.events()] == [2, 3, 4]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)

    def test_jsonl_roundtrip(self):
        log = TraceLog(clock=lambda: 1.5)
        log.emit("peer_offline", peer=3, target="peer:4", failures=2)
        log.emit("fault_injected", fault="drops")
        text = log.to_jsonl()
        assert text.endswith("\n")
        records = [json.loads(line) for line in text.splitlines()]
        assert records[0] == {
            "seq": 0,
            "time": 1.5,
            "kind": "peer_offline",
            "peer": 3,
            "target": "peer:4",
            "failures": 2,
        }
        assert records[1]["fault"] == "drops"

    def test_empty_jsonl(self):
        assert TraceLog().to_jsonl() == ""

    def test_clear_keeps_sequence(self):
        log = TraceLog()
        log.emit("a")
        log.clear()
        assert len(log) == 0
        assert log.emit("b").seq == 1

    def test_kind_is_positional_only(self):
        # A field literally named "kind" must not collide with the tag.
        event = TraceLog().emit("tagged", kind="field-value")
        assert event.kind == "tagged"
        assert event.fields["kind"] == "field-value"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = Registry()
        a = reg.counter("node", "rounds_total")
        b = reg.counter("node", "rounds_total")
        assert a is b
        a.inc()
        assert reg.value("node", "rounds_total") == 1.0

    def test_kind_conflict_raises(self):
        reg = Registry()
        reg.counter("node", "x")
        with pytest.raises(TypeError):
            reg.gauge("node", "x")
        reg.histogram("node", "h")
        with pytest.raises(TypeError):
            reg.value("node", "h")

    def test_value_of_unregistered_is_zero(self):
        assert Registry().value("nobody", "nothing") == 0.0

    def test_instruments_sorted(self):
        reg = Registry()
        reg.counter("z", "a")
        reg.counter("a", "z")
        reg.counter("a", "a")
        keys = [(i.component, i.name) for i in reg.instruments()]
        assert keys == sorted(keys)

    def test_samples_flatten_histograms(self):
        reg = Registry()
        reg.counter("t", "c_total").inc(3)
        h = reg.histogram("t", "lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        samples = dict(reg.samples())
        assert samples["planetp_t_c_total"] == 3.0
        assert samples['planetp_t_lat_bucket{le="1"}'] == 1.0
        assert samples['planetp_t_lat_bucket{le="2"}'] == 1.0
        assert samples['planetp_t_lat_bucket{le="+Inf"}'] == 2.0
        assert samples["planetp_t_lat_count"] == 2.0
        assert samples["planetp_t_lat_sum"] == pytest.approx(5.5)

    def test_emit_feeds_embedded_trace(self):
        reg = Registry(clock=lambda: 7.0)
        reg.emit("round_started", peer=0)
        assert reg.trace.events("round_started")[0].time == 7.0


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^({_NAME})(\{{le=\"[^\"]+\"\}})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
)


def _parse_exposition(text: str) -> dict[str, dict]:
    """Strict mini-parser: returns family -> {type, samples: [(name, labels, value)]}."""
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert re.fullmatch(_NAME, name)
            assert name not in families, f"duplicate HELP for {name}"
            families[name] = {"type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(maxsplit=3)
            assert name == current, "TYPE must follow its HELP"
            assert kind in ("counter", "gauge", "histogram")
            families[name]["type"] = kind
        else:
            m = _SAMPLE_RE.match(line)
            assert m, f"unparseable sample line: {line!r}"
            sample_name, labels, value = m.group(1), m.group(2), float(m.group(3))
            base = re.sub(r"_(bucket|sum|count)$", "", sample_name)
            family = sample_name if sample_name in families else base
            assert family == current, f"sample {sample_name} outside its family"
            families[family]["samples"].append((sample_name, labels, value))
    return families


class TestRenderText:
    def _populated(self) -> Registry:
        reg = Registry()
        reg.counter("transport", "bytes_sent_total", "bytes sent").inc(1234)
        reg.gauge("node", "directory_size", "known peers").set(6)
        h = reg.histogram("transport", "request_latency_seconds", bounds=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        return reg

    def test_valid_exposition(self):
        families = _parse_exposition(self._populated().render_text())
        assert families["planetp_transport_bytes_sent_total"]["type"] == "counter"
        assert families["planetp_node_directory_size"]["type"] == "gauge"
        assert (
            families["planetp_transport_request_latency_seconds"]["type"] == "histogram"
        )

    def test_histogram_buckets_cumulative_and_consistent(self):
        families = _parse_exposition(self._populated().render_text())
        fam = families["planetp_transport_request_latency_seconds"]
        buckets = [
            (labels, value)
            for name, labels, value in fam["samples"]
            if name.endswith("_bucket")
        ]
        values = [v for _, v in buckets]
        assert values == sorted(values), "bucket series must be cumulative"
        assert buckets[-1][0] == '{le="+Inf"}'
        count = next(v for n, _, v in fam["samples"] if n.endswith("_count"))
        assert values[-1] == count == 4

    def test_counter_sample_matches_value(self):
        families = _parse_exposition(self._populated().render_text())
        name, labels, value = families["planetp_transport_bytes_sent_total"]["samples"][0]
        assert labels is None and value == 1234.0

    def test_name_mangling(self):
        reg = Registry()
        reg.counter("net-io", "bytes.sent")
        families = _parse_exposition(reg.render_text())
        assert "planetp_net_io_bytes_sent" in families

    def test_samples_agree_with_render_text(self):
        reg = self._populated()
        rendered = {
            line.rsplit(" ", 1)[0]
            for line in reg.render_text().splitlines()
            if not line.startswith("#")
        }
        # samples() flattens to exactly the sample names render_text emits.
        assert {name for name, _ in reg.samples()} == rendered

    def test_samples_pinned(self):
        # Names are built once per instrument; a scrape must still flatten
        # to exactly these pairs, in this order.
        reg = self._populated()
        reg.gauge("serve-cache", "hit ratio").set(-3)
        assert reg.samples() == [
            ("planetp_node_directory_size", 6.0),
            ("planetp_serve_cache_hit_ratio", -3.0),
            ("planetp_transport_bytes_sent_total", 1234.0),
            ('planetp_transport_request_latency_seconds_bucket{le="0.01"}', 1),
            ('planetp_transport_request_latency_seconds_bucket{le="0.1"}', 2),
            ('planetp_transport_request_latency_seconds_bucket{le="1"}', 3),
            ('planetp_transport_request_latency_seconds_bucket{le="+Inf"}', 4),
            ("planetp_transport_request_latency_seconds_sum", 5.555),
            ("planetp_transport_request_latency_seconds_count", 4),
        ]

    def test_non_finite_values(self):
        reg = Registry()
        reg.gauge("x", "up").set(float("inf"))
        reg.gauge("x", "down").set(float("-inf"))
        reg.gauge("x", "undefined").set(float("nan"))
        families = _parse_exposition(reg.render_text())
        assert [
            line.split()[1]
            for line in reg.render_text().splitlines()
            if not line.startswith("#")
        ] == ["-Inf", "NaN", "+Inf"]
        assert families["planetp_x_up"]["samples"][0][2] == float("inf")


# ---------------------------------------------------------------------------
# Global registry plumbing
# ---------------------------------------------------------------------------


class TestGlobalRegistry:
    def test_singleton_and_swap(self):
        original = global_registry()
        assert global_registry() is original
        mine = Registry()
        previous = set_global_registry(mine)
        try:
            assert previous is original
            assert global_registry() is mine
        finally:
            set_global_registry(previous)
        assert global_registry() is original
