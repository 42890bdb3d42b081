"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The paper's evaluation is all measurement — per-peer gossip bandwidth
(Fig 4c, Table 2), convergence times (Figs 2-5), search fan-out (Fig 6,
Table 3) — and the simulator has plumbing for it, but a live
:class:`~repro.net.node.NetworkPeer` needs its own: cheap, dependency-free
instruments it can bump on the hot path and export on demand.

One :class:`Registry` serves a whole process.  Instruments are keyed by
``(component, name)`` — ``("transport", "bytes_sent_total")``,
``("node", "gossip_rounds_total")`` — so every subsystem registers into
the same namespace and a single :meth:`Registry.render_text` dump (or
:meth:`Registry.samples` flattening, used by the ``StatsResponse`` wire
message) covers the node.

Three instrument kinds, all thread-safe (metrics may be bumped from
worker threads even though the node itself is asyncio single-threaded):

* :class:`Counter` — monotone float accumulator (``inc`` rejects
  negative deltas);
* :class:`Gauge` — a value that can go both ways (queue depths,
  directory size);
* :class:`Histogram` — fixed upper-bound buckets in the Prometheus
  style.  :meth:`Histogram.snapshot` returns an immutable
  :class:`HistogramSnapshot` that merges associatively across peers —
  the gossip-aggregation-friendly shape (cf. Cafaro et al., mining
  frequent items in unstructured P2P networks) — and estimates
  quantiles by linear interpolation within a bucket.

:meth:`Registry.render_text` emits the Prometheus text exposition format
(``# HELP`` / ``# TYPE`` plus samples, histograms as cumulative
``_bucket{le=...}`` series with ``_sum`` and ``_count``), so any scraper
pointed at a dump of a live node can ingest it.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.obs.trace import TraceLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "Registry",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_SIZE_BOUNDS",
    "DEFAULT_COUNT_BOUNDS",
    "format_non_finite",
]

#: Per-request latency buckets (seconds): sub-millisecond loopback up to
#: multi-second WAN retries.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Message/filter size buckets (bytes): Table 1/2 quantities span a few
#: bytes (AE digests) up to tens of KB (uncompressed 50 KB filters).
DEFAULT_SIZE_BOUNDS: tuple[float, ...] = (
    16, 64, 256, 1024, 4096, 16384, 65536, 262144,
)

#: Small-cardinality buckets (peers contacted per query, wave sizes).
DEFAULT_COUNT_BOUNDS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


class Counter:
    """A monotonically increasing float total."""

    __slots__ = ("component", "name", "help", "prom_name", "_value", "_lock")

    def __init__(self, component: str, name: str, help: str = "") -> None:
        self.component = component
        self.name = name
        self.help = help
        self.prom_name = _prom_name(component, name)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the total."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        # Direct acquire/release beats the context-manager protocol on
        # this hot path (no __enter__/__exit__ lookups per increment).
        lock = self._lock
        lock.acquire()
        self._value += amount
        lock.release()

    @property
    def value(self) -> float:
        """The current total."""
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.component}.{self.name}={self._value})"


class Gauge:
    """A value that can rise and fall (depths, sizes, temperatures)."""

    __slots__ = ("component", "name", "help", "prom_name", "_value", "_lock")

    def __init__(self, component: str, name: str, help: str = "") -> None:
        self.component = component
        self.name = name
        self.help = help
        self.prom_name = _prom_name(component, name)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        value = float(value)
        lock = self._lock
        lock.acquire()
        self._value = value
        lock.release()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        lock = self._lock
        lock.acquire()
        self._value += amount
        lock.release()

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current value."""
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.component}.{self.name}={self._value})"


@dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable, mergeable view of a histogram at one instant.

    ``bounds`` are the finite bucket upper bounds; ``counts`` has one
    entry per bound plus a final overflow (``+Inf``) bucket.  Merging is
    element-wise addition, so it is associative and commutative — a set
    of per-peer snapshots can be gossip-aggregated in any order and
    every peer converges to the same community histogram.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    total: int
    sum: float

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two snapshots of identically-bucketed histograms."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        return HistogramSnapshot(
            self.bounds,
            tuple(a + b for a, b in zip(self.counts, other.counts)),
            self.total + other.total,
            self.sum + other.sum,
        )

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) from the buckets.

        Linear interpolation inside the containing bucket, Prometheus
        style: observations in the overflow bucket clamp to the highest
        finite bound.  Returns 0.0 for an empty snapshot.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.bounds, self.counts):
            next_cumulative = cumulative + count
            if rank <= next_cumulative and count > 0:
                frac = (rank - cumulative) / count
                return lower + frac * (bound - lower)
            cumulative = next_cumulative
            lower = bound
        return self.bounds[-1] if self.bounds else 0.0

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0


class Histogram:
    """Fixed-bucket histogram of non-negative observations."""

    __slots__ = (
        "component", "name", "help", "prom_name", "bounds", "bucket_names",
        "_counts", "_sum", "_lock",
    )

    def __init__(
        self,
        component: str,
        name: str,
        help: str = "",
        bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS,
    ) -> None:
        self.component = component
        self.name = name
        self.help = help
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.bounds = bounds
        self.prom_name = base = _prom_name(component, name)
        #: the cumulative ``_bucket{le=...}`` series names, +Inf last
        self.bucket_names = tuple(
            f'{base}_bucket{{le="{le}"}}' for le in (*map(_fmt, bounds), "+Inf")
        )
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        # Bisect is overkill for ~14 buckets; a linear scan is cheaper
        # than the function-call overhead on this hot path.
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        lock = self._lock
        lock.acquire()
        self._counts[idx] += 1
        self._sum += value
        lock.release()

    def snapshot(self) -> HistogramSnapshot:
        """An immutable copy of the current state."""
        with self._lock:
            counts = tuple(self._counts)
            total = sum(counts)
            return HistogramSnapshot(self.bounds, counts, total, self._sum)

    def __repr__(self) -> str:
        snap = self.snapshot()
        return f"Histogram({self.component}.{self.name} n={snap.total})"


def _prom_name(component: str, name: str) -> str:
    """``(component, name)`` -> a legal Prometheus metric name."""
    raw = f"planetp_{component}_{name}"
    return "".join(c if c.isalnum() or c == "_" else "_" for c in raw)


class Registry:
    """One process-wide home for every instrument, keyed by component.

    ``clock`` stamps trace events (inject a
    :class:`~repro.net.chaos.VirtualClock` for deterministic tests);
    the embedded :attr:`trace` ring buffer makes the registry the single
    observability hand-off between a node and its tests.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.time,
        trace_capacity: int = 1024,
    ) -> None:
        self.clock = clock
        self.trace = TraceLog(capacity=trace_capacity, clock=clock)
        self._instruments: dict[tuple[str, str], Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------

    def _get_or_create(self, cls, component: str, name: str, **kwargs):
        key = (component, name)
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"{component}.{name} is a {type(existing).__name__}, "
                        f"not a {cls.__name__}"
                    )
                return existing
            instrument = cls(component, name, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, component: str, name: str, help: str = "") -> Counter:
        """Get or create the counter ``component.name``."""
        return self._get_or_create(Counter, component, name, help=help)

    def gauge(self, component: str, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``component.name``."""
        return self._get_or_create(Gauge, component, name, help=help)

    def histogram(
        self,
        component: str,
        name: str,
        help: str = "",
        bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS,
    ) -> Histogram:
        """Get or create the histogram ``component.name``."""
        return self._get_or_create(
            Histogram, component, name, help=help, bounds=bounds
        )

    def emit(self, kind: str, /, **fields) -> None:
        """Shorthand for ``registry.trace.emit(kind, **fields)``."""
        self.trace.emit(kind, **fields)

    # -- introspection -------------------------------------------------------

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        """Every registered instrument, sorted by (component, name)."""
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def value(self, component: str, name: str) -> float:
        """Current value of a counter/gauge (0.0 if never registered)."""
        instrument = self._instruments.get((component, name))
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise TypeError(f"{component}.{name} is a histogram; use samples()")
        return instrument.value

    def snapshot(self, component: str, name: str) -> HistogramSnapshot | None:
        """Snapshot of the histogram ``component.name`` (None if absent
        or not a histogram) — the quantile source for latency reporting."""
        instrument = self._instruments.get((component, name))
        if not isinstance(instrument, Histogram):
            return None
        return instrument.snapshot()

    def samples(self) -> list[tuple[str, float]]:
        """Every sample as flat ``(prometheus_name, value)`` pairs.

        Histograms flatten into their cumulative ``_bucket{le=...}``
        series plus ``_sum`` and ``_count`` — the exact sample set
        :meth:`render_text` would emit, and what travels in a
        ``StatsResponse``.
        """
        out: list[tuple[str, float]] = []
        for instrument in self.instruments():
            base = instrument.prom_name
            if isinstance(instrument, (Counter, Gauge)):
                out.append((base, instrument.value))
            else:
                snap = instrument.snapshot()
                out.extend(zip(instrument.bucket_names, itertools.accumulate(snap.counts)))
                out.append((f"{base}_sum", snap.sum))
                out.append((f"{base}_count", snap.total))
        return out

    def render_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for instrument in self.instruments():
            base = instrument.prom_name
            help_text = instrument.help or f"{instrument.component} {instrument.name}"
            lines.append(f"# HELP {base} {_escape_help(help_text)}")
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {base} counter")
                lines.append(f"{base} {_fmt(instrument.value)}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base} {_fmt(instrument.value)}")
            else:
                snap = instrument.snapshot()
                lines.append(f"# TYPE {base} histogram")
                for series, cumulative in zip(
                    instrument.bucket_names, itertools.accumulate(snap.counts)
                ):
                    lines.append(f"{series} {cumulative}")
                lines.append(f"{base}_sum {_fmt(snap.sum)}")
                lines.append(f"{base}_count {snap.total}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus expects (ints bare;
    ``+Inf`` / ``-Inf`` / ``NaN`` spelled as the text format spells them)."""
    if not math.isfinite(value):
        return format_non_finite(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def format_non_finite(value: float) -> str:
    """``+Inf``, ``-Inf`` or ``NaN``: a non-finite sample value as the
    Prometheus text format spells it."""
    if math.isnan(value):
        return "NaN"
    return "+Inf" if value > 0 else "-Inf"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")
