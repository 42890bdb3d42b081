"""Spans recorded from outside the program.

Nothing under ``src/`` knows it is being traced.  :func:`install` wraps
the *public* callables at each layer seam — a bound method replaced on
one instance, or a module attribute the caller looks up at call time —
and each wrapper records ``(id, parent, trace, name, start, end, value)``
into a list held in memory.  The parent travels in a context variable,
so spans nest correctly across ``await`` and into the tasks a layer
spawns (a task copies its creator's context).

A wrapper does nothing but call through unless a trace root is active in
the calling context: the observer's own gossip rounds and the harness's
stats scrapes hit the same codec and transport and are not recorded, and
the untraced half of a traced run pays one context-variable read.

A layer's **self time** is its span minus the part of that interval its
child spans cover (children may overlap one another — a fan-out — so it
is the *union* of their intervals that is subtracted).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "bench_e2e_span", default=None
)


@dataclass
class Span:
    id: int
    parent: int | None
    #: one id per query / fetch / publish; shared by every span it caused.
    trace: int
    name: str
    start: float
    end: float = 0.0
    #: layer-specific count recorded at the same boundary (bytes moved).
    value: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span sink plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, parent: Span | None, start: float | None = None) -> Span:
        sid = len(self.spans)
        span = Span(
            sid,
            parent.id if parent is not None else None,
            parent.trace if parent is not None else sid,
            name,
            self.clock() if start is None else start,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def root(self, name: str, start: float | None = None) -> Iterator[Span]:
        """Open a trace: every wrapped call made inside (and in tasks
        spawned inside) becomes a descendant span.  ``start`` backdates
        the root to an open-loop request's due time."""
        span = self._open(name, None, start)
        token = _current.set(span)
        try:
            yield span
        finally:
            _current.reset(token)
            span.end = self.clock()

    def wrap(self, name: str, fn: Callable, value: Callable | None = None) -> Callable:
        """``fn`` with a span around each call made under a trace root.
        ``value(args, result)`` computes the span's recorded count."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                parent = _current.get()
                if parent is None:
                    return await fn(*args, **kwargs)
                span = self._open(name, parent)
                token = _current.set(span)
                try:
                    result = await fn(*args, **kwargs)
                    if value is not None:
                        span.value = value(args, result)
                    return result
                finally:
                    _current.reset(token)
                    span.end = self.clock()

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            if parent is None:
                return fn(*args, **kwargs)
            span = self._open(name, parent)
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    span.value = value(args, result)
                return result
            finally:
                _current.reset(token)
                span.end = self.clock()

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, value: Callable | None = None) -> None:
        """Replace ``owner.attr`` (an instance's bound method or a module
        global) with its traced wrapper until :meth:`uninstall`."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, value))

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def uninstall(self) -> None:
        """Put every patched callable back."""
        while self._undo:
            self._undo.pop()()

    def dump(self) -> dict:
        """Every span, JSON-ready, for ``--trace-out``."""
        return {
            "columns": ["id", "parent", "trace", "name", "start", "end", "value"],
            "spans": [
                [s.id, s.parent, s.trace, s.name, s.start, s.end, s.value] for s in self.spans
            ],
        }


def install(tracer: Tracer, *, scheduler, transports: Iterable[object], content_client) -> None:
    """Wrap every layer seam the observer process can reach.

    Layers are this repository's modules; a span's name is the module
    plus the callable.  Remote scoring (``core.search`` inside the node
    processes) cannot be reached from here — see ``workloads`` for how
    it is replayed instead.
    """
    import repro.net.client as net_client
    import repro.net.codec as codec
    import repro.serve.scheduler as serve_scheduler

    tracer.patch(scheduler, "ranked", "serve.scheduler.ranked")
    tracer.patch(serve_scheduler, "directory_generation", "serve.cache.generation")
    tracer.patch(scheduler.client, "ranked_search", "net.client.ranked_search")
    tracer.patch(net_client, "rank_peers", "ranking.rank_peers")
    tracer.patch(net_client, "score_local_documents", "core.search.score_local")
    tracer.patch(codec, "encode", "net.codec.encode")
    tracer.patch(codec, "decode", "net.codec.decode")
    for transport in transports:
        tracer.patch(
            transport,
            "request",
            "net.transport.request",
            value=lambda args, reply: len(args[1]) + len(reply),
        )
    tracer.patch(content_client, "fetch", "content.retrieval.fetch")
    tracer.patch(content_client, "resolve", "content.retrieval.resolve")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals
    (each child clipped to the parent)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None:
            children[parent.id].append((max(s.start, parent.start), min(s.end, parent.end)))
    return {s.id: s.duration - covered(children.get(s.id, ())) for s in spans}


@dataclass
class LayerTotals:
    calls: int = 0
    duration_s: float = 0.0
    self_s: float = 0.0
    value: float = 0.0


def totals_by_name(spans: Iterable[Span]) -> dict[str, LayerTotals]:
    """Per span name: call count, summed duration, summed self time,
    summed recorded value."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.duration_s += s.duration
        t.self_s += own[s.id]
        t.value += s.value
    return out
