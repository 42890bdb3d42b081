"""Load generation and latency accounting.

Two shapes of load, both driven from one asyncio loop:

* **open loop** — independent users: request ``i`` is *due* at
  ``start + i / rate`` whatever the system is doing.  Latency is timed
  from the due time, not from when the generator got round to sending,
  so a stall is charged to every request it delayed; how late the
  generator itself ran is reported separately (``late``).
* **closed loop** — callers that wait: each client sends its next
  request only when the previous one completed.

A failed or refused operation stays in the sample with infinite latency:
it misses every latency limit and is counted against the attempts.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

#: a percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10
#: operations per slice of a sample (:func:`sliced`).
SLICE = 100


@dataclass
class OpLog:
    """What one stream of operations did."""

    #: seconds from due (open loop) or send (closed loop) to completion;
    #: ``inf`` for an operation that failed.
    latency_s: list[float] = field(default_factory=list)
    #: seconds the generator sent each open-loop request after it was due.
    late_s: list[float] = field(default_factory=list)
    failed: int = 0
    #: why: exception type → count (``wrong`` for an answer that came
    #: back but was not the right one).
    reasons: Counter = field(default_factory=Counter)
    #: wall seconds from the first send to the last completion.
    elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p < 100``).

    Refuses — ``ValueError`` — when fewer than ten samples lie beyond
    the rank: a p99 of 300 samples is the third-worst value, and that is
    an anecdote, not a percentile.
    """
    if not 0.0 < p < 100.0:
        raise ValueError("p must be in (0, 100)")
    n = len(values)
    rank = math.ceil(n * p / 100.0)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(0, n - rank)} beyond it; need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def highest_percentile(n: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 that ``n`` samples support."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n - math.ceil(n * p / 100.0) >= MIN_BEYOND:
            return p
    return None


def sliced(values: Sequence[float], stat: Callable[[Sequence[float]], float]) -> float:
    """``stat`` of each run of :data:`SLICE` consecutive values, median
    over the runs (a last partial run is left out).

    A log holds values in completion order, so a run of 100 is a second
    or two of the window.  A stall of the host — 100 ms is common on a
    shared machine — then spoils one slice instead of the figure: the
    plain mean of a 20 s window moved 5.6→8.3 ms between identical runs
    on one such stall.
    """
    slices = [values[k:k + SLICE] for k in range(0, len(values) - SLICE + 1, SLICE)]
    return statistics.median(stat(s) for s in slices or [values])


async def _timed(op: Awaitable[bool], since: float, log: OpLog, clock) -> None:
    reason = "wrong"
    try:
        ok = await op
    except asyncio.CancelledError:
        raise
    except Exception as exc:  # noqa: BLE001 - any failure is a counted failure
        ok, reason = False, type(exc).__name__
    if ok:
        log.latency_s.append(clock() - since)
    else:
        log.latency_s.append(math.inf)
        log.failed += 1
        log.reasons[reason] += 1


async def open_loop(
    rate: float,
    seconds: float,
    make_op: Callable[[int, float], Awaitable[bool]],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> OpLog:
    """Send ``make_op(i, due)`` at ``rate`` per second for ``seconds``,
    evenly spaced, never waiting for replies; return once all have
    completed.  An op returns truthy on success; raising or falsy is a
    failure."""
    log = OpLog()
    count = max(1, int(rate * seconds))
    start = clock()
    tasks = []
    for i in range(count):
        due = start + i / rate
        # Always yield, even when behind: the operations already sent
        # share this loop and must get to run.
        await sleep(max(0.0, due - clock()))
        log.late_s.append(clock() - due)
        tasks.append(asyncio.ensure_future(_timed(make_op(i, due), due, log, clock)))
    await asyncio.gather(*tasks)
    log.elapsed_s = clock() - start
    return log


async def closed_loop(
    clients: int,
    seconds: float,
    make_op: Callable[[int, int], Awaitable[bool]],
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> OpLog:
    """``clients`` callers, each sending ``make_op(client, i)`` back to
    back until ``seconds`` have passed (an operation in flight at the
    deadline is completed and counted)."""
    log = OpLog()
    start = clock()
    deadline = start + seconds

    async def client(c: int) -> None:
        i = 0
        while clock() < deadline:
            await _timed(make_op(c, i), clock(), log, clock)
            i += 1

    await asyncio.gather(*(client(c) for c in range(clients)))
    log.elapsed_s = clock() - start
    return log
