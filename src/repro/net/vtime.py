"""A virtual-time asyncio event loop: the shipping code, minutes in milliseconds.

:class:`VirtualTimeLoop` is a stock :class:`asyncio.SelectorEventLoop`
whose clock is virtual.  It polls its selector with ``select(0)``; when
nothing is ready it jumps its clock, which starts at 0, straight to the
next pending timer instead of waiting for it.  Every ``asyncio.sleep``,
``asyncio.timeout`` and ``loop.time()`` the code already uses then runs
in virtual seconds, so a node's real gossip loop (its jittered first
round, its interval sleeps) plays out an hour of protocol in a blink,
and its outcome depends only on seeds, never on host scheduling.

When nothing is ready and no timer is pending, no callback can ever run
again: :class:`Deadlock` is raised instead of hanging.

It supports loopback transports only
(:class:`~repro.net.transport.LoopbackNetwork`, optionally wrapped in
:class:`~repro.net.chaos.FaultyTransport`): no real sockets, no threads.
A socket or a thread completes in wall time, which this loop never
waits for.

Run a coroutine on it with :func:`run`, as with :func:`asyncio.run`.
"""

from __future__ import annotations

import asyncio
import selectors
from collections.abc import Coroutine
from typing import Any, TypeVar

__all__ = ["Deadlock", "VirtualTimeLoop", "run"]

T = TypeVar("T")


class Deadlock(RuntimeError):
    """Nothing is ready and no timer is pending: the run can never finish."""


class _VirtualSelector(selectors.DefaultSelector):
    """Never blocks; a wait for a timer advances :attr:`now` instead."""

    now = 0.0

    def select(self, timeout: float | None = None):
        events = super().select(0)
        if events or timeout == 0:
            return events
        if timeout is None:
            raise Deadlock(
                f"virtual time {self.now:.6f}s: every task waits on something "
                "no timer or callback will ever complete"
            )
        self.now += timeout
        return events


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose :meth:`time` is virtual (see module doc)."""

    def __init__(self) -> None:
        self._virtual = _VirtualSelector()
        super().__init__(self._virtual)

    def time(self) -> float:
        """Virtual seconds since the loop was made."""
        return self._virtual.now


def run(coro: Coroutine[Any, Any, T]) -> T:
    """Run ``coro`` to completion on a fresh :class:`VirtualTimeLoop`,
    closing it afterwards, like :func:`asyncio.run`."""
    with asyncio.Runner(loop_factory=VirtualTimeLoop) as runner:
        return runner.run(coro)
