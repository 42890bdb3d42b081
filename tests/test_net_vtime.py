"""The virtual-time event loop: timers fire without waiting, deadlocks raise."""

import asyncio
import time

import pytest

from repro.net import vtime
from repro.net.node import NetworkPeer


def test_an_hour_of_sleep_takes_no_wall_time():
    async def scenario() -> float:
        loop = asyncio.get_running_loop()
        assert loop.time() == 0.0
        await asyncio.sleep(3600.0)
        return loop.time()

    started = time.perf_counter()
    assert vtime.run(scenario()) == 3600.0
    assert time.perf_counter() - started < 0.05


def test_waiting_on_what_nothing_will_set_raises_deadlock():
    async def scenario() -> None:
        await asyncio.Event().wait()

    with pytest.raises(vtime.Deadlock):
        vtime.run(scenario())


def test_a_node_reads_the_running_loop_clock():
    async def scenario() -> float:
        node = NetworkPeer(0)
        await asyncio.sleep(12.5)
        return node.clock()

    assert vtime.run(scenario()) == 12.5
