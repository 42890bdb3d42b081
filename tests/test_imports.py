"""What importing the package costs, and what it must keep exposing.

A node process (``python -m repro.net``) is long-lived and one of
thousands, so its import path loads only the modules the node runs:
package ``__init__``s import none of their submodules, and the top-level
``repro`` resolves its quick-start names lazily.  The benchmark's span
tracer patches a few module attributes by name; those seams are pinned
here so an import rewrite that moves one fails tier-1, not the traced
benchmark run.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.net.client as net_client
import repro.net.codec as codec
import repro.serve.scheduler as serve_scheduler
from repro.net.node import NetworkPeer
from repro.net.transport import LoopbackNetwork
from repro.obs import Registry
from repro.text.document import Document

SRC = Path(repro.__file__).resolve().parents[1]

#: modules no node runs: the simulator, the figure runners, the offline
#: corpus and fleet tooling, and the in-process/optional planes.
NOT_ON_NODE_PATH = (
    "repro.sim",
    "repro.experiments",
    "repro.corpus",
    "repro.fleet",
    "repro.gossip.simulation",
    "repro.gossip.simpeer",
    "repro.gossip.validation",
    "repro.pfs.pfs",
    "repro.core.community",
    "repro.brokerage.service",
    "repro.ranking.evaluation",
    "repro.serve.scheduler",
)


def _modules_after(statement: str) -> set[str]:
    """``repro`` modules loaded by ``statement`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = f"{statement}\nimport sys\nprint(*(m for m in sys.modules if m.startswith('repro')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_node_import_path_loads_only_what_a_node_runs():
    loaded = _modules_after("import repro.net.cli")
    assert "repro.net.node" in loaded
    assert not loaded & set(NOT_ON_NODE_PATH), sorted(loaded & set(NOT_ON_NODE_PATH))


def test_bare_package_import_loads_no_submodule():
    assert _modules_after("import repro") == {"repro"}


def test_quick_start_names_resolve_lazily():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
        assert name in dir(repro)
    from repro import Document as Lazy

    assert Lazy is Document
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from repro import no_such_name  # noqa: F401


def test_bench_span_seams_see_a_ranked_query(monkeypatch):
    # The tracer patches these by module and name, so each must exist
    # there and be looked up through the module at call time.
    calls: dict[str, int] = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(net_client, "rank_peers")
    counting(net_client, "score_local_documents")
    counting(codec, "encode")
    counting(codec, "decode")
    counting(serve_scheduler, "directory_generation")

    async def scenario():
        net = LoopbackNetwork()
        nodes = [
            NetworkPeer(pid, "peer", pid, transport=net.transport(), seed=pid, registry=Registry())
            for pid in range(2)
        ]
        for node in nodes:
            await node.start()
        nodes[0].publish(Document("a", "gossip protocols spread rumors"))
        nodes[1].publish(Document("b", "gossip filters summarize peers"))
        try:
            await nodes[1].join(nodes[0].address)
            for _ in range(4):
                for node in nodes:
                    await node.gossip_round()
            reply = await serve_scheduler.QueryScheduler(nodes[0]).ranked("gossip", k=5)
            assert {d.doc_id for d in reply.results} == {"a", "b"}
        finally:
            for node in nodes:
                await node.stop()

    asyncio.run(scenario())
    assert set(calls) == {
        "rank_peers",
        "score_local_documents",
        "encode",
        "decode",
        "directory_generation",
    }, calls
