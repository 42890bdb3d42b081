"""The ``python -m repro.net`` command line: parsing and a short live run."""

import asyncio
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.constants import NET_DEFAULT_PORT, BloomConfig, StoreConfig
from repro.net.cli import _load_corpus, build_parser, build_stats_parser, run, run_stats
from repro.net.node import NetworkPeer
from repro.obs import Registry
from repro.text.document import Document


def test_parser_defaults():
    args = build_parser().parse_args(["--peer-id", "3"])
    assert args.peer_id == 3
    assert args.host == "127.0.0.1"
    assert args.port == NET_DEFAULT_PORT
    assert args.bootstrap is None
    assert args.corpus is None
    assert args.query is None
    assert args.max_runtime is None
    assert args.chaos_seed is None  # fault injection is opt-in
    assert args.chaos_drop == 0.1
    assert args.chaos_reset == 0.0
    assert args.chaos_jitter == 0.0
    assert args.data_dir is None  # persistence is opt-in
    assert args.snapshot_every == StoreConfig().snapshot_every


def test_parser_persistence_flags(tmp_path):
    args = build_parser().parse_args(
        ["--peer-id", "3", "--data-dir", str(tmp_path), "--snapshot-every", "16"]
    )
    assert args.data_dir == tmp_path
    assert args.snapshot_every == 16


def test_parser_requires_peer_id():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_fleet_flags():
    defaults = build_parser().parse_args(["--peer-id", "3"])
    assert defaults.no_fsync is False
    assert defaults.bloom_bits == BloomConfig().num_bits
    assert defaults.bloom_hashes == BloomConfig().num_hashes
    args = build_parser().parse_args(
        ["--peer-id", "3", "--no-fsync", "--bloom-bits", "65536", "--bloom-hashes", "3"]
    )
    assert args.no_fsync is True
    assert args.bloom_bits == 65536
    assert args.bloom_hashes == 3


def test_load_corpus_recurses_with_collision_free_ids(tmp_path):
    (tmp_path / "top.txt").write_text("top level document")
    nested = tmp_path / "nested" / "deeper"
    nested.mkdir(parents=True)
    (nested / "leaf.txt").write_text("deeply nested document")
    # Same stem in two directories must yield two distinct doc ids.
    (tmp_path / "nested" / "top.txt").write_text("shadowing stem")
    (tmp_path / "ignored.md").write_text("not a txt file")

    node = NetworkPeer(0, "127.0.0.1", 0, registry=Registry())
    assert _load_corpus(node, tmp_path) == 3
    assert sorted(node.peer.store.document_ids()) == [
        "nested/deeper/leaf", "nested/top", "top",
    ]


def test_load_corpus_skips_unreadable_and_already_published(tmp_path, capsys):
    (tmp_path / "good.txt").write_text("a perfectly readable file")
    # A directory matching the glob: read_text raises IsADirectoryError,
    # which must be a warning, not a crash (works even when the suite
    # runs as root, unlike permission bits).
    (tmp_path / "trap.txt").mkdir()
    # Undecodable bytes are replaced, not fatal.
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe broken utf8 \x80")

    node = NetworkPeer(0, "127.0.0.1", 0, registry=Registry())
    assert _load_corpus(node, tmp_path) == 2
    err = capsys.readouterr().err
    assert "warning: skipping unreadable" in err and "trap.txt" in err
    # A second pass (a warm restart re-walking the corpus) publishes nothing.
    assert _load_corpus(node, tmp_path) == 0
    assert len(node.peer.store) == 2


def test_cli_run_bootstraps_publishes_and_queries(tmp_path, capsys):
    (tmp_path / "epidemics.txt").write_text(
        "epidemic algorithms for replicated database maintenance"
    )
    (tmp_path / "gossip.txt").write_text(
        "gossip protocols spread rumors through random peer exchanges"
    )

    async def scenario():
        bootstrap = NetworkPeer(0, "127.0.0.1", 0)
        await bootstrap.start()
        bootstrap.publish(Document("bloom", "bloom filters summarize membership"))
        bootstrap.run()
        args = build_parser().parse_args(
            [
                "--peer-id", "1",
                "--port", "0",
                "--bootstrap", bootstrap.address,
                "--corpus", str(tmp_path),
                "--gossip-interval", "0.05",
                "--query", "gossip rumors",
                "--top-k", "2",
                "--max-runtime", "0.2",
            ]
        )
        try:
            await run(args)
        finally:
            await bootstrap.stop()

    asyncio.run(scenario())
    out = capsys.readouterr().out
    assert "peer 1 serving at" in out
    assert "published 2 documents" in out
    assert "joined via" in out and "2 members known" in out
    # The machine-readable ready line fleet orchestrators parse for the
    # bound port appears exactly once, after join/publish completed.
    ready_lines = [l for l in out.splitlines() if l.startswith("PLANETP_READY ")]
    assert len(ready_lines) == 1
    assert "peer=1" in ready_lines[0] and "members=2" in ready_lines[0]
    assert "ranked 'gossip rumors'" in out
    assert "gossip" in out.split("ranked")[1]  # the matching doc is listed
    assert "peer 1 stopped" in out


def test_stats_parser_defaults():
    args = build_stats_parser().parse_args(["127.0.0.1:9301"])
    assert args.address == "127.0.0.1:9301"
    assert args.grep is None
    with pytest.raises(SystemExit):
        build_stats_parser().parse_args([])  # the address is mandatory


def test_stats_cli_polls_live_node(capsys):
    """``python -m repro.net stats`` against a real TCP node prints its
    uptime and nonzero gossip/traffic counters; --grep filters names."""

    async def scenario():
        a = NetworkPeer(0, "127.0.0.1", 0, registry=Registry())
        await a.start()
        a.publish(Document("bloom", "bloom filters summarize membership"))
        b = NetworkPeer(1, "127.0.0.1", 0, registry=Registry())
        await b.start()
        b.publish(Document("gossip", "gossip protocols spread rumors"))
        try:
            await b.join(a.address)
            for _ in range(3):
                await a.gossip_round()
                await b.gossip_round()
            await run_stats(build_stats_parser().parse_args([a.address]))
            await run_stats(
                build_stats_parser().parse_args([a.address, "--grep", "bytes"])
            )
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())
    out = capsys.readouterr().out
    full, grepped = out.split("peer 0 at")[1:]
    assert "uptime" in full

    def value_of(section: str, name: str) -> float:
        for line in section.splitlines():
            parts = line.split()
            if parts and parts[0] == name:
                return float(parts[1])
        raise AssertionError(f"{name} not in output:\n{section}")

    assert value_of(full, "planetp_node_gossip_rounds_total") > 0
    assert value_of(full, "planetp_transport_bytes_sent_total") > 0
    # The grep view keeps only matching sample names.
    samples = [line.split()[0] for line in grepped.splitlines()[1:] if line.strip()]
    assert samples and all("bytes" in name for name in samples)


def test_chaos_transport_built_only_when_seeded():
    from repro.net.chaos import FaultyTransport
    from repro.net.cli import _chaos_transport

    plain = build_parser().parse_args(["--peer-id", "1"])
    assert _chaos_transport(plain) is None
    chaotic = build_parser().parse_args(
        ["--peer-id", "1", "--chaos-seed", "7", "--chaos-drop", "0.5"]
    )
    transport = _chaos_transport(chaotic)
    assert isinstance(transport, FaultyTransport)
    assert transport.plan.seed == 7


# -- failure paths: nonzero exit with a clear message, never a traceback ------


def _run_cli(args: list[str], timeout: float = 60.0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = pkg_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.net", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def _assert_clean_failure(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode != 0
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Traceback" not in proc.stdout


def test_cli_bad_bootstrap_fails_cleanly():
    # Port 1 refuses connections; the join must surface as a one-line
    # operator error, not an asyncio traceback.
    proc = _run_cli(
        ["--peer-id", "1", "--port", "0", "--bootstrap", "127.0.0.1:1"]
    )
    _assert_clean_failure(proc)
    assert "127.0.0.1:1" in proc.stderr


def test_cli_port_in_use_fails_cleanly():
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        proc = _run_cli(["--peer-id", "1", "--port", str(port)])
    _assert_clean_failure(proc)


def test_cli_corrupt_checkpoint_fails_cleanly(tmp_path):
    data_dir = tmp_path / "state"
    data_dir.mkdir()
    (data_dir / "directory.ckpt").write_bytes(b"this is not a checkpoint")
    proc = _run_cli(
        ["--peer-id", "1", "--port", "0", "--data-dir", str(data_dir)]
    )
    _assert_clean_failure(proc)
    assert "corrupt directory checkpoint" in proc.stderr


def test_check_data_dir_accepts_missing_and_valid(tmp_path):
    from repro.net.cli import _check_data_dir

    _check_data_dir(tmp_path)  # no checkpoint at all: a cold start is fine

    async def write_valid_checkpoint():
        node = NetworkPeer(1, "127.0.0.1", 0, data_dir=tmp_path, registry=Registry())
        await node.start()
        await node.stop()  # writes the checkpoint on the way down

    asyncio.run(write_valid_checkpoint())
    assert (tmp_path / "directory.ckpt").exists()
    _check_data_dir(tmp_path)  # a readable checkpoint passes

    (tmp_path / "directory.ckpt").write_bytes(b"\x00garbage")
    with pytest.raises(ValueError, match="corrupt directory checkpoint"):
        _check_data_dir(tmp_path)


def test_stats_cli_renders_non_finite_samples(capsys):
    """A remote node may report any float: ``stats`` prints ``+Inf``,
    ``-Inf`` and ``NaN`` as Prometheus spells them instead of crashing."""

    async def scenario():
        registry = Registry()
        registry.gauge("x", "up").set(float("inf"))
        registry.gauge("x", "down").set(float("-inf"))
        registry.gauge("x", "undefined").set(float("nan"))
        a = NetworkPeer(0, "127.0.0.1", 0, registry=registry)
        await a.start()
        try:
            await run_stats(build_stats_parser().parse_args([a.address, "--grep", "planetp_x_"]))
        finally:
            await a.stop()

    asyncio.run(scenario())
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines == ["  planetp_x_down -Inf", "  planetp_x_undefined NaN", "  planetp_x_up +Inf"]
