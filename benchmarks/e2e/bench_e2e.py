#!/usr/bin/env python3
"""bench_e2e: one end-to-end ledger on a real TCP fleet.

One command stands up a seeded 12-node ``python -m repro.net`` fleet on
127.0.0.1, joins an observer node as the user, runs one named workload,
checks the outputs, and prints every metric by name with its unit::

    python3 benchmarks/e2e/bench_e2e.py                       # all four workloads
    python3 benchmarks/e2e/bench_e2e.py --workload ingest --out runs.json
    python3 benchmarks/e2e/bench_e2e.py --workload query_distinct --trace 1 \\
        --trace-out spans.json                                # per-layer attribution
    python3 benchmarks/e2e/bench_e2e.py --layers              # direct drives only
    python3 benchmarks/e2e/bench_e2e.py --compare benchmarks/e2e/baseline.json runs.json

End-to-end numbers come from an untraced run (``--trace 0``); a traced
run of the same workload and seed produces the per-layer numbers.  The
last line of standard output is one JSON object for the benchmark
driver (``BENCHMARK.json`` at the repository root is its contract); the
exit status is non-zero if any output check failed.  See README.md.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (exits 2 where there is no src/ to measure)

import argparse
import asyncio
import json
import math
import subprocess
import sys

import layers
import ledger
from workloads import Run

DEFAULT_SEED = 20030612  # HPDC-12, where the paper appeared


def _finite(value: float) -> float:
    """JSON has no infinity: a latency that is infinite because an
    operation failed is reported as a number no bound can absorb."""
    return value if math.isfinite(value) else 1e12


def driver_line(run: dict) -> str:
    """The last line of stdout: ``correct``, ``attempted``, ``failed`` and
    the end-to-end (untraced) or per-layer (traced) metrics.

    The driver's contract wants every per-layer metric from every traced
    run, as a number.  A layer the workload does not exercise has no
    figure (the run and the result file leave it out); only here it goes
    as 0, which README.md says means "not produced"."""
    if run["record"]["trace"]:
        section, names = run["per_layer"], ledger.PER_LAYER
    else:
        section, names = run["end_to_end"], ledger.DRIVER_METRICS
    metrics = {
        m.name: {"value": _finite(section[m.name]["value"]) if m.name in section else 0.0,
                 "unit": m.unit}
        for m in names
    }
    return json.dumps({
        "correct": not run["violations"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    })


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*ledger.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report the per-layer metrics")
    parser.add_argument("--out", metavar="FILE", help="append each run to this result file")
    parser.add_argument("--trace-out", metavar="FILE", help="write the traced run's spans")
    parser.add_argument("--layers", action="store_true",
                        help="only the direct single-thread drives (no fleet)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="set two result files side by side and judge B against A")
    return parser.parse_args(argv)


def say(message: str) -> None:
    print(f"bench_e2e: {message}", file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.compare:
        rows = ledger.compare_rows(*(ledger.load_runs(p) for p in args.compare))
        print(ledger.format_compare(rows))
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
    if args.layers:
        for name, value in asyncio.run(layers.drive(args.seed, say)).items():
            print(f"{name:44s} {value:14.6g} {ledger.BY_NAME[name].unit}")
        return 0
    if args.workload == "all":
        # One process per workload: a fleet launched by a process that
        # has already run and reaped one measured 15–25 % slower.
        argv = sys.argv[1:] if argv is None else argv
        return max(
            subprocess.run([sys.executable, __file__, *argv, "--workload", name]).returncode
            for name in ledger.WORKLOADS
        )
    say(f"{args.workload}: seed {args.seed}, {args.seconds:g}s window, trace {args.trace}")
    bench = Run(args.workload, args.seed, args.seconds, bool(args.trace), say)
    run = asyncio.run(bench.execute())
    if args.out:
        ledger.append_run(args.out, run)
    if args.trace_out and bench.tracer is not None:
        with open(args.trace_out, "w") as fh:
            json.dump(bench.tracer.dump(), fh)
    print(ledger.format_run(run))
    print(driver_line(run), flush=True)
    return 1 if run["violations"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
