"""Locate the checkout and put its ``src/`` on ``sys.path``.

The harness runs as ``python3 benchmarks/e2e/bench_e2e.py`` from the
root of a checkout that is not installed, so ``repro`` is imported from
the source tree next to it.  A directory holding only ``BENCHMARK.json``
and this package has no ``src/repro``: there is no program to measure,
and the harness must exit non-zero without printing a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout root (``benchmarks/e2e/_bootstrap.py`` → two levels up).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: every file a run writes (corpora, node logs, data dirs, spans) lives
#: here, inside the checkout, and is named in the root ``.gitignore``.
WORK = ROOT / ".bench_e2e_work"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.stderr.write(f"bench_e2e: no program to measure: {SRC}/repro is missing\n")
    raise SystemExit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
