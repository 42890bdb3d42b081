#!/usr/bin/env python
"""Re-run the protocol fingerprint scenarios and print each counter that moved.

The scenarios and the golden live in ``tests/test_protocol_fingerprint.py``
and ``tests/golden/protocol_fingerprint.json``.  Without flags this prints
one ``scenario counter: pinned -> now`` line per moved counter and exits 1
if any moved; ``--write`` re-pins the golden to the current tree::

    PYTHONPATH=src python scripts/protocol_fingerprint.py
    PYTHONPATH=src python scripts/protocol_fingerprint.py --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # for ``tests``

from tests.test_protocol_fingerprint import GOLDEN, fingerprints, moved  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="protocol_fingerprint.py",
        description=(__doc__ or "").splitlines()[0],
    )
    parser.add_argument(
        "--write", action="store_true", help="re-pin the golden to the current tree"
    )
    args = parser.parse_args(argv)
    got = fingerprints()
    want = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    diff = moved(want, got)
    for line in diff:
        print(line)
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN} ({len(diff)} counters moved)")
        return 0
    if not diff:
        print("protocol fingerprint unchanged")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
