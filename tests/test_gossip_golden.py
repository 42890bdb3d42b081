"""Golden digests: the gossip figures, pinned byte for byte.

SHA-256 of the stdout of ``python -m repro.experiments.runner <name>
--fast`` for Figures 2-5 and Table 2, taken on the commit *before* the
Section 3 decisions moved into ``repro.gossip.core`` (``450c1e9``).  The
simulator is seeded and single-threaded, so the output is deterministic;
a gossip edit that moves one contact, one counter or one byte count
changes a propagation time or a volume somewhere in these tables and
fails here first — run this file before anything else after touching
``repro.gossip.core``, ``simpeer``, ``directory`` or ``intervals``.  A
deliberate protocol change regenerates the literals and says so.
"""

import hashlib

import pytest

from repro.experiments.runner import main

#: (runner experiment, SHA-256 of its ``--fast`` stdout).
GOLDEN = [
    ("fig2", "15da52386bd50dea75e81bf8ae29a331b9da477dd7aa323bb61ed9e0c8eec467"),
    ("fig3", "41a206af171c452b044eca40070169712b6b31877a89f27bbef9e1daa20bb679"),
    ("fig4", "5a9e85ea4ae453201a5243441a2cfd02edbfb7243c5aa8928f64fbaad874d2ba"),
    ("fig5", "38a5cbf61874e7fb28d7dead712bf2dc05412c8cf791d854fc92ff3faa54476c"),
    ("table2", "8170a61fad56fde298f417aaee684d06916b5ce06c5058c15b4120e21e260509"),
]


@pytest.mark.parametrize("name, digest", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_figure_output_is_byte_identical(name, digest, capsys):
    assert main([name, "--fast"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
