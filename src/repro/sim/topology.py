"""Community link-speed topologies (paper Section 7.2).

* **LAN** — every peer on a 45 Mbps link.
* **DSL** — every peer on a 512 Kbps link (the DSL-10/30/60 scenarios vary
  the gossip interval, not the links).
* **MIX** — the Gnutella/Napster mixture measured by Saroiu et al.:
  9% 56 kbps, 21% 512 kbps, 50% 5 Mbps, 16% 10 Mbps, 4% 45 Mbps.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    LINK_DSL,
    LINK_LAN,
    LINK_MODEM,
    MIX_DISTRIBUTION,
)
from repro.utils.rng import make_rng

__all__ = [
    "lan_topology",
    "dsl_topology",
    "mix_topology",
    "modem_topology",
    "make_topology",
    "TOPOLOGIES",
]


def lan_topology(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """All peers on 45 Mbps links."""
    _check(n)
    return np.full(n, LINK_LAN, dtype=float)


def dsl_topology(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """All peers on 512 Kbps links."""
    _check(n)
    return np.full(n, LINK_DSL, dtype=float)


def modem_topology(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """All peers on 56 kbps links (worst case discussed in Section 7.2)."""
    _check(n)
    return np.full(n, LINK_MODEM, dtype=float)


def mix_topology(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """The Saroiu et al. mixture.

    Class counts are deterministic (largest-remainder rounding of the
    published fractions); which peers land in which class is shuffled by
    ``rng`` so peer id and link class are uncorrelated.
    """
    _check(n)
    gen = make_rng(rng)
    fractions = np.array([f for f, _ in MIX_DISTRIBUTION])
    speeds_per_class = np.array([s for _, s in MIX_DISTRIBUTION])
    ideal = fractions * n
    counts = np.floor(ideal).astype(int)
    remainder = n - counts.sum()
    # Assign leftover peers to the classes with the largest fractional parts.
    order = np.argsort(ideal - counts)[::-1]
    for i in range(remainder):
        counts[order[i % len(counts)]] += 1
    speeds = np.repeat(speeds_per_class, counts)
    gen.shuffle(speeds)
    return speeds


TOPOLOGIES = {
    "lan": lan_topology,
    "dsl": dsl_topology,
    "mix": mix_topology,
    "modem": modem_topology,
}


def make_topology(
    name: str, n: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Build topology ``name`` ('lan' | 'dsl' | 'mix' | 'modem')."""
    try:
        builder = TOPOLOGIES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}") from None
    return builder(n, rng)


def _check(n: int) -> None:
    if n <= 0:
        raise ValueError("community size must be positive")
