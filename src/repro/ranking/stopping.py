"""Stopping policies for the distributed search (paper Section 5.2).

The *selection problem*: after ranking peers, how many do we contact?
The paper's adaptive heuristic (eq. 4) tolerates

    p = floor(2 + N/300) + 2 * floor(k/50)

consecutive peers that fail to contribute to the current top-k before
stopping.  Two baselines are provided: the naive "stop once k documents
are retrieved" rule the paper dismisses ("this obvious approach leads to
terrible retrieval performance"), and a never-stop policy used to compute
exhaustive upper bounds.

A *policy* is shared configuration; the rule's running counts belong to
one search.  :meth:`StoppingPolicy.begin` hands each search its own
:class:`StoppingState`, so any number of searches may run concurrently
over one policy object.
"""

from __future__ import annotations

import sys
from typing import Protocol

from repro.constants import (
    STOPPING_A,
    STOPPING_K_COEFF,
    STOPPING_K_DIVISOR,
    STOPPING_N_DIVISOR,
)

__all__ = [
    "StoppingPolicy",
    "StoppingState",
    "AdaptiveStopping",
    "FirstKStopping",
    "NeverStop",
    "stopping_p",
]


def stopping_p(community_size: int, k: int) -> int:
    """Evaluate eq. 4: the number of consecutive unproductive peers
    tolerated before the search stops."""
    if community_size < 0 or k < 0:
        raise ValueError("community_size and k must be non-negative")
    return (
        STOPPING_A
        + community_size // STOPPING_N_DIVISOR
        + STOPPING_K_COEFF * (k // STOPPING_K_DIVISOR)
    )


class StoppingState(Protocol):
    """One search's view of the stopping rule.

    The contact loop calls :meth:`observe` once per contacted peer, in
    rank order, with whether that peer contributed at least one document
    to the current top-k and how many documents are held; it stops when
    :meth:`should_stop` returns true.  The held count can first reach k
    only on a contributing peer (a merge that grows the top-k has by
    definition contributed) — :meth:`committed` may rely on that.
    """

    def observe(self, contributed: bool, total_retrieved: int) -> None:
        """Record one contacted peer's outcome."""
        ...

    def should_stop(self) -> bool:
        """Whether to stop contacting further peers."""
        ...

    def committed(self) -> int:
        """How many more peers will certainly be contacted (if that many
        remain) before :meth:`should_stop` can turn true, whatever they
        answer.  At least 1 while :meth:`should_stop` is false: those
        peers can be contacted concurrently without sending one message
        the one-at-a-time search would not have sent."""
        ...


class StoppingPolicy(Protocol):
    """Hands out one :class:`StoppingState` per search."""

    def begin(self, community_size: int, k: int) -> StoppingState:
        """Begin a query against ``community_size`` peers, target ``k``."""
        ...


class AdaptiveStopping:
    """The paper's eq. 4 heuristic."""

    def begin(self, community_size: int, k: int) -> AdaptiveState:
        """Begin a query: compute eq. 4's p for this N and k."""
        return AdaptiveState(stopping_p(community_size, k), k)


class AdaptiveState:
    """Eq. 4 for one search: the consecutive-unproductive-peer streak."""

    __slots__ = ("p", "_k", "_streak", "_retrieved")

    def __init__(self, p: int, k: int) -> None:
        #: tolerance: consecutive unproductive peers allowed.
        self.p = p
        self._k = k
        self._streak = 0
        self._retrieved = 0

    def observe(self, contributed: bool, total_retrieved: int) -> None:
        """Track the consecutive-unproductive-peer streak."""
        self._retrieved = total_retrieved
        if contributed:
            self._streak = 0
        else:
            self._streak += 1

    def should_stop(self) -> bool:
        """Stop once k documents exist and p peers in a row added nothing."""
        # Only begin counting unproductive streaks once an initial set of k
        # documents exists ("the idea is to get an initial set of k documents
        # and then keep contacting nodes only if ...").
        if self._retrieved < self._k:
            return False
        return self._streak >= self.p

    def committed(self) -> int:
        """The rest of the tolerated streak; before k documents are held,
        the peer that completes them (it resets the streak) plus a whole
        streak after it."""
        if self._retrieved < self._k:
            return self.p + 1
        return max(1, self.p - self._streak)


class FirstKStopping:
    """Naive baseline: stop as soon as k documents have been retrieved."""

    def begin(self, community_size: int, k: int) -> FirstKState:
        """Begin a query targeting ``k`` documents."""
        return FirstKState(k)


class FirstKState:
    """The first-k rule for one search."""

    __slots__ = ("_k", "_retrieved")

    def __init__(self, k: int) -> None:
        self._k = k
        self._retrieved = 0

    def observe(self, contributed: bool, total_retrieved: int) -> None:
        """Track how many documents have been retrieved."""
        self._retrieved = total_retrieved

    def should_stop(self) -> bool:
        """Stop the moment k documents have been retrieved."""
        return self._retrieved >= self._k

    def committed(self) -> int:
        """Any next peer may complete the k documents."""
        return 1


class NeverStop:
    """Contact every ranked peer (exhaustive upper bound).

    Stateless, so it serves as its own per-search state.
    """

    def begin(self, community_size: int, k: int) -> NeverStop:
        """Nothing to track."""
        return self

    def observe(self, contributed: bool, total_retrieved: int) -> None:
        """Nothing to track."""

    def should_stop(self) -> bool:
        """Never stop: contact every ranked peer."""
        return False

    def committed(self) -> int:
        """Every peer that remains."""
        return sys.maxsize
