"""The adaptive gossip interval (paper Section 3).

Start at the base interval (30 s).  While a peer has nothing to spread, it
counts contacts that found an identical directory; every time the count
reaches the gossip-less threshold (2) the interval grows by the slow-down
constant (5 s), up to the maximum (60 s per Table 2).  Receiving a rumor
message or learning anything through anti-entropy resets the interval to
the base immediately, so new information re-accelerates the community.
"""

from __future__ import annotations

from repro.constants import GOSSIP_LESS_THRESHOLD, GOSSIP_SLOWDOWN_S, GossipConfig

__all__ = ["IntervalPolicy"]


class IntervalPolicy:
    """Per-peer adaptive interval state machine."""

    __slots__ = ("config", "interval", "_no_news_count")

    def __init__(self, config: GossipConfig) -> None:
        self.config = config
        self.interval = config.base_interval_s
        self._no_news_count = 0

    def record_no_news_contact(self) -> bool:
        """One contact found an identical directory (and we had no rumor).

        Returns True when this contact triggered a slow-down.
        """
        self._no_news_count += 1
        if self._no_news_count >= GOSSIP_LESS_THRESHOLD:
            self._no_news_count = 0
            if self.interval < self.config.max_interval_s:
                self.interval = min(
                    self.config.max_interval_s, self.interval + GOSSIP_SLOWDOWN_S
                )
                return True
        return False

    def reset(self) -> bool:
        """New information arrived: snap back to the base interval.

        Returns True if the interval actually shrank (caller should then
        reschedule its gossip timer sooner).
        """
        self._no_news_count = 0
        if self.interval > self.config.base_interval_s:
            self.interval = self.config.base_interval_s
            return True
        return False
