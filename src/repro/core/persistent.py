"""Persistent queries (paper Section 5.1), sans-IO.

A persistent query registers interest in new information: whenever a
matching document is published, the poster gets an upcall.  PFS builds
its query directories on these upcalls.  :class:`StandingQueries` makes
every policy decision and no I/O; :class:`~repro.core.community.
InProcessCommunity` and :class:`~repro.serve.subscriptions.
SubscriptionManager` drive it the same way — ``post``, ``baseline``,
then per changed peer ``candidates`` → local match → ``deliverable`` →
``acked`` — and differ only in when they ack: before the in-process
upcall (at most once), after the subscriber acks its ``Notify`` (at
least once).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = ["StandingQueries", "Subscription"]


@dataclass
class Subscription:
    """One standing (exhaustive, conjunctive) query — the row a serving
    node checkpoints; ``notify_address`` is ``""`` in-process."""

    sub_id: int
    terms: tuple[str, ...]
    notify_address: str
    created_at: float
    #: doc ids already delivered (dedup across probes, republications,
    #: and restarts).
    delivered: set[str] = field(default_factory=set)


class StandingQueries:
    """The registered rows and the delivery policy over them."""

    def __init__(self) -> None:
        #: live rows by id, in registration order.
        self.rows: dict[int, Subscription] = {}
        self.next_id = 1

    def post(
        self,
        terms: Sequence[str],
        *,
        sub_id: int = 0,
        notify_address: str = "",
        created_at: float = 0.0,
    ) -> tuple[Subscription, bool]:
        """Open a row for ``terms``; returns ``(row, reattached)``.

        A nonzero ``sub_id`` naming a live row with equal terms reattaches
        to it (refreshing a non-empty ``notify_address``; the delivered
        set survives).  Otherwise the row is new — id ``sub_id`` or the
        next free one — and is not live until :meth:`baseline`.
        """
        terms_t = tuple(terms)
        if not terms_t:
            raise ValueError("query analyzed to zero terms")
        existing = self.rows.get(sub_id) if sub_id else None
        if existing is not None and existing.terms == terms_t:
            if notify_address:
                existing.notify_address = notify_address
            return existing, True
        sub_id = sub_id or self.next_id
        self.next_id = max(self.next_id, sub_id) + 1
        return Subscription(sub_id, terms_t, notify_address, created_at), False

    def baseline(self, sub: Subscription, doc_ids: Iterable[str]) -> None:
        """Register ``sub`` with ``doc_ids`` — the matches searchable when
        it was posted — delivered silently: upcalls mean "published after
        you subscribed"."""
        sub.delivered.update(doc_ids)
        self.rows[sub.sub_id] = sub

    def cancel(self, sub_id: int) -> Subscription:
        """Deregister a row; raises :class:`KeyError` for an unknown id."""
        try:
            return self.rows.pop(sub_id)
        except KeyError:
            raise KeyError(sub_id) from None

    def candidates(self, may_hold: Callable[[tuple[str, ...]], bool]) -> list[Subscription]:
        """Live rows whose terms a changed peer's filter ``may_hold`` —
        a snapshot, so upcalls may post or cancel while it is walked."""
        return [sub for sub in self.rows.values() if may_hold(sub.terms)]

    def deliverable(self, sub: Subscription, doc_ids: Iterable[str]) -> list[str]:
        """The ids of ``doc_ids`` still owed to ``sub``; none once it is
        cancelled."""
        if self.rows.get(sub.sub_id) is not sub:
            return []
        return [d for d in doc_ids if d not in sub.delivered]

    def acked(self, sub: Subscription, doc_id: str) -> bool:
        """Record ``doc_id`` as delivered to ``sub``; returns whether it
        was still owed (a no-op on a cancelled row)."""
        if self.rows.get(sub.sub_id) is not sub or doc_id in sub.delivered:
            return False
        sub.delivered.add(doc_id)
        return True

    # -- the PPSUB001 rows ----------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """The checkpoint payload: the id counter and every row, sorted."""
        return {
            "next_sub_id": self.next_id,
            "subs": [
                {
                    "id": s.sub_id,
                    "terms": list(s.terms),
                    "addr": s.notify_address,
                    "at": s.created_at,
                    "delivered": sorted(s.delivered),
                }
                for _sid, s in sorted(self.rows.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> StandingQueries:
        """Rebuild from :meth:`to_payload`'s output; a malformed payload
        raises ``ValueError``, ``KeyError`` or ``TypeError``."""
        queries = cls()
        for e in payload["subs"]:
            sub = Subscription(
                int(e["id"]),
                tuple(str(t) for t in e["terms"]),
                str(e["addr"]),
                float(e["at"]),
                {str(d) for d in e["delivered"]},
            )
            queries.rows[sub.sub_id] = sub
        queries.next_id = max(int(payload["next_sub_id"]), max(queries.rows, default=0) + 1)
        return queries

    def __len__(self) -> int:
        return len(self.rows)
