"""Gossip-based aggregation: community-wide frequent-term mining.

Every node keeps a bounded **space-saving** summary of its own term
frequencies (Metwally et al.'s frequent-item sketch: at most ``capacity``
counters, per-term error bounded by ``N / capacity``) plus per-document
access counters fed by the serve and content planes.  The summary is
packaged as one immutable :class:`~repro.gossip.wire.SketchEntry` per
origin and spread by **push-pull sketch exchanges** piggybacked on the
gossip round: the initiator ships an (origin, epoch) digest of
everything it holds, the responder answers with the entries the digest
shows the initiator lacks (plus its own digest), and the initiator
pushes back anything *it* is ahead on.  A converged community therefore
trades digests only — ~12 bytes per origin per round.

Merging is a per-origin **latest-wins join**: for each origin the entry
with the largest ``(epoch, terms, docs)`` key is kept.  That key is a
total order over entries, so the merge is commutative, associative, and
idempotent — the convergence property gossip requires (entries may
arrive duplicated, reordered, or via different paths, and every node
still settles on the same per-origin set, hence the same community-wide
top-k estimate).

Aging is by **epoch**: a node rebuilds its own entry from its live index
each refresh and bumps the epoch *only when the content changed* (so a
quiescent community exchanges digests, not entries).  Removing documents
shrinks the rebuilt summary; the higher epoch replaces the stale counts
everywhere within a propagation round-trip.  Entries of departed members
are dropped alongside their directory rows at T_Dead.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from typing import TYPE_CHECKING, Any

from repro.analytics.browse import local_listing
from repro.constants import AnalyticsConfig
from repro.gossip.wire import (
    SKETCH_ENTRY,
    BrowseRequest,
    ErrorReply,
    SketchEntry,
    SketchExchange,
    SketchReply,
    TopTermsReply,
    TopTermsRequest,
)

if TYPE_CHECKING:
    from repro.net.node import NetworkPeer

__all__ = ["SpaceSaving", "TermSketch", "AnalyticsPlane"]

#: Clamp on remotely requested top-k sizes (a TopTermsRequest's u16 k).
_MAX_TOP_K = 1024

#: Per-document access counters carried per origin entry.
_TOP_DOCS = 32

#: Sketch entries pushed per exchange message — bounds the per-round
#: analytics bytes regardless of community size.
_EXCHANGE_ENTRIES = 64


class SpaceSaving:
    """The space-saving frequent-item summary (bounded counters).

    ``offer(item, count)`` either increments a tracked counter, starts a
    new one while there is room, or evicts the minimum counter and
    inherits its count (recording it as the new item's overestimation
    error).  Tracked counts never underestimate the true frequency, and
    overestimate by at most the evicted minimum — the classic guarantee
    that makes the sketch sound for top-k mining.
    """

    __slots__ = ("capacity", "_counts", "_errors")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}

    def offer(self, item: str, count: int = 1) -> None:
        """Account ``count`` occurrences of ``item``."""
        if count <= 0:
            return
        if item in self._counts:
            self._counts[item] += count
            return
        if len(self._counts) < self.capacity:
            self._counts[item] = count
            self._errors[item] = 0
            return
        evicted = min(self._counts, key=lambda t: (self._counts[t], t))
        floor = self._counts.pop(evicted)
        self._errors.pop(evicted)
        self._counts[item] = floor + count
        self._errors[item] = floor

    def error(self, item: str) -> int:
        """Overestimation bound recorded for a tracked ``item``."""
        return self._errors.get(item, 0)

    def items(self) -> list[tuple[str, int]]:
        """Tracked (item, estimated count) pairs, largest first.

        Ties break on the item itself so the order — and therefore the
        wire encoding of the entry built from it — is deterministic.
        """
        return sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def __len__(self) -> int:
        return len(self._counts)


class TermSketch:
    """The mergeable community sketch: one latest-wins entry per origin.

    The join keeps, per origin, the entry with the largest
    ``(epoch, terms, docs)`` key.  Epoch dominates (that is the aging
    signal); the content fields break the (never expected, but possible
    after a crash loses an epoch bump) tie deterministically, so two
    nodes holding different same-epoch entries still converge.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[int, SketchEntry] = {}

    @staticmethod
    def _key(entry: SketchEntry) -> tuple[int, tuple, tuple]:
        return (entry.epoch, entry.terms, entry.docs)

    def merge_entry(self, entry: SketchEntry) -> bool:
        """Join one entry in; returns whether it replaced held state."""
        held = self.entries.get(entry.origin)
        if held is not None and self._key(held) >= self._key(entry):
            return False
        self.entries[entry.origin] = entry
        return True

    def merge(self, entries: Iterable[SketchEntry]) -> int:
        """Join many entries; returns how many were adopted."""
        return sum(1 for e in entries if self.merge_entry(e))

    def forget(self, origin: int) -> None:
        """Drop a departed member's entry (directory T_Dead expiry)."""
        self.entries.pop(origin, None)

    def versions(self) -> tuple[tuple[int, int], ...]:
        """The (origin, epoch) digest of everything held, sorted."""
        return tuple(
            (origin, entry.epoch)
            for origin, entry in sorted(self.entries.items())
        )

    def entries_ahead_of(
        self, versions: Iterable[tuple[int, int]]
    ) -> list[SketchEntry]:
        """Held entries a peer with ``versions`` demonstrably lacks."""
        known: Mapping[int, int] = dict(versions)
        return [
            entry
            for origin, entry in sorted(self.entries.items())
            if known.get(origin, -1) < entry.epoch
        ]

    def term_counts(self) -> Counter[str]:
        """Community-wide term-frequency estimate (sum over origins)."""
        totals: Counter[str] = Counter()
        for entry in self.entries.values():
            for term, count in entry.terms:
                totals[term] += count
        return totals

    def doc_counts(self) -> Counter[str]:
        """Community-wide per-document access counts (sum over origins)."""
        totals: Counter[str] = Counter()
        for entry in self.entries.values():
            for doc_id, count in entry.docs:
                totals[doc_id] += count
        return totals

    def top_terms(self, k: int) -> list[tuple[str, int]]:
        """The estimated community top-``k`` terms, largest first
        (count ties broken by term for a deterministic answer)."""
        totals = self.term_counts()
        ordered = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered[: max(0, k)]

    def __len__(self) -> int:
        return len(self.entries)


class AnalyticsPlane:
    """One node's analytics state and its gossip-round maintenance.

    Opt-in (``enabled`` is False when constructed without a config): the
    flat gossip plane's Table-2 accounting must stay exactly the paper's
    inventory, so a node pays nothing for analytics unless asked.  The
    plane registers its three request types on the node behind one
    "analytics plane is off" gate, and its round hook only when enabled.
    """

    def __init__(self, node: NetworkPeer, config: AnalyticsConfig | None) -> None:
        self.node = node
        self.enabled = config is not None
        self.config = config or AnalyticsConfig()
        self.sketch = TermSketch()
        #: local per-document access counters (serve + content reads).
        self.accesses: Counter[str] = Counter()
        self._obs = node.obs
        self._c_exchanges = self._obs.counter(
            "analytics", "sketch_exchanges_total", "push-pull sketch exchanges run"
        )
        self._c_merged = self._obs.counter(
            "analytics", "entries_merged_total", "foreign sketch entries adopted"
        )
        self._c_refreshes = self._obs.counter(
            "analytics", "local_refreshes_total", "own-entry rebuilds that changed"
        )
        self._g_origins = self._obs.gauge(
            "analytics", "sketch_origins", "origins with a held sketch entry"
        )
        self._g_entry_bytes = self._obs.gauge(
            "analytics", "own_entry_bytes", "model size of this node's entry"
        )
        for cls, handler in (
            (SketchExchange, self.on_exchange),
            (TopTermsRequest, self.on_top_terms),
            (BrowseRequest, lambda msg: local_listing(node, msg)),
        ):
            node.add_handler(cls, self._gated(handler))
        if self.enabled:
            node.add_round_hook(self.maintenance_round)

    def _gated(self, handler: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """``handler``, answering an error while the plane is off."""

        def serve(msg: Any) -> Any:
            if not self.enabled:
                return ErrorReply("analytics plane is off")
            return handler(msg)

        return serve

    # -- local summary ------------------------------------------------------

    def record_access(self, doc_id: str) -> None:
        """Count one read of a local document (feeds popularity)."""
        if self.enabled:
            self.accesses[doc_id] += 1

    def _build_own_entry(self, epoch: int) -> SketchEntry:
        """Rebuild this node's entry from the live index and counters."""
        store = self.node.peer.store
        summary = SpaceSaving(self.config.sketch_capacity)
        index = store.index
        for term in index.terms():
            summary.offer(term, index.collection_frequency(term))
        docs = sorted(
            (
                (doc_id, count)
                for doc_id, count in self.accesses.items()
                if doc_id in store
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )[:_TOP_DOCS]
        return SketchEntry(
            self.node.peer_id, epoch, tuple(summary.items()), tuple(docs)
        )

    def refresh_local(self) -> bool:
        """Rebuild the own entry; bump the epoch only on real change.

        Keeping the epoch still when nothing changed is what lets a
        quiescent community go digest-only: a gratuitous bump would make
        every exchange re-ship the (identical) entry forever.
        """
        held = self.sketch.entries.get(self.node.peer_id)
        probe = self._build_own_entry(held.epoch if held is not None else 0)
        if held is not None and (probe.terms, probe.docs) == (
            held.terms,
            held.docs,
        ):
            return False
        entry = SketchEntry(
            probe.origin,
            (held.epoch if held is not None else 0) + 1,
            probe.terms,
            probe.docs,
        )
        self.sketch.entries[entry.origin] = entry
        self._c_refreshes.inc()
        self._g_origins.set(len(self.sketch))
        self._g_entry_bytes.set(SKETCH_ENTRY.width(entry, 0))
        return True

    # -- gossip-round maintenance ------------------------------------------

    async def maintenance_round(self) -> None:
        """One push-pull exchange per gossip round (the round hook an
        enabled plane registers)."""
        self.refresh_local()
        target = self.node.pick_target()
        if target is None:
            return
        # Digest-only opener: our own entry is covered by the versions
        # digest, so a converged community trades ~12 bytes per origin
        # per round, never entries.  The responder answers with what we
        # lack, and the push-back below ships what *it* lacks.
        reply = await self.node.request_peer(target, SketchExchange((), self.sketch.versions()))
        if not isinstance(reply, SketchReply):
            return
        self._c_exchanges.inc()
        adopted = self.sketch.merge(reply.entries)
        if adopted:
            self._c_merged.inc(adopted)
        # The responder's digest may show *us* ahead on origins it never
        # asked about — push those back so knowledge flows both ways.
        ahead = self.sketch.entries_ahead_of(reply.versions)
        ahead = [e for e in ahead if e not in reply.entries]
        if ahead:
            await self.node.request_peer(
                target,
                SketchExchange(tuple(ahead[:_EXCHANGE_ENTRIES]), ()),
            )
        self._g_origins.set(len(self.sketch))

    # -- server side --------------------------------------------------------

    def on_exchange(self, msg: SketchExchange) -> SketchReply:
        """Merge pushed entries; answer with what the sender lacks."""
        adopted = self.sketch.merge(msg.entries)
        if adopted:
            self._c_merged.inc(adopted)
        self._g_origins.set(len(self.sketch))
        missing: tuple[SketchEntry, ...] = ()
        if msg.versions:
            missing = tuple(self.sketch.entries_ahead_of(msg.versions)[:_EXCHANGE_ENTRIES])
        return SketchReply(missing, self.sketch.versions())

    def on_top_terms(self, msg: TopTermsRequest) -> TopTermsReply:
        """Serve the converged community top-k estimate."""
        # A node polled before its first gossip round still answers with
        # its own contribution (the rebuild no-ops when nothing changed).
        self.refresh_local()
        k = max(1, min(msg.k, _MAX_TOP_K))
        return TopTermsReply(len(self.sketch), tuple(self.sketch.top_terms(k)))

    def forget(self, origin: int) -> None:
        """Drop a departed origin's entry (T_Dead expiry)."""
        self.sketch.forget(origin)
        self._g_origins.set(len(self.sketch))
