"""Wire-size model for gossip messages (paper Table 2).

The simulator transfers byte *counts*, not contents; this module is the
single place those counts are computed so experiments and tests agree on
the cost of every message type.

Message inventory
-----------------
``rumor_push``       header + one id digest (6 B) per active rumor
``rumor_reply``      header + 6 B per needed id + 6 B per partial-AE id
``rumor_data``       header + sum of rumor payloads
``ae_request``       header + directory digest (8 B)
``ae_nothing``       header (digests matched)
``ae_recent``        header + 6 B per recently-learned rumor id (first,
                     cheap reconciliation level: "message sizes are mostly
                     proportional to the number of changes being
                     propagated, not the community size")
``ae_summary``       header + 48 B per known member (the full directory
                     summary whose size the paper notes is proportional
                     to community size; fallback when peers have diverged
                     beyond the recent window)
``pull_request``     header + 6 B per requested id
``join_request``     header + joiner's own peer record + Bloom filter
``join_snapshot``    header + (48 B + Bloom filter) per known member

Every other message type (:data:`repro.gossip.wire.ROWS` lists all 43:
the serve, partial-view, content and analytics inventories plus the
search RPCs) is priced by :meth:`MessageSizer.model_size` as the header
plus a width walk over the row's field layout — each field at its wire
width, a member record at the flat 48 B above — so the 2x
model-vs-codec envelope covers them too.  They stay outside the Table-2
gossip accounting: the per-exchange helpers below never see them.
"""

from __future__ import annotations

from repro.constants import BF_SUMMARY_BYTES, MESSAGE_HEADER_BYTES, PEER_SUMMARY_BYTES
from repro.gossip import wire

__all__ = ["MessageSizer"]

_ID_BYTES = BF_SUMMARY_BYTES  # one rumor-id digest on the wire (Table 2's "BF summary")
_DIGEST_BYTES = 8


class MessageSizer:
    """Computes message sizes from the Table 2 constants."""

    __slots__ = ()

    def rumor_push(self, num_active: int) -> int:
        """x announces its active rumor ids to y."""
        return MESSAGE_HEADER_BYTES + _ID_BYTES * num_active

    def rumor_reply(self, num_needed: int, num_piggyback: int) -> int:
        """y answers which ids it needs, piggybacking partial-AE ids."""
        return MESSAGE_HEADER_BYTES + _ID_BYTES * (num_needed + num_piggyback)

    def rumor_data(self, payload_bytes: int) -> int:
        """x ships the needed rumor payloads."""
        return MESSAGE_HEADER_BYTES + payload_bytes

    def ae_request(self) -> int:
        """x asks y for its directory summary, sending its own digest."""
        return MESSAGE_HEADER_BYTES + _DIGEST_BYTES

    def ae_nothing(self) -> int:
        """Digests matched; nothing to exchange."""
        return MESSAGE_HEADER_BYTES

    def ae_recent(self, num_ids: int) -> int:
        """Cheap reconciliation: the target's recently-learned rumor ids."""
        return MESSAGE_HEADER_BYTES + _ID_BYTES * num_ids

    def ae_summary(self, num_members_known: int) -> int:
        """y's full directory summary (proportional to community size)."""
        return MESSAGE_HEADER_BYTES + PEER_SUMMARY_BYTES * num_members_known

    def pull_request(self, num_ids: int) -> int:
        """Request specific rumor payloads by id."""
        return MESSAGE_HEADER_BYTES + _ID_BYTES * num_ids

    def join_request(self, joiner_bf_bytes: int) -> int:
        """A new member introduces itself to its bootstrap peer."""
        return MESSAGE_HEADER_BYTES + PEER_SUMMARY_BYTES + joiner_bf_bytes

    def join_snapshot(self, num_members: int, bf_bytes_per_member: int) -> int:
        """Full directory download for a new member: every member's record
        plus its Bloom filter (the 16 MB-for-1000-peers case of Section 7.2)."""
        return MESSAGE_HEADER_BYTES + num_members * (PEER_SUMMARY_BYTES + bf_bytes_per_member)

    def model_size(self, msg: object) -> int:
        """Model size of one :mod:`repro.gossip.wire` message.

        This is the bridge between the two views of the inventory: the
        real codec encodes the message's contents, this method prices the
        same object under the simulator's byte model, and the validation
        suite holds the two within a factor of two of each other.  The
        ten Table-2 types go through the by-count methods above; the rest
        are the header plus the width of their row's layout.
        """
        row = wire.ROW_OF.get(type(msg))
        if row is None:
            raise TypeError(f"not a gossip wire message: {type(msg).__name__}")
        if row.table2 is not None:
            return row.table2(self, msg)
        return MESSAGE_HEADER_BYTES + row.body.width(msg, PEER_SUMMARY_BYTES)
