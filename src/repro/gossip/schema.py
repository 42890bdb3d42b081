"""Field specs: the vocabulary the wire-schema table is written in.

A :class:`Spec` describes one field layout once and carries everything
derived from that description: how to write it into a frame (``enc``),
how to read it back with every bound checked (``dec``), the fewest bytes
it can occupy (``min_bytes`` — what lets a forged ``u32`` item count be
rejected before any loop runs) and what it costs under the simulator's
byte model (``width`` — a walk over the value, never a second encoding).
``kind`` and ``parts`` expose the structure to other walkers; the test
suite generates random messages from them.

All integers are big-endian.  Scalars: :data:`U8`, :data:`U16`,
:data:`U32`, :data:`U64`, :data:`F64`, :data:`BOOL` (one byte, any
nonzero reads true), :data:`RID` (a 6-byte rumor id, Table 2's id-digest
size), :data:`TEXT` (``u16`` length + UTF-8), :data:`BLOB` (``u32``
length + raw bytes) and :data:`DOC_TEXT` (``u32`` length + UTF-8, so
documents larger than 64 KiB survive).  Combinators: :func:`enum`,
:func:`seq`, :func:`tup`, :func:`record`, :func:`when` and
:func:`priced_as_summary`.

The contract is "bytes or :class:`CodecError`": a value that does not
fit its field raises ``CodecError`` on the way out, and no frame —
truncated, forged or garbage — raises anything else on the way in.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Mapping
from dataclasses import fields as dataclass_fields
from operator import attrgetter, itemgetter
from typing import Any, NamedTuple

__all__ = [
    "CodecError",
    "Spec",
    "U8",
    "U16",
    "U32",
    "U64",
    "F64",
    "BOOL",
    "RID",
    "TEXT",
    "BLOB",
    "DOC_TEXT",
    "enum",
    "seq",
    "tup",
    "record",
    "when",
    "priced_as_summary",
    "pack",
    "unpack",
]


class CodecError(ValueError):
    """A frame could not be encoded or decoded."""


#: Takes the next chunk of the frame being written.  Chunks are joined
#: once at the end, so a 64 KiB blob is copied once, not per append.
Emit = Callable[[bytes], Any]


class Spec(NamedTuple):
    """One field layout and the functions derived from it."""

    kind: str
    #: ``enc(emit, value)`` hands the value's bytes to ``emit`` in order.
    enc: Callable[[Emit, Any], None]
    #: ``dec(data, pos)`` returns ``(value, next_pos)``.  A fixed-width
    #: read past the end surfaces as ``struct.error``; :func:`unpack`
    #: turns it into "truncated frame".
    dec: Callable[[bytes, int], tuple[Any, int]]
    min_bytes: int
    #: ``width(value, summary_bytes)`` is the model size, with
    #: ``summary_bytes`` the flat price of one directory record.
    width: Callable[[Any, int], int]
    parts: tuple = ()


def _fixed(kind: str, fmt: str) -> Spec:
    layout = struct.Struct(">" + fmt)
    pack_one, unpack_from, size = layout.pack, layout.unpack_from, layout.size

    def enc(emit: Emit, v: Any) -> None:
        try:
            emit(pack_one(v))
        except struct.error as exc:
            raise CodecError(f"{v!r} does not fit a {kind} field") from exc

    def dec(data: bytes, pos: int) -> tuple[Any, int]:
        return unpack_from(data, pos)[0], pos + size

    return Spec(kind, enc, dec, size, lambda v, summary_bytes: size)


U8 = _fixed("u8", "B")
U16 = _fixed("u16", "H")
U32 = _fixed("u32", "I")
U64 = _fixed("u64", "Q")
F64 = _fixed("f64", "d")
BOOL = _fixed("bool", "?")  # writes truthiness; any nonzero byte reads True


_RID_BYTES = 6  # Table 2's 6-byte rumor-id digest


def _rid_enc(emit: Emit, v: int) -> None:
    if not 0 <= v < 1 << (8 * _RID_BYTES):
        raise CodecError(f"rumor id {v} does not fit in {_RID_BYTES} bytes")
    emit(v.to_bytes(_RID_BYTES, "big"))


def _rid_dec(data: bytes, pos: int) -> tuple[int, int]:
    end = pos + _RID_BYTES
    if end > len(data):
        raise CodecError("truncated frame")
    return int.from_bytes(data[pos:end], "big"), end


RID = Spec("rid", _rid_enc, _rid_dec, _RID_BYTES, lambda v, summary_bytes: _RID_BYTES)


def _lengthed(kind: str, prefix: str, oversize: str, utf8: str | None) -> Spec:
    """Length prefix + raw bytes; a ``str`` travelling as UTF-8 when
    ``utf8`` names the field for the decode-error message."""
    layout = struct.Struct(">" + prefix)
    pack_len, unpack_from, head = layout.pack, layout.unpack_from, layout.size
    limit = (1 << (8 * head)) - 1

    def enc(emit: Emit, v: Any) -> None:
        raw = v.encode("utf-8") if utf8 else v
        if len(raw) > limit:
            raise CodecError(oversize)
        emit(pack_len(len(raw)))
        emit(raw)

    def dec(data: bytes, pos: int) -> tuple[Any, int]:
        start = pos + head
        end = start + unpack_from(data, pos)[0]
        if end > len(data):
            raise CodecError("truncated frame")
        if not utf8:
            return data[start:end], end
        try:
            return data[start:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in {utf8}: {exc}") from exc

    def width(v: Any, summary_bytes: int) -> int:
        return head + len(v.encode("utf-8") if utf8 else v)

    return Spec(kind, enc, dec, head, width)


TEXT = _lengthed("text", "H", "string field exceeds 64 KiB", "string field")
BLOB = _lengthed("blob", "I", "blob field exceeds 4 GiB", None)
DOC_TEXT = _lengthed("doctext", "I", "document text exceeds 4 GiB", "document text")


def enum(codes: Mapping[Any, int], what: str) -> Spec:
    """One byte naming a member of ``codes`` (member -> wire code)."""
    chunks = {member: bytes((code,)) for member, code in codes.items()}
    members = {code: member for member, code in codes.items()}

    def enc(emit: Emit, v: Any) -> None:
        chunk = chunks.get(v)
        if chunk is None:
            raise CodecError(f"unknown {what} {v!r}")
        emit(chunk)

    def dec(data: bytes, pos: int) -> tuple[Any, int]:
        code, pos = U8.dec(data, pos)
        if code not in members:
            raise CodecError(f"unknown {what} code {code}")
        return members[code], pos

    return Spec("enum", enc, dec, 1, U8.width, (tuple(codes),))


def seq(
    item: Spec, count: Spec = U32, max_items: int | None = None, what: str = ""
) -> Spec:
    """``count`` + that many ``item``s, decoded to a tuple.

    A ``u32`` count is rejected up front when even minimum-sized items
    could not fit in the bytes that remain, so a forged count can never
    drive a long decode loop or a large allocation.  ``max_items`` caps
    a ``what`` term list on both sides.
    """
    item_enc, item_dec, item_width = item.enc, item.dec, item.width
    count_enc, count_dec = count.enc, count.dec
    # Only u32 counts are guarded: a u16 count is bounded by its width.
    item_min = item.min_bytes if count is U32 else 0

    def enc(emit: Emit, v: Any) -> None:
        if max_items is not None and len(v) > max_items:
            raise CodecError(f"{what} query exceeds {max_items} terms")
        count_enc(emit, len(v))
        for x in v:
            item_enc(emit, x)

    def dec(data: bytes, pos: int) -> tuple[tuple, int]:
        n, pos = count_dec(data, pos)
        if n * item_min > len(data) - pos:
            raise CodecError(f"count {n} exceeds remaining frame bytes")
        if max_items is not None and n > max_items:
            raise CodecError(f"{what} term count {n} exceeds {max_items}")
        out = []
        for _ in range(n):
            x, pos = item_dec(data, pos)
            out.append(x)
        return tuple(out), pos

    def width(v: Any, summary_bytes: int) -> int:
        return count.min_bytes + sum(item_width(x, summary_bytes) for x in v)

    return Spec("seq", enc, dec, count.min_bytes, width, (item, count, max_items))


def tup(*items: Spec) -> Spec:
    """A positional tuple: each item in order, no framing of its own."""
    encs = tuple(s.enc for s in items)
    decs = tuple(s.dec for s in items)
    widths = tuple(s.width for s in items)

    if len(items) == 2:
        # (key, value) pairs are the items of most lists on the wire;
        # unrolled they cost half what the general loops below do.
        (enc0, enc1), (dec0, dec1) = encs, decs

        def enc(emit: Emit, v: Any) -> None:
            first, second = v
            enc0(emit, first)
            enc1(emit, second)

        def dec(data: bytes, pos: int) -> tuple[tuple, int]:
            first, pos = dec0(data, pos)
            second, pos = dec1(data, pos)
            return (first, second), pos

    else:

        def enc(emit: Emit, v: Any) -> None:
            for item_enc, x in zip(encs, v, strict=True):
                item_enc(emit, x)

        def dec(data: bytes, pos: int) -> tuple[tuple, int]:
            out = []
            for item_dec in decs:
                x, pos = item_dec(data, pos)
                out.append(x)
            return tuple(out), pos

    def width(v: Any, summary_bytes: int) -> int:
        return sum(w(x, summary_bytes) for w, x in zip(widths, v, strict=True))

    return Spec("tup", enc, dec, sum(s.min_bytes for s in items), width, items)


def when(flag: str, spec: Spec, missing: str) -> Spec:
    """A :func:`record` field present on the wire iff the record's
    earlier boolean field ``flag`` is true; absent, it decodes to
    ``None``.  Encoding a set flag with a ``None`` value raises
    ``CodecError(missing)``."""

    def enc(emit: Emit, v: Any) -> None:
        if v is None:
            raise CodecError(missing)
        spec.enc(emit, v)

    def width(v: Any, summary_bytes: int) -> int:
        return 0 if v is None else spec.width(v, summary_bytes)

    return Spec("when", enc, spec.dec, 0, width, (flag, spec))


def record(cls: type, **layout: Spec) -> Spec:
    """A dataclass, its fields named in *wire* order.

    The fields must be exactly the dataclass's own — a field added to
    the class but not to its layout fails at import, not on the wire.
    """
    names = tuple(layout)
    declared = tuple(f.name for f in dataclass_fields(cls))
    if sorted(names) != sorted(declared):
        raise TypeError(f"{cls.__name__} layout {names} != fields {declared}")
    # The constructor is called positionally; reorder only where the
    # wire order differs from the declaration order.
    reorder = None if names == declared else itemgetter(*map(names.index, declared))
    # A when() field is gated by an earlier flag field: encode and width
    # read the flag off the object, decode off the values read so far.
    enc_plan, dec_plan, width_plan = [], [], []
    for name, spec in layout.items():
        get, flag, flag_at = attrgetter(name), None, None
        if spec.kind == "when":
            flag, flag_at = attrgetter(spec.parts[0]), names.index(spec.parts[0])
        enc_plan.append((get, spec.enc, flag))
        dec_plan.append((spec.dec, flag_at))
        width_plan.append((get, spec.width, flag))

    def enc(emit: Emit, v: Any) -> None:
        for get, field_enc, flag in enc_plan:
            if flag is None or flag(v):
                field_enc(emit, get(v))

    def dec(data: bytes, pos: int) -> tuple[Any, int]:
        vals: list = []
        for field_dec, flag_at in dec_plan:
            x = None
            if flag_at is None or vals[flag_at]:
                x, pos = field_dec(data, pos)
            vals.append(x)
        return cls(*(vals if reorder is None else reorder(vals))), pos

    def width(v: Any, summary_bytes: int) -> int:
        return sum(
            field_width(get(v), summary_bytes)
            for get, field_width, flag in width_plan
            if flag is None or flag(v)
        )

    min_bytes = sum(spec.min_bytes for spec in layout.values())
    return Spec("record", enc, dec, min_bytes, width, (cls, tuple(layout.items())))


def priced_as_summary(spec: Spec) -> Spec:
    """The same layout, but modelled at the flat per-record price the
    paper's Table 2 budgets for one directory row (``summary_bytes``)."""
    return spec._replace(width=lambda v, summary_bytes: summary_bytes)


def pack(spec: Spec, value: Any, prefix: bytes = b"") -> bytes:
    """``prefix`` + the encoding of ``value``."""
    chunks = [prefix]
    spec.enc(chunks.append, value)
    return b"".join(chunks)


def unpack(spec: Spec, data: bytes, pos: int = 0) -> Any:
    """Decode all of ``data`` from ``pos``; leftover bytes are an error."""
    try:
        value, end = spec.dec(data, pos)
    except struct.error:
        raise CodecError("truncated frame") from None
    if end != len(data):
        raise CodecError("trailing bytes after message body")
    return value
