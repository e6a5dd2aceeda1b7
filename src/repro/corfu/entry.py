"""Log entries and stream headers.

Paper section 5: "each entry in the shared log now has a small stream
header. This header includes a stream ID as well as backpointers to the
last K entries in the shared log belonging to the same stream."

Two header formats exist:

- **relative** — K backpointers stored as 2-byte deltas from the current
  offset. A delta overflows if the previous entry of the stream is more
  than 64K entries back.
- **absolute** — if all K deltas overflow, the header stores K/4
  backpointers as 8-byte absolute offsets instead.

"In practice, we use a 31-bit stream ID and use the remaining bit to
store the format indicator. If K = 4, which is the minimum required for
this scheme, the header uses 12 bytes." An entry carries a fixed number
of such headers, equal to the maximum number of streams a single
multiappend (and therefore a single transaction's write set) may touch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import TooManyStreamsError

# Sentinel meaning "no previous entry for this stream".
NO_BACKPOINTER = -1

# Relative deltas are 16-bit; 0 is reserved as the "none" sentinel since a
# delta of 0 would point an entry at itself.
_MAX_RELATIVE_DELTA = 0xFFFF
_ABSOLUTE_NONE = 0xFFFFFFFFFFFFFFFF

MAX_STREAM_ID = (1 << 31) - 1

#: Default backpointer redundancy (paper: "If K = 4, which is the minimum
#: required for this scheme").
DEFAULT_K = 4

#: Default 4KB log entries (paper section 6).
DEFAULT_ENTRY_SIZE = 4096

# Precompiled little-endian layouts. An entry is
# ``[junk:u16][nheaders:u16][headers...][len:u32][payload]``; a header
# is ``[stream_id << 1 | absolute:u32]`` followed by K u16 deltas
# (relative) or max(1, K/4) u64 offsets (absolute).
_ENTRY_HEAD = struct.Struct("<HH")
_U32 = struct.Struct("<I")
_HEADER_LAYOUTS: Dict[int, Tuple[struct.Struct, struct.Struct]] = {}


def _header_layouts(k: int) -> Tuple[struct.Struct, struct.Struct]:
    """The (relative, absolute) header layouts for redundancy *k*."""
    layouts = _HEADER_LAYOUTS.get(k)
    if layouts is None:
        layouts = _HEADER_LAYOUTS.setdefault(
            k,
            (struct.Struct(f"<I{k}H"), struct.Struct(f"<I{max(1, k // 4)}Q")),
        )
    return layouts


@dataclass(frozen=True)
class StreamHeader:
    """One stream's header on a log entry.

    ``backpointers`` always has logical length K (relative format) or
    K/4 (absolute format), padded with :data:`NO_BACKPOINTER`. Pointers
    are absolute log offsets in both cases; the encoding layer converts
    to deltas for the relative format.
    """

    stream_id: int
    backpointers: Tuple[int, ...]
    is_absolute: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.stream_id <= MAX_STREAM_ID:
            raise ValueError(f"stream id {self.stream_id} out of 31-bit range")

    def previous_offset(self) -> int:
        """Offset of the stream's most recent prior entry, or NO_BACKPOINTER."""
        if not self.backpointers:
            return NO_BACKPOINTER
        return self.backpointers[0]

    def encode(self, buf: bytearray, own_offset: int, k: int) -> None:
        """Serialize this header into *buf* for an entry at *own_offset*."""
        buf += self._pack(own_offset, k)

    def _pack(self, own_offset: int, k: int) -> bytes:
        relative, absolute = _header_layouts(k)
        if self.is_absolute:
            count = max(1, k // 4)
            ptrs = self.backpointers[:count]
            return absolute.pack(
                (self.stream_id << 1) | 1,
                *[_ABSOLUTE_NONE if p == NO_BACKPOINTER else p for p in ptrs],
                *(_ABSOLUTE_NONE,) * (count - len(ptrs)),
            )
        deltas = []
        for ptr in self.backpointers[:k]:
            if ptr == NO_BACKPOINTER:
                deltas.append(0)
                continue
            delta = own_offset - ptr
            if not 0 < delta <= _MAX_RELATIVE_DELTA:
                raise ValueError(
                    f"relative delta {delta} out of range at offset "
                    f"{own_offset}; caller should have used the "
                    f"absolute format"
                )
            deltas.append(delta)
        return relative.pack(
            self.stream_id << 1, *deltas, *(0,) * (k - len(deltas))
        )

    @staticmethod
    def decode(buf: bytes, off: int, own_offset: int, k: int) -> Tuple["StreamHeader", int]:
        """Deserialize a header encoded at *off* for an entry at *own_offset*."""
        relative, absolute = _header_layouts(k)
        # The format flag is the low bit of the little-endian id word,
        # i.e. of its first byte.
        if buf[off] & 1:
            word, *raw = absolute.unpack_from(buf, off)
            ptrs = [NO_BACKPOINTER if p == _ABSOLUTE_NONE else p for p in raw]
            return StreamHeader(word >> 1, tuple(ptrs), True), off + absolute.size
        word, *deltas = relative.unpack_from(buf, off)
        ptrs = [own_offset - d if d else NO_BACKPOINTER for d in deltas]
        return StreamHeader(word >> 1, tuple(ptrs), False), off + relative.size


def make_header(stream_id: int, last_offsets: Sequence[int], own_offset: int, k: int) -> StreamHeader:
    """Build the header for an entry at *own_offset*, choosing the format.

    *last_offsets* is the sequencer's record of the last K offsets issued
    for this stream, newest first. The relative format is used unless
    **all** K deltas overflow 16 bits (paper section 5); in that case the
    header falls back to K/4 absolute pointers.
    """
    ptrs = [p for p in last_offsets[:k] if p != NO_BACKPOINTER]
    if not ptrs:
        return StreamHeader(stream_id, (NO_BACKPOINTER,) * k, is_absolute=False)
    all_overflow = all(own_offset - p > _MAX_RELATIVE_DELTA for p in ptrs)
    if all_overflow:
        count = max(1, k // 4)
        return StreamHeader(stream_id, tuple(ptrs[:count]), is_absolute=True)
    # Relative format: individually-overflowing pointers degrade to "none".
    rel = [
        p if own_offset - p <= _MAX_RELATIVE_DELTA else NO_BACKPOINTER
        for p in last_offsets[:k]
    ]
    rel += [NO_BACKPOINTER] * (k - len(rel))
    return StreamHeader(stream_id, tuple(rel), is_absolute=False)


@dataclass(frozen=True)
class LogEntry:
    """A single entry in the shared log.

    ``headers`` carries one :class:`StreamHeader` per stream the entry
    belongs to (at most ``max_streams`` of them, a deployment-time
    constant). ``payload`` is opaque to CORFU; the Tango runtime packs
    update/commit records into it. ``is_junk`` marks entries written by
    the ``fill`` primitive to patch holes left by crashed clients; junk
    entries carry no headers and no payload.
    """

    headers: Tuple[StreamHeader, ...] = field(default_factory=tuple)
    payload: bytes = b""
    is_junk: bool = False

    def stream_ids(self) -> Tuple[int, ...]:
        """Ids of all streams this entry belongs to."""
        return tuple(h.stream_id for h in self.headers)

    def header_for(self, stream_id: int) -> Optional[StreamHeader]:
        """Return this entry's header for *stream_id*, or None."""
        for header in self.headers:
            if header.stream_id == stream_id:
                return header
        return None

    @staticmethod
    def junk() -> "LogEntry":
        """The junk entry used to fill holes."""
        return LogEntry(headers=(), payload=b"", is_junk=True)

    def encode(self, own_offset: int, k: int = DEFAULT_K, max_streams: int = 16) -> bytes:
        """Serialize to the on-flash format.

        Layout: ``[junk:u16][nheaders:u16][headers...][len:u32][payload]``.
        """
        headers = self.headers
        if len(headers) > max_streams:
            raise TooManyStreamsError(len(headers), max_streams)
        payload = self.payload
        return b"".join((
            _ENTRY_HEAD.pack(1 if self.is_junk else 0, len(headers)),
            *[header._pack(own_offset, k) for header in headers],
            _U32.pack(len(payload)),
            payload,
        ))

    @staticmethod
    def decode(raw: bytes, own_offset: int, k: int = DEFAULT_K) -> "LogEntry":
        """Deserialize an entry previously produced by :meth:`encode`."""
        junk_flag, nheaders = _ENTRY_HEAD.unpack_from(raw, 0)
        off = _ENTRY_HEAD.size
        headers = []
        for _ in range(nheaders):
            header, off = StreamHeader.decode(raw, off, own_offset, k)
            headers.append(header)
        (length,) = _U32.unpack_from(raw, off)
        off += 4
        return LogEntry(
            tuple(headers), bytes(raw[off:off + length]), bool(junk_flag)
        )


# -- vector-grant markers ----------------------------------------------------

#: Magic prefix of a vector-grant marker entry. A cross-shard
#: multiappend reserves one offset per touched sequencer shard but
#: writes its data at the highest reservation only; each burned
#: reservation receives a headerless marker entry naming the final
#: offset and the streams of that reservation's shard, so a per-shard
#: recovery scan (which only reads its own stripe) still learns about
#: cross-shard entries living in other stripes. Markers carry no
#: stream headers — normal sync never sees them.
SEQ_VECTOR_MAGIC = b"SEQVEC1"


def encode_vector_marker(final_offset: int, stream_ids: Sequence[int]) -> bytes:
    """Payload of the marker written at a burned vector-grant reservation."""
    import json

    body = {"offset": final_offset, "streams": sorted(stream_ids)}
    return SEQ_VECTOR_MAGIC + json.dumps(
        body, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_vector_marker(payload: bytes) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Invert :func:`encode_vector_marker`; None if not a marker."""
    import json

    if not payload.startswith(SEQ_VECTOR_MAGIC):
        return None
    try:
        body = json.loads(payload[len(SEQ_VECTOR_MAGIC):])
        return int(body["offset"]), tuple(int(s) for s in body["streams"])
    except (ValueError, KeyError, TypeError):
        return None


def header_bytes(k: int) -> int:
    """On-flash size of one stream header with redundancy *k*.

    With the default K=4 this is 12 bytes, matching the paper ("each
    extra stream requiring 12 bytes of space in a 4KB log entry").
    """
    return 4 + 2 * k


def max_payload_bytes(entry_size: int, max_streams: int, k: int = DEFAULT_K) -> int:
    """Payload capacity of an entry given the deployment parameters."""
    overhead = 2 + 2 + max_streams * header_bytes(k) + 4
    return entry_size - overhead
