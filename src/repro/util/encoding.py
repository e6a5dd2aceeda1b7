"""Little-endian binary encoding helpers.

General-purpose field helpers for explicit binary encodings (the wire
codec's frame length prefix uses them). The hot on-flash codecs —
log entries and stream headers (:mod:`repro.corfu.entry`) and Tango
records (:mod:`repro.tango.records`) — use whole-layout precompiled
``struct.Struct`` objects instead, with the same little-endian field
types. Each ``pack_*`` function appends to a ``bytearray``; each
``unpack_*`` function reads from a ``bytes``/``memoryview`` at an offset
and returns ``(value, new_offset)``.
"""

from __future__ import annotations

import struct
from typing import Tuple

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def pack_u16(buf: bytearray, value: int) -> None:
    """Append an unsigned 16-bit integer to *buf*."""
    buf += _U16.pack(value)


def pack_u32(buf: bytearray, value: int) -> None:
    """Append an unsigned 32-bit integer to *buf*."""
    buf += _U32.pack(value)


def pack_u64(buf: bytearray, value: int) -> None:
    """Append an unsigned 64-bit integer to *buf*."""
    buf += _U64.pack(value)


def unpack_u16(buf: bytes, off: int) -> Tuple[int, int]:
    """Read an unsigned 16-bit integer from *buf* at *off*."""
    return _U16.unpack_from(buf, off)[0], off + 2


def unpack_u32(buf: bytes, off: int) -> Tuple[int, int]:
    """Read an unsigned 32-bit integer from *buf* at *off*."""
    return _U32.unpack_from(buf, off)[0], off + 4


def unpack_u64(buf: bytes, off: int) -> Tuple[int, int]:
    """Read an unsigned 64-bit integer from *buf* at *off*."""
    return _U64.unpack_from(buf, off)[0], off + 8


def encode_bytes(buf: bytearray, data: bytes) -> None:
    """Append a length-prefixed byte string to *buf*."""
    pack_u32(buf, len(data))
    buf += data


def decode_bytes(buf: bytes, off: int) -> Tuple[bytes, int]:
    """Read a length-prefixed byte string from *buf* at *off*."""
    length, off = unpack_u32(buf, off)
    return bytes(buf[off : off + length]), off + length


def encode_str(buf: bytearray, text: str) -> None:
    """Append a length-prefixed UTF-8 string to *buf*."""
    encode_bytes(buf, text.encode("utf-8"))


def decode_str(buf: bytes, off: int) -> Tuple[str, int]:
    """Read a length-prefixed UTF-8 string from *buf* at *off*."""
    raw, off = decode_bytes(buf, off)
    return raw.decode("utf-8"), off
