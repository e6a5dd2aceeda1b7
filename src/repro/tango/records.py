"""Record types carried in log-entry payloads.

Every entry payload appended by the Tango runtime is an encoded batch of
records (the paper batches 4 commit records per 4KB entry). Four record
kinds exist:

- :class:`UpdateRecord` — one mutator invocation: the opaque buffer the
  object handed to ``update_helper``, plus the optional fine-grained
  versioning key. A non-zero ``tx_id`` marks the update *speculative*:
  written ahead of its transaction's commit record and "not to be made
  visible by other clients playing the log until the commit record is
  encountered" (section 3.2).
- :class:`CommitRecord` — a transaction's atomic commit point: the read
  set with versions, the write-set object ids, and any inlined updates.
- :class:`DecisionRecord` — the outcome appended by the generating
  client when some consumer hosts a write-set object but not the whole
  read set (section 4.1, case C).
- :class:`CheckpointRecord` — an object-provided snapshot of a view,
  with the version state needed for conflict checks after a reload.
- :class:`DeltaCheckpointRecord` — an incremental snapshot covering only
  the keys changed since a base checkpoint, chained via ``base_offset``
  so hot objects stop serializing full state every checkpoint.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

_KIND_UPDATE = 1
_KIND_COMMIT = 2
_KIND_DECISION = 3
_KIND_CHECKPOINT = 4
_KIND_DELTA_CHECKPOINT = 5

#: Sentinel version for "never modified" (encodes as all-ones u64).
NO_VERSION = -1
_VERSION_NONE = 0xFFFFFFFFFFFFFFFF

#: tx_id value meaning "not part of any transaction".
NO_TX = 0

# Precompiled little-endian layouts. Variable-length fields (keys,
# payloads, state) are a u32 length followed by the bytes; an optional
# byte string is a u16 presence flag, then (if present) that length and
# the bytes. Versions are u64 with all-ones meaning NO_VERSION.
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_UPDATE_HEAD = struct.Struct("<IQH")  # oid, tx_id, key flag
_READ_HEAD = struct.Struct("<IH")  # oid, key flag
_COMMIT_HEAD = struct.Struct("<QHH")  # tx_id, flags, len(read_set)
_DECISION = struct.Struct("<QH")  # tx_id, committed
_CHECKPOINT_HEAD = struct.Struct("<IQQQI")  # oid, covers, object, unkeyed, nkeys
_DELTA_HEAD = struct.Struct("<IQQQQHI")  # ... base, ..., depth, nkeys
_OID_LISTS: Dict[int, struct.Struct] = {}


def _oid_list(n: int) -> struct.Struct:
    """Layout of a u16 count followed by *n* u32 object ids."""
    layout = _OID_LISTS.get(n)
    if layout is None:
        layout = _OID_LISTS.setdefault(n, struct.Struct(f"<H{n}I"))
    return layout


def _version_out(version: int) -> int:
    return _VERSION_NONE if version == NO_VERSION else version


def _version_in(raw: int) -> int:
    return NO_VERSION if raw == _VERSION_NONE else raw


def _sized(parts: list, data: bytes) -> None:
    parts.append(_U32.pack(len(data)))
    parts.append(data)


def _read_sized(buf: bytes, off: int) -> Tuple[bytes, int]:
    (length,) = _U32.unpack_from(buf, off)
    off += 4
    return bytes(buf[off:off + length]), off + length


@dataclass(frozen=True)
class UpdateRecord:
    """One mutator invocation on one object."""

    oid: int
    payload: bytes
    key: Optional[bytes] = None
    tx_id: int = NO_TX

    @property
    def is_speculative(self) -> bool:
        return self.tx_id != NO_TX

    def _encode_body(self, parts: list) -> None:
        key = self.key
        if key is None:
            parts.append(_UPDATE_HEAD.pack(self.oid, self.tx_id, 0))
        else:
            parts.append(_UPDATE_HEAD.pack(self.oid, self.tx_id, 1))
            _sized(parts, key)
        _sized(parts, self.payload)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["UpdateRecord", int]:
        oid, tx_id, flag = _UPDATE_HEAD.unpack_from(buf, off)
        off += _UPDATE_HEAD.size
        key = None
        if flag:
            key, off = _read_sized(buf, off)
        payload, off = _read_sized(buf, off)
        return UpdateRecord(oid, payload, key, tx_id), off


@dataclass(frozen=True)
class ReadSetEntry:
    """One read performed by a transaction: (object, optional key, version).

    The version is "the last offset in the shared log that modified the
    object" (or the key within the object, under fine-grained
    versioning) at the time of the read.
    """

    oid: int
    key: Optional[bytes]
    version: int

    def _encode_body(self, parts: list) -> None:
        key = self.key
        if key is None:
            parts.append(_READ_HEAD.pack(self.oid, 0))
        else:
            parts.append(_READ_HEAD.pack(self.oid, 1))
            _sized(parts, key)
        parts.append(_U64.pack(_version_out(self.version)))

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["ReadSetEntry", int]:
        oid, flag = _READ_HEAD.unpack_from(buf, off)
        off += _READ_HEAD.size
        key = None
        if flag:
            key, off = _read_sized(buf, off)
        (version,) = _U64.unpack_from(buf, off)
        return ReadSetEntry(oid, key, _version_in(version)), off + 8


@dataclass(frozen=True)
class CommitRecord:
    """A transaction's commit point in the total order."""

    tx_id: int
    read_set: Tuple[ReadSetEntry, ...]
    write_oids: Tuple[int, ...]
    inline_updates: Tuple[UpdateRecord, ...] = ()
    #: True when the generating client will append a decision record
    #: because some write-set object is marked as requiring one.
    decision_expected: bool = False
    #: True for the "dummy commit record designed to abort" that any
    #: client may append to terminate an orphaned transaction.
    forced_abort: bool = False

    def read_oids(self) -> Tuple[int, ...]:
        seen = []
        for entry in self.read_set:
            if entry.oid not in seen:
                seen.append(entry.oid)
        return tuple(seen)

    def _encode_body(self, parts: list) -> None:
        flags = (1 if self.decision_expected else 0) | (
            2 if self.forced_abort else 0
        )
        parts.append(_COMMIT_HEAD.pack(self.tx_id, flags, len(self.read_set)))
        for entry in self.read_set:
            entry._encode_body(parts)
        write_oids = self.write_oids
        parts.append(_oid_list(len(write_oids)).pack(len(write_oids), *write_oids))
        parts.append(_U16.pack(len(self.inline_updates)))
        for upd in self.inline_updates:
            upd._encode_body(parts)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["CommitRecord", int]:
        tx_id, flags, nreads = _COMMIT_HEAD.unpack_from(buf, off)
        off += _COMMIT_HEAD.size
        reads = []
        for _ in range(nreads):
            entry, off = ReadSetEntry._decode_body(buf, off)
            reads.append(entry)
        (nwrites,) = _U16.unpack_from(buf, off)
        writes = _oid_list(nwrites).unpack_from(buf, off)[1:]
        off += 2 + 4 * nwrites
        (nupd,) = _U16.unpack_from(buf, off)
        off += 2
        updates = []
        for _ in range(nupd):
            upd, off = UpdateRecord._decode_body(buf, off)
            updates.append(upd)
        record = CommitRecord(
            tx_id,
            tuple(reads),
            writes,
            tuple(updates),
            decision_expected=bool(flags & 1),
            forced_abort=bool(flags & 2),
        )
        return record, off


@dataclass(frozen=True)
class DecisionRecord:
    """The generating client's commit/abort verdict for one transaction."""

    tx_id: int
    committed: bool

    def _encode_body(self, parts: list) -> None:
        parts.append(_DECISION.pack(self.tx_id, 1 if self.committed else 0))

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["DecisionRecord", int]:
        tx_id, committed = _DECISION.unpack_from(buf, off)
        return DecisionRecord(tx_id, bool(committed)), off + _DECISION.size


@dataclass(frozen=True)
class CheckpointRecord:
    """An object snapshot stored in the log (section 3.1, "History").

    ``covers_offset`` is the highest log offset whose effects are folded
    into ``state``; a fresh view loads the state and then plays the
    stream from the first entry above ``covers_offset``. The version
    tables travel with the snapshot so that transaction conflict checks
    remain correct after a reload.
    """

    oid: int
    covers_offset: int
    object_version: int
    key_versions: Tuple[Tuple[bytes, int], ...]
    state: bytes
    #: Last offset of an *unkeyed* modification, carried exactly so that
    #: a reloaded view makes bit-identical commit/abort decisions.
    unkeyed_version: int = NO_VERSION
    #: Version-eviction horizon of the writer's table (memory-bounded
    #: mode): keys absent from ``key_versions`` but present in
    #: ``evicted_filter`` are conservatively at this version.
    version_floor: int = NO_VERSION
    #: Serialized evicted-key filter (empty when nothing was evicted).
    evicted_filter: bytes = b""

    def _encode_body(self, parts: list) -> None:
        parts.append(
            _CHECKPOINT_HEAD.pack(
                self.oid,
                _version_out(self.covers_offset),
                _version_out(self.object_version),
                _version_out(self.unkeyed_version),
                len(self.key_versions),
            )
        )
        _encode_checkpoint_tail(parts, self)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["CheckpointRecord", int]:
        oid, covers, obj_version, unkeyed, nkeys = _CHECKPOINT_HEAD.unpack_from(
            buf, off
        )
        keys, state, floor, evicted, off = _decode_checkpoint_tail(
            buf, off + _CHECKPOINT_HEAD.size, nkeys
        )
        record = CheckpointRecord(
            oid,
            _version_in(covers),
            _version_in(obj_version),
            keys,
            state,
            unkeyed_version=_version_in(unkeyed),
            version_floor=floor,
            evicted_filter=evicted,
        )
        return record, off


@dataclass(frozen=True)
class DeltaCheckpointRecord:
    """An incremental checkpoint: changes since a base checkpoint.

    ``base_offset`` names the log offset of the record this delta builds
    on — a full :class:`CheckpointRecord` or an earlier delta, forming a
    chain back to a full base. A loader applies the base's state, then
    each delta's ``state`` oldest-first (the object's
    ``load_checkpoint_delta`` upcall), and overlays ``key_versions`` the
    same way. ``depth`` is this record's distance from the full base
    (1 = directly on a full checkpoint); the runtime caps it so chains
    stay cheap to reconstruct.
    """

    oid: int
    base_offset: int
    covers_offset: int
    object_version: int
    key_versions: Tuple[Tuple[bytes, int], ...]
    state: bytes
    unkeyed_version: int = NO_VERSION
    version_floor: int = NO_VERSION
    evicted_filter: bytes = b""
    depth: int = 1

    def _encode_body(self, parts: list) -> None:
        parts.append(
            _DELTA_HEAD.pack(
                self.oid,
                self.base_offset,
                _version_out(self.covers_offset),
                _version_out(self.object_version),
                _version_out(self.unkeyed_version),
                self.depth,
                len(self.key_versions),
            )
        )
        _encode_checkpoint_tail(parts, self)

    @staticmethod
    def _decode_body(
        buf: bytes, off: int
    ) -> Tuple["DeltaCheckpointRecord", int]:
        oid, base, covers, obj_version, unkeyed, depth, nkeys = (
            _DELTA_HEAD.unpack_from(buf, off)
        )
        keys, state, floor, evicted, off = _decode_checkpoint_tail(
            buf, off + _DELTA_HEAD.size, nkeys
        )
        record = DeltaCheckpointRecord(
            oid,
            base,
            _version_in(covers),
            _version_in(obj_version),
            keys,
            state,
            unkeyed_version=_version_in(unkeyed),
            version_floor=floor,
            evicted_filter=evicted,
            depth=depth,
        )
        return record, off


def _encode_checkpoint_tail(
    parts: list, record: Union[CheckpointRecord, DeltaCheckpointRecord]
) -> None:
    """The part both checkpoint kinds share, after their fixed head:
    ``key_versions`` entries, then state, version floor and filter."""
    for key, version in record.key_versions:
        _sized(parts, key)
        parts.append(_U64.pack(_version_out(version)))
    _sized(parts, record.state)
    parts.append(_U64.pack(_version_out(record.version_floor)))
    _sized(parts, record.evicted_filter)


def _decode_checkpoint_tail(buf: bytes, off: int, nkeys: int):
    keys = []
    for _ in range(nkeys):
        key, off = _read_sized(buf, off)
        (version,) = _U64.unpack_from(buf, off)
        keys.append((key, _version_in(version)))
        off += 8
    state, off = _read_sized(buf, off)
    (floor,) = _U64.unpack_from(buf, off)
    evicted, off = _read_sized(buf, off + 8)
    return tuple(keys), state, _version_in(floor), evicted, off


Record = Union[
    UpdateRecord,
    CommitRecord,
    DecisionRecord,
    CheckpointRecord,
    DeltaCheckpointRecord,
]

_KIND_OF = {
    UpdateRecord: _KIND_UPDATE,
    CommitRecord: _KIND_COMMIT,
    DecisionRecord: _KIND_DECISION,
    CheckpointRecord: _KIND_CHECKPOINT,
    DeltaCheckpointRecord: _KIND_DELTA_CHECKPOINT,
}

_DECODER_OF = {
    _KIND_UPDATE: UpdateRecord._decode_body,
    _KIND_COMMIT: CommitRecord._decode_body,
    _KIND_DECISION: DecisionRecord._decode_body,
    _KIND_CHECKPOINT: CheckpointRecord._decode_body,
    _KIND_DELTA_CHECKPOINT: DeltaCheckpointRecord._decode_body,
}


def encode_records(records: List[Record]) -> bytes:
    """Serialize a batch of records into one entry payload.

    Layout: ``[count:u16]`` then, per record, ``[kind:u16][body]``.
    """
    parts = [_U16.pack(len(records))]
    for record in records:
        parts.append(_U16.pack(_KIND_OF[type(record)]))
        record._encode_body(parts)
    return b"".join(parts)


def decode_records(payload: bytes) -> List[Record]:
    """Deserialize an entry payload back into its record batch."""
    if not payload:
        return []
    (count,) = _U16.unpack_from(payload, 0)
    off = 2
    records: List[Record] = []
    for _ in range(count):
        (kind,) = _U16.unpack_from(payload, off)
        decoder = _DECODER_OF.get(kind)
        if decoder is None:
            raise ValueError(f"unknown record kind {kind}")
        record, off = decoder(payload, off + 2)
        records.append(record)
    return records
