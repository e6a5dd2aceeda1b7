"""Golden bytes for the on-flash formats: log entries and Tango records.

Every fixture below is the hex encoding of one value, produced by the
per-field helper encoder this codec replaced. The test pins that the
encoder still emits exactly those bytes and that the decoder reads them
back to an equal value, so segment directories written before the
rewrite still reopen. A Hypothesis round-trip covers the space between
the fixtures.

Entry fixtures use K=4 unless the name says otherwise; an entry's bytes
depend on the offset it is written at (relative backpointers are deltas
from it), so each entry case carries its own offset.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corfu.entry import (
    NO_BACKPOINTER,
    LogEntry,
    StreamHeader,
    make_header,
)
from repro.tango.records import (
    NO_VERSION,
    CheckpointRecord,
    CommitRecord,
    DecisionRecord,
    DeltaCheckpointRecord,
    ReadSetEntry,
    UpdateRecord,
    decode_records,
    encode_records,
)

_NONE4 = (NO_BACKPOINTER,) * 4

# -- entry cases: name -> (entry, offset, k) ---------------------------------

ENTRY_CASES = {
    "no_headers": (LogEntry(headers=(), payload=b"hello"), 0, 4),
    "no_headers_empty_payload": (LogEntry(), 9, 4),
    "junk": (LogEntry.junk(), 12, 4),
    "relative_first_in_stream": (
        LogEntry(headers=(StreamHeader(3, _NONE4),), payload=b"p"),
        10,
        4,
    ),
    "relative_one": (
        LogEntry(
            headers=(make_header(7, (95, 90, 80), 100, 4),),
            payload=b"relative",
        ),
        100,
        4,
    ),
    "relative_two": (
        LogEntry(
            headers=(
                make_header(1, (499, 498, 497, 496), 500, 4),
                make_header(2, (400,), 500, 4),
            ),
            payload=b"\x00\xff" * 8,
        ),
        500,
        4,
    ),
    "absolute_one": (
        LogEntry(
            headers=(make_header(3, (10, 9, 8, 7), 200_000, 4),),
            payload=b"far",
        ),
        200_000,
        4,
    ),
    "mixed_overflow": (
        # 70_010 - 70_000 fits a 16-bit delta, 70_010 - 1_000 does not:
        # the header stays relative and the overflowing pointer degrades.
        LogEntry(
            headers=(make_header(5, (70_000, 1_000), 70_010, 4),),
            payload=b"mixed",
        ),
        70_010,
        4,
    ),
    "three_headers_mixed_formats": (
        LogEntry(
            headers=(
                make_header(11, (99_990, 99_980), 100_000, 4),
                make_header(12, (5,), 100_000, 4),
                make_header((1 << 31) - 1, (99_999, 20_000), 100_000, 4),
            ),
            payload=bytes(range(64)),
        ),
        100_000,
        4,
    ),
    "relative_k8": (
        LogEntry(
            headers=(make_header(9, (63, 62, 60, 50, 40), 64, 8),),
            payload=b"k8",
        ),
        64,
        8,
    ),
    "absolute_k8": (
        LogEntry(
            headers=(make_header(9, (100, 90, 80), 1_000_000, 8),),
            payload=b"k8-abs",
        ),
        1_000_000,
        8,
    ),
}

# -- record cases: name -> batch ---------------------------------------------

_READS = (
    ReadSetEntry(1, None, 17),
    ReadSetEntry(1, b"alpha", NO_VERSION),
    ReadSetEntry(2, b"", 2**40),
)
_UPDATES = (
    UpdateRecord(1, b"set alpha=1", b"alpha"),
    UpdateRecord(2, b"clear"),
)

RECORD_CASES = {
    "empty_batch": [],
    "update_no_key": [UpdateRecord(1, b"payload")],
    "update_with_key": [UpdateRecord(4_000_000_000, b"v", b"k")],
    "update_empty_key": [UpdateRecord(1, b"", b"")],
    "update_speculative": [UpdateRecord(2, b"spec", b"key", tx_id=2**63 + 5)],
    "commit_read_only": [CommitRecord(77, _READS, ())],
    "commit_full": [
        CommitRecord(
            2**64 - 1,
            _READS,
            (1, 2, 2**32 - 1),
            _UPDATES,
            decision_expected=True,
        )
    ],
    "commit_forced_abort": [CommitRecord(5, (), (3, 4), (), forced_abort=True)],
    "commit_both_flags": [
        CommitRecord(6, (), (), (), decision_expected=True, forced_abort=True)
    ],
    "decision_commit": [DecisionRecord(77, True)],
    "decision_abort": [DecisionRecord(78, False)],
    "checkpoint_full": [
        CheckpointRecord(
            9,
            1234,
            1200,
            ((b"a", 1100), (b"bb", NO_VERSION), (b"", 7)),
            b"\x01state\x02",
            unkeyed_version=1150,
            version_floor=900,
            evicted_filter=b"\xaa\x55",
        )
    ],
    "checkpoint_defaults": [CheckpointRecord(1, NO_VERSION, NO_VERSION, (), b"")],
    "checkpoint_delta": [
        DeltaCheckpointRecord(
            9,
            1234,
            1300,
            1290,
            ((b"a", 1290),),
            b"delta",
            unkeyed_version=NO_VERSION,
            version_floor=900,
            evicted_filter=b"",
            depth=3,
        )
    ],
    "mixed_batch": [
        UpdateRecord(1, b"u", b"k", tx_id=3),
        CommitRecord(3, _READS[:1], (1,), _UPDATES[:1]),
        DecisionRecord(3, True),
        CheckpointRecord(1, 5, 5, ((b"k", 5),), b"s"),
        DeltaCheckpointRecord(1, 5, 6, 6, (), b"d"),
    ],
}

# -- golden bytes (hex) from the per-field helper encoder --------------------

GOLDEN_ENTRIES = {
    "absolute_k8": (
        "000001001300000064000000000000005a00000000000000060000006b382d61"
        "6273"
    ),
    "absolute_one": "00000100070000000a0000000000000003000000666172",
    "junk": "0100000000000000",
    "mixed_overflow": "000001000a0000000a00000000000000050000006d69786564",
    "no_headers": "000000000500000068656c6c6f",
    "no_headers_empty_payload": "0000000000000000",
    "relative_first_in_stream": "000001000600000000000000000000000100000070",
    "relative_k8": (
        "00000100120000000100020004000e001800000000000000020000006b38"
    ),
    "relative_one": "000001000e00000005000a00140000000800000072656c6174697665",
    "relative_two": (
        "0000020002000000010002000300040004000000640000000000000010000000"
        "00ff00ff00ff00ff00ff00ff00ff00ff"
    ),
    "three_headers_mixed_formats": (
        "00000300160000000a00140000000000190000000500000000000000feffffff"
        "010000000000000040000000000102030405060708090a0b0c0d0e0f10111213"
        "1415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f30313233"
        "3435363738393a3b3c3d3e3f"
    ),
}

GOLDEN_RECORDS = {
    "checkpoint_defaults": (
        "0100040001000000ffffffffffffffffffffffffffffffffffffffffffffffff"
        "0000000000000000ffffffffffffffff00000000"
    ),
    "checkpoint_delta": (
        "0100050009000000d20400000000000014050000000000000a05000000000000"
        "ffffffffffffffff03000100000001000000610a050000000000000500000064"
        "656c7461840300000000000000000000"
    ),
    "checkpoint_full": (
        "0100040009000000d204000000000000b0040000000000007e04000000000000"
        "0300000001000000614c04000000000000020000006262ffffffffffffffff00"
        "0000000700000000000000070000000173746174650284030000000000000200"
        "0000aa55"
    ),
    "commit_both_flags": "0100020006000000000000000300000000000000",
    "commit_forced_abort": (
        "01000200050000000000000002000000020003000000040000000000"
    ),
    "commit_full": (
        "01000200ffffffffffffffff0100030001000000000011000000000000000100"
        "0000010005000000616c706861ffffffffffffffff0200000001000000000000"
        "0000000001000003000100000002000000ffffffff0200010000000000000000"
        "000000010005000000616c7068610b00000073657420616c7068613d31020000"
        "000000000000000000000005000000636c656172"
    ),
    "commit_read_only": (
        "010002004d000000000000000000030001000000000011000000000000000100"
        "0000010005000000616c706861ffffffffffffffff0200000001000000000000"
        "0000000001000000000000"
    ),
    "decision_abort": "010003004e000000000000000000",
    "decision_commit": "010003004d000000000000000100",
    "empty_batch": "0000",
    "mixed_batch": (
        "050001000100000003000000000000000100010000006b010000007502000300"
        "0000000000000000010001000000000011000000000000000100010000000100"
        "010000000000000000000000010005000000616c7068610b0000007365742061"
        "6c7068613d310300030000000000000001000400010000000500000000000000"
        "0500000000000000ffffffffffffffff01000000010000006b05000000000000"
        "000100000073ffffffffffffffff000000000500010000000500000000000000"
        "06000000000000000600000000000000ffffffffffffffff0100000000000100"
        "000064ffffffffffffffff00000000"
    ),
    "update_empty_key": "0100010001000000000000000000000001000000000000000000",
    "update_no_key": (
        "010001000100000000000000000000000000070000007061796c6f6164"
    ),
    "update_speculative": (
        "010001000200000005000000000000800100030000006b657904000000737065"
        "63"
    ),
    "update_with_key": (
        "0100010000286bee00000000000000000100010000006b0100000076"
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_CASES))
def test_entry_bytes_are_golden(name):
    entry, offset, k = ENTRY_CASES[name]
    raw = entry.encode(offset, k)
    assert raw.hex() == GOLDEN_ENTRIES[name]
    assert LogEntry.decode(bytes.fromhex(GOLDEN_ENTRIES[name]), offset, k) == entry


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_record_bytes_are_golden(name):
    batch = RECORD_CASES[name]
    assert encode_records(batch).hex() == GOLDEN_RECORDS[name]
    assert decode_records(bytes.fromhex(GOLDEN_RECORDS[name])) == batch


def test_record_batch_inside_an_entry_is_golden():
    """A commit batch carried as an entry payload: both layers at once."""
    payload = bytes.fromhex(GOLDEN_RECORDS["mixed_batch"])
    entry, offset, k = ENTRY_CASES["relative_two"]
    carried = LogEntry(headers=entry.headers, payload=payload)
    decoded = LogEntry.decode(carried.encode(offset, k), offset, k)
    assert decode_records(decoded.payload) == RECORD_CASES["mixed_batch"]


def test_every_case_has_a_fixture():
    assert set(GOLDEN_ENTRIES) == set(ENTRY_CASES)
    assert set(GOLDEN_RECORDS) == set(RECORD_CASES)


# -- round-trip properties ---------------------------------------------------

_u32 = st.integers(min_value=0, max_value=2**32 - 1)
_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_version = st.one_of(st.just(NO_VERSION), st.integers(0, 2**64 - 2))
_opt_key = st.none() | st.binary(max_size=12)
_key_versions = st.lists(
    st.tuples(st.binary(max_size=8), _version), max_size=4
).map(tuple)

_update = st.builds(
    UpdateRecord, oid=_u32, payload=st.binary(max_size=40), key=_opt_key,
    tx_id=_u64,
)
_read = st.builds(ReadSetEntry, oid=_u32, key=_opt_key, version=_version)
_commit = st.builds(
    CommitRecord,
    tx_id=_u64,
    read_set=st.lists(_read, max_size=4).map(tuple),
    write_oids=st.lists(_u32, max_size=4).map(tuple),
    inline_updates=st.lists(_update, max_size=3).map(tuple),
    decision_expected=st.booleans(),
    forced_abort=st.booleans(),
)
_decision = st.builds(DecisionRecord, tx_id=_u64, committed=st.booleans())
_checkpoint = st.builds(
    CheckpointRecord,
    oid=_u32,
    covers_offset=_version,
    object_version=_version,
    key_versions=_key_versions,
    state=st.binary(max_size=40),
    unkeyed_version=_version,
    version_floor=_version,
    evicted_filter=st.binary(max_size=8),
)
_delta = st.builds(
    DeltaCheckpointRecord,
    oid=_u32,
    base_offset=_u64,
    covers_offset=_version,
    object_version=_version,
    key_versions=_key_versions,
    state=st.binary(max_size=40),
    unkeyed_version=_version,
    version_floor=_version,
    evicted_filter=st.binary(max_size=8),
    depth=st.integers(min_value=0, max_value=2**16 - 1),
)
_record = st.one_of(_update, _commit, _decision, _checkpoint, _delta)


@given(st.lists(_record, max_size=6))
def test_record_batches_round_trip(batch):
    assert decode_records(encode_records(batch)) == batch


@st.composite
def _entries(draw):
    k = draw(st.sampled_from((4, 8)))
    offset = draw(st.integers(min_value=0, max_value=2**40))
    headers = []
    for sid in draw(st.lists(st.integers(0, (1 << 31) - 1), max_size=3, unique=True)):
        earlier = draw(
            st.lists(st.integers(0, max(0, offset - 1)), max_size=k, unique=True)
        )
        prior = tuple(sorted((p for p in earlier if p < offset), reverse=True))
        header = make_header(sid, prior, offset, k)
        if header.is_absolute:
            # make_header keeps only the pointers it has; the decoder
            # always yields K/4 of them, padded with NO_BACKPOINTER.
            pad = (NO_BACKPOINTER,) * (k // 4 - len(header.backpointers))
            header = StreamHeader(sid, header.backpointers + pad, True)
        headers.append(header)
    if draw(st.booleans()) and not headers:
        return LogEntry.junk(), offset, k
    return LogEntry(tuple(headers), draw(st.binary(max_size=64))), offset, k


@given(_entries())
def test_entries_round_trip(case):
    entry, offset, k = case
    assert LogEntry.decode(entry.encode(offset, k), offset, k) == entry
