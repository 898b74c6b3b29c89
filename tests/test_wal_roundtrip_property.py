"""Property: every WAL serialization round-trips exactly.

The append hot path trusts ``encoded_size()`` without materializing
bytes (LSNs are byte offsets, so a size mismatch silently corrupts the
log address space), and recovery trusts ``decode(encode(x)) == x`` for
every record kind.  Hypothesis drives both invariants across every
:class:`PageOp` kind — including the bulk run ops structural
maintenance emits — every :class:`LogRecordKind`, checkpoint payloads
and logical undo descriptors, with boundary payloads (empty keys and
values, zero-length runs, maximal slot numbers) mixed in; the commit
bit rides on every chain kind, and an UPDATE's before-image is shared
with, distinct from, or as empty as its op's.  Value rewrites come
spanned and unspanned: built by ``value_rewrite`` from values that
share a prefix and suffix (empty middles, a span covering the whole
shorter value, growth, shrink) or given any span directly; their
RESTORE_VALUE undo shares the span, or stands alone with one.  A PRI
update names the pages of one write-back run, one to many.

The other direction is hostile bytes: whatever a decode boundary is
handed — arbitrary bytes, or a valid encoding with a few bytes
overwritten — it returns a value or raises ``LogError``, never a
``struct.error`` / ``IndexError`` / ``ValueError`` — truncated or
out-of-range span fields included, and a PRI update with no entries, a
count that runs past the record, a negative page id or trailing bytes.

Every field a header carries is drawn from both sides of the narrow
form's range, so records come narrow and wide; the boundaries
themselves — ids and LSNs at 2**32 - 1 and 2**32, page ids -1,
2**32 - 2 and 2**32 - 1, index ids at 2**16 - 1 and 2**16, totals at
65 535 and 65 536 bytes, PRI entries at 2**32 - 1 and 2**32 — are
round-tripped for every kind, and a wide header around a record the
narrow one fits is refused.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LogError
from repro.page.page import PageType
from repro.wal.ops import (
    OpBulkDelete,
    OpBulkInsert,
    OpDelete,
    OpInitSlotted,
    OpInsert,
    OpInverse,
    OpSetGhost,
    OpUpdateValue,
    OpWriteBytes,
    PageOp,
    value_rewrite,
)
from repro.wal.records import (
    PRI_UPDATE_MAX,
    BackupRef,
    BackupRefKind,
    CheckpointData,
    LogicalUndo,
    LogRecord,
    LogRecordKind,
    UndoAction,
    compress_image,
    decompress_image,
    pri_update,
)

# Payloads deliberately include the empty string (length-prefix
# boundary) and stay small: the encodings are length-prefixed, so
# large payloads exercise nothing new.
payloads = st.binary(min_size=0, max_size=48)
slots = st.integers(min_value=0, max_value=0xFFFF)
#: ids and LSNs from both sides of a narrow header's u32 range
lsns = st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                 st.integers(min_value=0, max_value=2**62))
ids = lsns
#: prefix / suffix lengths of a span (encoded as u16; a spliced value
#: stays within a record's 15-bit length)
spans = st.integers(min_value=0, max_value=4000)


def _op_insert():
    return st.builds(OpInsert, slots, payloads, payloads, st.booleans())


def _op_delete():
    return st.builds(OpDelete, slots, payloads, payloads, st.booleans())


def _op_update_value():
    return st.one_of(st.builds(OpUpdateValue, slots, payloads, payloads),
                     _spanned_update_value())


def _spanned_update_value():
    """Rewrites of values that share a prefix and a suffix, as the
    builder spans them — empty middles, a prefix plus suffix covering
    the whole shorter value, growth, shrink — or with any span given
    directly."""
    def built(slot, prefix, old_middle, new_middle, suffix):
        return value_rewrite(slot, prefix + old_middle + suffix,
                             prefix + new_middle + suffix)
    direct = st.builds(OpUpdateValue, slots, payloads, payloads, spans,
                       spans).filter(lambda op: op.prefix or op.suffix)
    return st.one_of(st.builds(built, slots, payloads, payloads, payloads,
                               payloads), direct)


def _op_set_ghost():
    return st.builds(OpSetGhost, slots, st.booleans(), st.booleans())


def _op_write_bytes():
    # The byte-range op requires old/new of equal length.
    def build(offset, old, new):
        return OpWriteBytes(offset, old, new[:len(old)].ljust(len(old), b"\x00"))
    return st.builds(build, slots, payloads, payloads)


def _op_init_slotted():
    return st.builds(OpInitSlotted, st.sampled_from(PageType))


def _bulk_records():
    return st.lists(
        st.tuples(payloads, payloads, st.booleans()), min_size=0, max_size=6,
    ).map(tuple)


def _op_bulk_insert():
    return st.builds(OpBulkInsert, slots, _bulk_records())


def _op_bulk_delete():
    return st.builds(OpBulkDelete, slots, _bulk_records())


plain_ops = st.one_of(
    _op_insert(), _op_delete(), _op_update_value(), _op_set_ghost(),
    _op_write_bytes(), _op_init_slotted(), _op_bulk_insert(),
    _op_bulk_delete(),
)

#: Every op kind, plus compensation wrappers around each of them.
any_op = st.one_of(plain_ops, st.builds(OpInverse, plain_ops))

logical_undos = st.one_of(
    st.builds(LogicalUndo, st.sampled_from(UndoAction), payloads, payloads),
    st.builds(LogicalUndo, st.just(UndoAction.RESTORE_VALUE), payloads,
              payloads, spans, spans).filter(lambda u: u.prefix or u.suffix))

checkpoints = st.builds(
    CheckpointData,
    st.dictionaries(ids, lsns, max_size=5),
    st.lists(st.tuples(ids, lsns, st.booleans()), max_size=5),
    st.dictionaries(ids, lsns, max_size=5),
)

backup_refs = st.builds(BackupRef, st.sampled_from(BackupRefKind), lsns)

#: a write-back run's (page id, PageLSN) pairs
pri_writes = st.lists(st.tuples(ids, lsns), min_size=1, max_size=40)


@settings(max_examples=200)
@given(op=any_op)
def test_page_op_round_trip(op):
    encoded = op.encode()
    assert len(encoded) == op.encoded_size()
    decoded = PageOp.decode(encoded)
    assert type(decoded) is type(op)
    assert decoded == op


@settings(max_examples=100)
@given(undo=logical_undos)
def test_logical_undo_round_trip(undo):
    encoded = undo.encode()
    assert len(encoded) == undo.encoded_size()
    decoded, end = LogicalUndo.decode(encoded, 0)
    assert decoded == undo
    assert end == len(encoded)


@settings(max_examples=100)
@given(checkpoint=checkpoints)
def test_checkpoint_round_trip(checkpoint):
    encoded = checkpoint.encode()
    assert len(encoded) == checkpoint.encoded_size()
    assert CheckpointData.decode(encoded) == checkpoint


# ----------------------------------------------------------------------
# Full log records, one strategy per kind so every payload shape is hit.
# ----------------------------------------------------------------------
def _record_strategy():
    header = dict(txn_id=ids, prev_lsn=lsns,
                  page_id=st.one_of(st.integers(min_value=-1,
                                                max_value=2**32 - 1),
                                    st.integers(min_value=-1,
                                                max_value=2**62)),
                  page_prev_lsn=lsns,
                  index_id=st.one_of(st.integers(min_value=0,
                                                 max_value=2**16), ids))
    bare_kinds = st.sampled_from([
        LogRecordKind.COMMIT, LogRecordKind.ABORT,
        LogRecordKind.SYS_COMMIT, LogRecordKind.CHECKPOINT_BEGIN,
    ])
    commits = st.booleans()  # every chain kind can carry the commit bit
    return st.one_of(
        st.builds(LogRecord, st.just(LogRecordKind.UPDATE), **header,
                  op=st.none() | any_op, undo=st.none() | logical_undos,
                  commits=commits),
        _value_rewrites(header, commits),
        st.builds(LogRecord, st.just(LogRecordKind.COMPENSATION), **header,
                  op=st.none() | any_op, undo_next_lsn=lsns, commits=commits),
        st.builds(LogRecord, bare_kinds, **header),
        st.builds(LogRecord, st.just(LogRecordKind.FORMAT_PAGE), **header,
                  op=st.none() | _op_init_slotted(), commits=commits),
        st.builds(LogRecord, st.just(LogRecordKind.FULL_PAGE_IMAGE), **header,
                  page_lsn=lsns, image=payloads),
        st.builds(LogRecord, st.just(LogRecordKind.BACKUP_PAGE), **header,
                  page_lsn=lsns, backup_ref=backup_refs),
        st.builds(pri_update, pri_writes),
        st.builds(LogRecord, st.just(LogRecordKind.CHECKPOINT_END), **header,
                  checkpoint=checkpoints),
        st.builds(LogRecord, st.just(LogRecordKind.BACKUP_FULL), **header,
                  backup_id=ids),
        st.builds(LogRecord, st.just(LogRecordKind.PREPARE), **header,
                  gtid=ids),
    )


def _value_rewrites(header, commits):
    """UPDATEs shaped like the B-tree's in-place rewrite: a value op,
    spanned or not, plus a RESTORE_VALUE undo whose value is the op's
    old value under the op's span (the same object or an equal copy:
    encoded once), a different value, or the same value under another
    span (encoded twice), with empty values in the mix."""
    def build(op, key, other, share, **fields):
        old = op.old_value
        before, prefix = {"same": (old, op.prefix),
                          "equal": (bytes(bytearray(old)), op.prefix),
                          "distinct": (other, op.prefix),
                          "other span": (old, op.prefix + 1)}[share]
        undo = LogicalUndo(UndoAction.RESTORE_VALUE, key, before, prefix,
                           op.suffix)
        return LogRecord(LogRecordKind.UPDATE, op=op, undo=undo, **fields)
    return st.builds(build, _op_update_value(), payloads, payloads,
                     st.sampled_from(["same", "equal", "distinct",
                                      "other span"]),
                     commits=commits, **header)


@settings(max_examples=400)
@given(record=_record_strategy())
def test_log_record_round_trip(record):
    encoded = record.encode()
    assert len(encoded) == record.encoded_size()
    decoded = LogRecord.decode(encoded)
    assert decoded == record
    assert decoded.commits == record.commits
    assert decoded.encode() == encoded


def test_shared_before_image_is_logged_once_and_shared_on_decode():
    old, new, key = b"o" * 100, b"n" * 100, b"k" * 16
    op = OpUpdateValue(7, old, new)
    shared = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, key, old))
    distinct = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                         undo=LogicalUndo(UndoAction.RESTORE_VALUE, key,
                                          b"x" * 100))
    # narrow header, flags, op length, op, undo action + key
    assert shared.encoded_size() == 21 + 1 + 2 + (7 + 200) + (1 + 2 + 16) == 250
    assert distinct.encoded_size() == shared.encoded_size() + 2 + 100
    decoded = LogRecord.decode(shared.encode())
    assert decoded == shared
    assert decoded.undo.value is decoded.op.old_value
    # Only a value rewrite shares: an insert's undo has no before-image,
    # and a delete's (INSERT_KEY) is not the ghost op's to share.
    other = LogRecord(LogRecordKind.UPDATE, op=OpSetGhost(3, False, True),
                      undo=LogicalUndo(UndoAction.INSERT_KEY, key, old))
    assert other.encoded_size() == 21 + 1 + 2 + 5 + (5 + 16 + 100)
    assert LogRecord.decode(other.encode()) == other


def test_commit_bit_is_the_high_bit_of_the_kind_byte_and_free():
    for kind in (LogRecordKind.UPDATE, LogRecordKind.COMPENSATION,
                 LogRecordKind.FORMAT_PAGE):
        plain = LogRecord(kind, txn_id=5, page_id=9)
        carrying = LogRecord(kind, txn_id=5, page_id=9, commits=True)
        assert carrying.encoded_size() == plain.encoded_size()
        a, b = plain.encode(), carrying.encode()
        assert a[0] == int(kind) and b[0] == int(kind) | 0x80
        assert a[1:] == b[1:]
        assert LogRecord.decode(b).commits and not LogRecord.decode(a).commits
        assert carrying.commits_txn and not plain.commits_txn


def test_commit_bit_only_on_chain_kinds():
    for kind in LogRecordKind:
        if kind in (LogRecordKind.UPDATE, LogRecordKind.COMPENSATION,
                    LogRecordKind.FORMAT_PAGE):
            continue
        with pytest.raises(LogError):
            LogRecord(kind, commits=True).encode()
        raw = bytearray(LogRecord(kind).encode())
        raw[0] |= 0x80
        with pytest.raises(LogError):
            LogRecord.decode(bytes(raw))


def test_committed_predicates():
    undo = LogicalUndo(UndoAction.DELETE_KEY, b"k")
    user_bit = LogRecord(LogRecordKind.UPDATE, txn_id=1, undo=undo,
                         commits=True)
    system_bit = LogRecord(LogRecordKind.UPDATE, txn_id=2, commits=True)
    assert user_bit.commits_txn and user_bit.commits_user_txn
    assert system_bit.commits_txn and not system_bit.commits_user_txn
    commit = LogRecord(LogRecordKind.COMMIT, txn_id=1)
    sys_commit = LogRecord(LogRecordKind.SYS_COMMIT, txn_id=2)
    assert commit.commits_txn and commit.commits_user_txn
    assert sys_commit.commits_txn and not sys_commit.commits_user_txn
    for kind in (LogRecordKind.ABORT, LogRecordKind.PREPARE,
                 LogRecordKind.UPDATE, LogRecordKind.CHECKPOINT_BEGIN):
        assert not LogRecord(kind, txn_id=1).commits_txn


# ----------------------------------------------------------------------
# Hostile bytes: a value or LogError, nothing else.
# ----------------------------------------------------------------------
def _decodes_or_log_error(decode, data):
    try:
        decode(data)
    except LogError:
        pass


@settings(max_examples=400)
@given(data=st.binary(max_size=200))
# a wide COMMIT header whose fields the narrow one holds
@example(struct.pack("<BIqqqqq", 0x40 | LogRecordKind.COMMIT, 45, 1, 0, -1, 0, 0))
# a narrow UPDATE whose u16 op length runs past the record
@example(struct.pack("<BHIIIIH", LogRecordKind.UPDATE, 24, 1, 0, 2, 0, 0)
         + bytes([1]) + struct.pack("<H", 0xFFFF))
# unknown kinds in the kind byte's low six bits, narrow and wide
@example(bytes([0x3F]) + struct.pack("<H", 21) + bytes(18))
@example(bytes([0x40 | 0x05]) + struct.pack("<I", 45) + bytes(40))
def test_decoders_fail_typed_on_arbitrary_bytes(data):
    _decodes_or_log_error(LogRecord.decode, data)
    _decodes_or_log_error(PageOp.decode, data)
    _decodes_or_log_error(lambda d: LogicalUndo.decode(d, 0), data)
    _decodes_or_log_error(CheckpointData.decode, data)
    # Well-formed headers of both forms over arbitrary payload bytes,
    # so the payload decoders are reached (random bytes rarely get the
    # length right).
    if data:
        kind = data[0]
        narrow = (bytes([kind & ~0x40]) + (len(data) + 20).to_bytes(2, "little")
                  + bytes(18) + data[1:])
        wide = (bytes([kind | 0x40]) + (len(data) + 44).to_bytes(4, "little")
                + bytes(40) + data[1:])
        _decodes_or_log_error(LogRecord.decode, narrow)
        _decodes_or_log_error(LogRecord.decode, wide)


mutations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=3)


@settings(max_examples=600)
@given(record=_record_strategy(), edits=mutations)
def test_log_record_decode_fails_typed_on_mutated_encodings(record, edits):
    raw = bytearray(record.encode())
    for position, byte in edits:
        raw[position % len(raw)] = byte
    _decodes_or_log_error(LogRecord.decode, bytes(raw))


@settings(max_examples=300)
@given(op=any_op, edits=mutations)
def test_page_op_decode_fails_typed_on_mutated_encodings(op, edits):
    raw = bytearray(op.encode())
    for position, byte in edits:
        raw[position % len(raw)] = byte
    _decodes_or_log_error(PageOp.decode, bytes(raw))


@settings(max_examples=200)
@given(undo=logical_undos, checkpoint=checkpoints, edits=mutations)
def test_undo_and_checkpoint_decode_fail_typed_on_mutation(undo, checkpoint,
                                                           edits):
    for encoded, decode in ((undo.encode(), lambda d: LogicalUndo.decode(d, 0)),
                            (checkpoint.encode(), CheckpointData.decode)):
        raw = bytearray(encoded)
        for position, byte in edits:
            raw[position % len(raw)] = byte
        _decodes_or_log_error(decode, bytes(raw))


def test_decode_rejects_what_no_writer_produces():
    update = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2,
                       op=OpUpdateValue(3, b"old", b"new"),
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, b"k", b"old"))
    good = update.encode()
    cases = {
        "unknown kind": bytes([5]) + good[1:],
        "unknown flag bit": good[:21] + bytes([good[21] | 0x10]) + good[22:],
        "op length past the end": good[:22] + (0xFFFF).to_bytes(2, "little")
        + good[24:],
        "key length past the end": good[:-3] + (0xFFFF).to_bytes(2, "little")
        + good[-1:],
    }
    for raw in cases.values():
        with pytest.raises(LogError):
            LogRecord.decode(raw)
    # A run of compensation-op kinds must not recurse once per byte.
    with pytest.raises(LogError):
        PageOp.decode(bytes([99]) * 5000)
    # Trailing bytes after a complete payload.
    padded = bytearray(LogRecord(LogRecordKind.COMMIT, txn_id=1).encode())
    padded += b"\0"
    padded[1:3] = len(padded).to_bytes(2, "little")
    with pytest.raises(LogError):
        LogRecord.decode(bytes(padded))


# ----------------------------------------------------------------------
# Deterministic boundary cases the shrinker should not have to find.
# ----------------------------------------------------------------------
def test_empty_bulk_run_round_trips():
    for cls in (OpBulkInsert, OpBulkDelete):
        op = cls(0, ())
        assert PageOp.decode(op.encode()) == op
        assert op.encoded_size() == len(op.encode()) == 7


def test_empty_payload_boundaries():
    cases = [
        OpInsert(0xFFFF, b"", b"", True),
        OpDelete(0, b"", b""),
        OpUpdateValue(1, b"", b""),
        OpWriteBytes(0, b"", b""),
        OpBulkInsert(3, ((b"", b"", False), (b"", b"", True))),
        OpInverse(OpBulkDelete(0xFFFF, ((b"k", b"", False),))),
    ]
    for op in cases:
        encoded = op.encode()
        assert len(encoded) == op.encoded_size()
        assert PageOp.decode(encoded) == op


def test_empty_checkpoint_and_update_round_trip():
    record = LogRecord(LogRecordKind.CHECKPOINT_END,
                       checkpoint=CheckpointData())
    assert LogRecord.decode(record.encode()) == record
    # An UPDATE with neither op nor undo is legal (flags byte = 0).
    bare = LogRecord(LogRecordKind.UPDATE, txn_id=9, page_id=4)
    assert LogRecord.decode(bare.encode()) == bare


# ----------------------------------------------------------------------
# Spanned value rewrites
# ----------------------------------------------------------------------
def test_an_unspanned_rewrite_encodes_as_before_spans_existed():
    """Values that share no edge byte keep the encoding every earlier
    log holds, byte for byte: kind 3, slot, both values whole."""
    old, new = b"\x01" + b"o" * 98 + b"\x02", b"\x03" + b"n" * 98 + b"\x04"
    op = value_rewrite(0x0102, old, new)
    assert (op.prefix, op.suffix) == (0, 0)
    assert op.encode() == (bytes([3, 0x02, 0x01]) + struct.pack("<H", 100)
                           + old + struct.pack("<H", 100) + new)
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, b"k" * 16,
                                        old))
    payload = record.encode()[21:]
    assert payload == (bytes([7]) + struct.pack("<H", 207) + op.encode()
                       + bytes([3]) + struct.pack("<H", 16) + b"k" * 16)
    # A span of four shared bytes or fewer does not pay for its fields.
    assert value_rewrite(0, b"abcd" + old, b"abcd" + new).prefix == 0


def test_a_spanned_rewrite_logs_the_middles_once():
    old = b"2019-03-04" + bytes(33 + i % 90 for i in range(230))
    new = b"2021-11-22" + old[10:]
    op = value_rewrite(5, old, new)
    assert (op.prefix, op.suffix) == (2, 230)
    assert (op.old_value, op.new_value) == (b"19-03-04", b"21-11-22")
    assert op.encode() == (bytes([9, 5, 0]) + struct.pack("<HH", 2, 230)
                           + struct.pack("<H", 8) + op.old_value
                           + struct.pack("<H", 8) + op.new_value)
    undo = LogicalUndo(UndoAction.RESTORE_VALUE, b"k" * 27, op.old_value,
                       op.prefix, op.suffix)
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                       undo=undo)
    # 21 header + 1 flags + 2 + op (11 + 8 + 8) + undo (1 + 2 + 27)
    assert record.encoded_size() == len(record.encode()) == 81
    decoded = LogRecord.decode(record.encode())
    assert decoded == record
    assert decoded.undo.value is decoded.op.old_value
    assert decoded.undo.restored(new) == old
    # The same undo on its own carries the span behind its action byte.
    assert undo.encode()[:5] == bytes([0x83]) + struct.pack("<HH", 2, 230)
    assert LogicalUndo.decode(undo.encode(), 0) == (undo, undo.encoded_size())


def test_truncated_and_out_of_range_spans_fail_typed():
    op = value_rewrite(5, b"2019-03-04" + b"x" * 30, b"2021-11-22" + b"x" * 30)
    good = op.encode()
    undo = LogicalUndo(UndoAction.RESTORE_VALUE, b"key", b"mid", 2, 30)
    good_undo = undo.encode()
    bad_ops = [good[:cut] for cut in range(1, 7)] + [
        good[:3] + struct.pack("<HH", 0, 0) + good[7:],          # empty span
        good[:3] + struct.pack("<HH", 0x7FF0, 0x7FF0) + good[7:],  # too long
    ]
    for raw in bad_ops:
        with pytest.raises(LogError):
            PageOp.decode(raw)
        with pytest.raises(LogError):
            PageOp.decode(bytes([99]) + raw)
    bad_undos = [good_undo[:cut] for cut in range(1, 5)] + [
        good_undo[:1] + struct.pack("<HH", 0, 0) + good_undo[5:],
        good_undo[:1] + struct.pack("<HH", 0xFFFF, 0xFFFF) + good_undo[5:],
        bytes([0x80 | UndoAction.INSERT_KEY]) + good_undo[1:],  # span, wrong kind
        bytes([0x80 | 0x7F]) + good_undo[1:],                   # unknown kind
    ]
    for raw in bad_undos:
        with pytest.raises(LogError):
            LogicalUndo.decode(raw, 0)
    # In a record: the shared before-image takes its span from the op.
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, b"k",
                                        op.old_value, op.prefix, op.suffix))
    raw = bytearray(record.encode())
    raw[21 + 1 + 2 + 3:21 + 1 + 2 + 7] = struct.pack("<HH", 0, 0)
    with pytest.raises(LogError):
        LogRecord.decode(bytes(raw))


# ----------------------------------------------------------------------
# The vectored PRI update: one record per write-back run
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(writes=pri_writes)
def test_pri_update_round_trips_its_run(writes):
    record = pri_update(writes)
    encoded = record.encode()
    narrow = max(map(max, writes)) < 2**32
    assert len(encoded) == record.encoded_size() == (
        21 + 2 + 8 * len(writes) if narrow else 45 + 2 + 16 * len(writes))
    assert bool(encoded[0] & 0x40) is not narrow
    decoded = LogRecord.decode(encoded)
    assert decoded == record
    assert decoded.writes == tuple(writes)
    assert decoded.page_id == -1  # the record joins no page chain


def _pri_frame(payload: bytes, page_id: int = -1, wide: bool = False) -> bytes:
    """A PRI_UPDATE header (kind 9) of either form around ``payload``."""
    if wide:
        return struct.pack("<BIqqqqq", LogRecordKind.PRI_UPDATE | 0x40,
                           45 + len(payload), 0, 0, page_id, 0, 0) + payload
    return struct.pack("<BHIIIIH", LogRecordKind.PRI_UPDATE, 21 + len(payload),
                       0, 0, page_id & 0xFFFFFFFF, 0, 0) + payload


def test_pri_update_decode_rejects_hostile_payloads():
    big = 2**32  # a wide header's entries must need it
    for wide, entry, first in ((False, "<II", 7), (True, "<qq", big)):
        entries = struct.pack(entry, first, 100) + struct.pack(entry, 9, 200)
        assert LogRecord.decode(_pri_frame(struct.pack("<H", 2) + entries,
                                           wide=wide)
                                ).writes == ((first, 100), (9, 200))
        cases = {
            "zero entries": struct.pack("<H", 0),
            "no count": b"",
            "count past the record": struct.pack("<H", 3) + entries,
            "count far past the record": struct.pack("<H", 0xFFFF) + entries,
            "a torn entry": struct.pack("<H", 2) + entries[:-3],
            "trailing bytes": struct.pack("<H", 1) + entries,
        }
        if wide:
            cases["negative page id"] = (struct.pack("<H", 1)
                                         + struct.pack("<qq", -4, big))
            cases["negative LSN"] = (struct.pack("<H", 1)
                                     + struct.pack("<qq", big, -1))
            cases["entries a narrow header holds"] = (
                struct.pack("<H", 2) + struct.pack("<qq", 7, 100)
                + struct.pack("<qq", 9, 200))
        for name, payload in cases.items():
            with pytest.raises(LogError):
                LogRecord.decode(_pri_frame(payload, wide=wide))
                pytest.fail(f"{name} decoded")
        # The pages are in the payload, never in the header.
        with pytest.raises(LogError):
            LogRecord.decode(_pri_frame(struct.pack("<H", 2) + entries,
                                        page_id=7, wide=wide))
    # The builder writes only what the decoder reads back.
    for writes in ([], [(1, 64)] * (PRI_UPDATE_MAX + 1), [(-1, 64)],
                   [(1, -64)]):
        with pytest.raises(LogError):
            pri_update(writes)
    assert len(pri_update([(1, 64)] * PRI_UPDATE_MAX).writes) == PRI_UPDATE_MAX


# ----------------------------------------------------------------------
# Narrow and wide headers
# ----------------------------------------------------------------------
def _one_of_each_kind() -> list[LogRecord]:
    """A record of every kind, payload and all, with header fields the
    narrow form holds."""
    op = OpUpdateValue(4, b"old", b"new")
    undo = LogicalUndo(UndoAction.RESTORE_VALUE, b"key", b"old")
    fields = dict(txn_id=3, prev_lsn=64, page_id=9, page_prev_lsn=32,
                  index_id=2)
    kinds = {
        LogRecordKind.UPDATE: dict(op=op, undo=undo, commits=True),
        LogRecordKind.COMPENSATION: dict(op=OpInverse(op), undo_next_lsn=16),
        LogRecordKind.FORMAT_PAGE: dict(op=OpInitSlotted(PageType.BTREE_LEAF)),
        LogRecordKind.FULL_PAGE_IMAGE: dict(page_lsn=8, image=b"zlib"),
        LogRecordKind.BACKUP_PAGE: dict(page_lsn=8,
                                        backup_ref=BackupRef.page_copy(1)),
        LogRecordKind.CHECKPOINT_END: dict(checkpoint=CheckpointData(
            {9: 16}, [(3, 64, False)], {1: 8})),
        LogRecordKind.BACKUP_FULL: dict(backup_id=5),
        LogRecordKind.PREPARE: dict(gtid=7),
    }
    records = [LogRecord(kind, **fields, **kinds.get(kind, {}))
               for kind in LogRecordKind if kind != LogRecordKind.PRI_UPDATE]
    return records + [pri_update([(9, 64), (10, 96)])]


#: header field -> (values the narrow form holds, values it does not)
_BOUNDARIES = {
    "txn_id": ((0, 2**32 - 1), (2**32, 2**63 - 1)),
    "prev_lsn": ((0, 2**32 - 1), (2**32,)),
    "page_prev_lsn": ((0, 2**32 - 1), (2**32,)),
    "page_id": ((-1, 0, 2**32 - 2), (2**32 - 1, 2**32, -2)),
    "index_id": ((0, 2**16 - 1), (2**16, 2**32)),
}


def _round_trips(record: LogRecord, narrow: bool) -> None:
    encoded = record.encode()
    assert len(encoded) == record.encoded_size()
    assert bool(encoded[0] & 0x40) is not narrow, (record, narrow)
    decoded = LogRecord.decode(encoded)
    assert decoded == record
    assert decoded.encode() == encoded


def test_every_kind_round_trips_on_both_sides_of_every_boundary():
    for record in _one_of_each_kind():
        _round_trips(record, narrow=True)
        for name, (fits, does_not) in _BOUNDARIES.items():
            if record.kind == LogRecordKind.PRI_UPDATE and name == "page_id":
                continue  # a PRI update's header names no page
            for value, narrow in ([(v, True) for v in fits]
                                  + [(v, False) for v in does_not]):
                setattr(record, name, value)
                _round_trips(record, narrow)
            setattr(record, name, fits[0])


def test_the_total_and_pri_entries_decide_the_form_too():
    """A record of 65 535 bytes is narrow and one more byte makes it
    wide (24 bytes more); a PRI update is narrow while every entry is
    below 2**32 and the whole fits 65 535 bytes."""
    for extra, narrow in ((0, True), (1, False)):
        # 21 header + 1 flags + 2 op length + 8 insert fixed
        update = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2,
                           op=OpInsert(0, b"", bytes(65_535 - 32 + extra)))
        image = LogRecord(LogRecordKind.FULL_PAGE_IMAGE, page_id=2,
                          image=bytes(65_535 - 33 + extra))
        for record in (update, image):
            _round_trips(record, narrow)
            assert record.encoded_size() == (65_535 + extra
                                             + (0 if narrow else 24))
    # 21 header + 2 count + 8 per entry: 8 189 entries fill 65 535 bytes
    for count, narrow in ((8_189, True), (8_190, False)):
        record = pri_update([(page, 2**32 - 1) for page in range(count)])
        _round_trips(record, narrow)
    for entry, narrow in (((2**32 - 1, 5), True), ((2**32, 5), False),
                          ((5, 2**32 - 1), True), ((5, 2**32), False)):
        _round_trips(pri_update([(1, 2), entry]), narrow)


def _widened(encoded: bytes) -> bytes:
    """``encoded`` (a narrow record, not a PRI update) under the wide
    header its fields would fit without."""
    kind, total, txn, prev, page, page_prev, index = struct.unpack_from(
        "<BHIIIIH", encoded)
    page = -1 if page == 0xFFFFFFFF else page
    return struct.pack("<BIqqqqq", kind | 0x40, total + 24, txn, prev, page,
                       page_prev, index) + encoded[21:]


def test_decode_refuses_a_second_encoding_of_any_record():
    for record in _one_of_each_kind():
        if record.kind == LogRecordKind.PRI_UPDATE:
            continue  # its wide entries: see the PRI update's own test
        widened = _widened(record.encode())
        with pytest.raises(LogError, match="narrow one fits"):
            LogRecord.decode(widened)
        # The same frame is accepted once a field needs it.
        needed = bytearray(widened)
        struct.pack_into("<q", needed, 5, 2**32)
        assert LogRecord.decode(bytes(needed)).txn_id == 2**32
    # Unknown kinds in the low six bits, under either form and with the
    # commit bit.
    good = LogRecord(LogRecordKind.COMMIT, txn_id=1).encode()
    for low in (0, 5, 15, 16, 0x3F):
        for high in (0, 0x40, 0x80, 0xC0):
            raw = bytes([low | high]) + good[1:]
            with pytest.raises(LogError):
                LogRecord.decode(raw)
    # An UPDATE that spells out a before-image its op already holds is
    # not what the encoder writes.
    op = OpUpdateValue(1, b"same", b"new")
    shared = LogRecord(LogRecordKind.UPDATE, op=op, undo=LogicalUndo(
        UndoAction.RESTORE_VALUE, b"k", b"same"))
    raw = bytearray(shared.encode())
    written_twice = (raw[:21] + bytes([raw[21] & ~4]) + raw[22:-4]
                     + LogicalUndo(UndoAction.RESTORE_VALUE, b"k",
                                   b"same").encode())
    struct.pack_into("<H", written_twice, 1, len(written_twice))
    with pytest.raises(LogError, match="own encoding"):
        LogRecord.decode(bytes(written_twice))


# ----------------------------------------------------------------------
# In-log page images
# ----------------------------------------------------------------------
def test_a_page_image_inflates_to_exactly_one_page_or_fails_typed():
    page = bytes(range(256)) * 16
    blob = compress_image(page)
    assert decompress_image(blob, 4096) == page
    for bad in (b"", b"garbage", blob[:-1], blob[:len(blob) // 2],
                blob + b"trailing", compress_image(page[:100]),
                compress_image(page + b"x"), compress_image(page * 100)):
        with pytest.raises(LogError):
            decompress_image(bad, 4096)
    with pytest.raises(LogError):
        decompress_image(blob, 2048)


@settings(max_examples=300)
@given(data=st.binary(max_size=200))
def test_page_image_decoder_fails_typed_on_arbitrary_bytes(data):
    _decodes_or_log_error(lambda d: decompress_image(d, 512), data)
