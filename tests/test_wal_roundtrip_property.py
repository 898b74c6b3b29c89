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
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
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
lsns = st.integers(min_value=0, max_value=2**62)
ids = st.integers(min_value=0, max_value=2**62)
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
                  page_id=st.integers(min_value=-1, max_value=2**62),
                  page_prev_lsn=lsns, index_id=ids)
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
    assert shared.encoded_size() == 45 + 1 + 4 + (11 + 200) + (1 + 4 + 16)
    assert distinct.encoded_size() == shared.encoded_size() + 4 + 100
    decoded = LogRecord.decode(shared.encode())
    assert decoded == shared
    assert decoded.undo.value is decoded.op.old_value
    # Only a value rewrite shares: an insert's undo has no before-image,
    # and a delete's (INSERT_KEY) is not the ghost op's to share.
    other = LogRecord(LogRecordKind.UPDATE, op=OpSetGhost(3, False, True),
                      undo=LogicalUndo(UndoAction.INSERT_KEY, key, old))
    assert other.encoded_size() == 45 + 1 + 4 + 5 + (9 + 16 + 100)
    assert LogRecord.decode(other.encode()) == other


def test_commit_bit_is_the_high_bit_of_the_kind_byte_and_free():
    for kind in (LogRecordKind.UPDATE, LogRecordKind.COMPENSATION,
                 LogRecordKind.FORMAT_PAGE):
        plain = LogRecord(kind, txn_id=5, page_id=9)
        carrying = LogRecord(kind, txn_id=5, page_id=9, commits=True)
        assert carrying.encoded_size() == plain.encoded_size()
        a, b = plain.encode(), carrying.encode()
        assert a[4] == int(kind) and b[4] == int(kind) | 0x80
        assert a[:4] + a[5:] == b[:4] + b[5:]
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
        raw[4] |= 0x80
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
def test_decoders_fail_typed_on_arbitrary_bytes(data):
    _decodes_or_log_error(LogRecord.decode, data)
    _decodes_or_log_error(PageOp.decode, data)
    _decodes_or_log_error(lambda d: LogicalUndo.decode(d, 0), data)
    _decodes_or_log_error(CheckpointData.decode, data)
    # A well-formed header over arbitrary payload bytes, so the payload
    # decoders are reached (random bytes rarely get the length right).
    if data:
        kind = data[0]
        framed = (len(data) + 44).to_bytes(4, "little") + bytes([kind]) \
            + bytes(40) + data[1:]
        _decodes_or_log_error(LogRecord.decode, framed)


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
        "unknown kind": good[:4] + bytes([5]) + good[5:],
        "unknown flag bit": good[:45] + bytes([good[45] | 0x10]) + good[46:],
        "length past the end": good[:53] + (0xFFFFFF).to_bytes(4, "little")
        + good[57:],
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
    padded[:4] = len(padded).to_bytes(4, "little")
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
    assert op.encode() == (bytes([3, 0x02, 0x01]) + struct.pack("<I", 100)
                           + old + struct.pack("<I", 100) + new)
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, b"k" * 16,
                                        old))
    payload = record.encode()[45:]
    assert payload == (bytes([7]) + struct.pack("<I", 211) + op.encode()
                       + bytes([3]) + struct.pack("<I", 16) + b"k" * 16)
    # A span of four shared bytes or fewer does not pay for its fields.
    assert value_rewrite(0, b"abcd" + old, b"abcd" + new).prefix == 0


def test_a_spanned_rewrite_logs_the_middles_once():
    old = b"2019-03-04" + bytes(33 + i % 90 for i in range(230))
    new = b"2021-11-22" + old[10:]
    op = value_rewrite(5, old, new)
    assert (op.prefix, op.suffix) == (2, 230)
    assert (op.old_value, op.new_value) == (b"19-03-04", b"21-11-22")
    assert op.encode() == (bytes([9, 5, 0]) + struct.pack("<HH", 2, 230)
                           + struct.pack("<I", 8) + op.old_value
                           + struct.pack("<I", 8) + op.new_value)
    undo = LogicalUndo(UndoAction.RESTORE_VALUE, b"k" * 27, op.old_value,
                       op.prefix, op.suffix)
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                       undo=undo)
    # 45 header + 1 flags + 4 + op (15 + 8 + 8) + undo (1 + 4 + 27)
    assert record.encoded_size() == len(record.encode()) == 113
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
    raw[45 + 1 + 4 + 3:45 + 1 + 4 + 7] = struct.pack("<HH", 0, 0)
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
    assert len(encoded) == record.encoded_size() == 45 + 2 + 16 * len(writes)
    decoded = LogRecord.decode(encoded)
    assert decoded == record
    assert decoded.writes == tuple(writes)
    assert decoded.page_id == -1  # the record joins no page chain


def _pri_frame(payload: bytes, page_id: int = -1) -> bytes:
    """A PRI_UPDATE header (kind 9) around ``payload``."""
    return struct.pack("<IBqqqqq", 45 + len(payload), LogRecordKind.PRI_UPDATE,
                       0, 0, page_id, 0, 0) + payload


def test_pri_update_decode_rejects_hostile_payloads():
    entries = struct.pack("<qq", 7, 100) + struct.pack("<qq", 9, 200)
    assert LogRecord.decode(_pri_frame(struct.pack("<H", 2) + entries)
                            ).writes == ((7, 100), (9, 200))
    cases = {
        "zero entries": struct.pack("<H", 0),
        "no count": b"",
        "count past the record": struct.pack("<H", 3) + entries,
        "count far past the record": struct.pack("<H", 0xFFFF) + entries,
        "a torn entry": struct.pack("<H", 2) + entries[:-3],
        "negative page id": struct.pack("<H", 1) + struct.pack("<qq", -4, 100),
        "negative LSN": struct.pack("<H", 1) + struct.pack("<qq", 4, -1),
        "trailing bytes": struct.pack("<H", 1) + entries,
    }
    for name, payload in cases.items():
        with pytest.raises(LogError):
            LogRecord.decode(_pri_frame(payload))
            pytest.fail(f"{name} decoded")
    # The pages are in the payload, never in the header.
    with pytest.raises(LogError):
        LogRecord.decode(_pri_frame(struct.pack("<H", 2) + entries, page_id=7))
    # The builder writes only what the decoder reads back.
    for writes in ([], [(1, 64)] * (PRI_UPDATE_MAX + 1)):
        with pytest.raises(LogError):
            pri_update(writes)
    assert len(pri_update([(1, 64)] * PRI_UPDATE_MAX).writes) == PRI_UPDATE_MAX


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
