"""Property: every WAL serialization round-trips exactly.

The log holds each record's encoding, written once at append (LSNs are
byte offsets), and every reader trusts ``decode(encode(x)) == x`` for
every record kind: ``encode`` is the object encoder of
:mod:`tests.record_reference`, which writes any record shape, and each
kind's builder in :mod:`repro.wal.records` writes its bytes exactly
(``tests/test_record_builders.py``; a put's UPDATE, ``encode_update``,
here too).  Hypothesis drives both invariants across every page-op kind —
including the bulk run ops structural maintenance emits, drawn as the
reference ops of :mod:`tests.op_reference` — every
:class:`LogRecordKind`, checkpoint payloads
and logical undo descriptors, with boundary payloads (empty keys and
values, zero-length runs, maximal slot numbers) mixed in; the commit
bit rides on every chain kind, and an UPDATE's before-image is shared
with, distinct from, or as empty as its op's.  Value rewrites come
spanned and unspanned: built by ``value_rewrite`` from values that
share a prefix and suffix (empty middles, a span covering the whole
shorter value, growth, shrink) or given any span directly; their
RESTORE_VALUE undo shares the span, or stands alone with one.  A
redo-only UPDATE — an autocommit write's one record: its commit bit, no
undo — carries any op, or a redo-only value rewrite that keeps no
before-image (spanned: only the old middle's length).  A leaf run's
UPDATE carries an ``OpBulkInsert`` of one to many rows and the
DELETE_KEYS undo naming their keys under any prefix.  A split's
removal names a range of one to 65 535 rows and no row; a prefix
extension names a range and the one to 32 767 bytes it strips, and is
compensated like any op but the removal.  A structure change's record
of one page carries an ``OpSequence`` of two to four ops, a removal or
compensations among them, and a compensation wraps any sequence
holding neither.  A PRI update names the pages of one write-back run,
one to many.

The engine never decodes an op into an object: a record's op stays
its bytes, and the kernel that applies them checks them
(:func:`repro.wal.ops.redo`).  So an op round-trips through the
reference decoder of :mod:`tests.op_reference`, and where a shape
below is refused it is refused by the record decoder or, for what lies
inside an op, by the kernel that replays the record onto a page.

Every record is decoded through :func:`tests.record_reference.agreed`:
the reference decoder, and the engine's in-place readers of every field
it reads, which must refuse what the reference refuses and read what it
reads.

The other direction is hostile bytes: whatever a decode boundary or a
kernel is handed — arbitrary bytes, or a valid encoding with a few
bytes overwritten — it returns a value or raises ``LogError`` (a kernel
may refuse the page instead, as a ``ReproError``), never a
``struct.error`` / ``IndexError`` / ``ValueError`` — truncated or
out-of-range span fields included, and a PRI update with no entries, a
count that runs past the record, a negative page id or trailing bytes,
a redo-only UPDATE without its commit bit or with an undo, a redo-only
op anywhere but in a redo-only UPDATE, a spanned redo-only op whose
old middle is longer than a page, and a DELETE_KEYS undo that names no
key, not its run's keys, or rides on anything but an ``OpBulkInsert``
in an UPDATE that is not redo-only; a removal or prefix extension of no
row, a prefix extension stripping no byte, more than a key holds or
more than the record holds, rows trailing a removal and a compensated
removal; and a sequence of fewer than two ops or fewer than it counts,
one nested in another (compensated or not), one holding a redo-only
rewrite, and a compensated sequence holding a removal or a
compensation.

Every field a header carries is drawn from both sides of the narrow
form's range, so records come narrow and wide; the boundaries
themselves — ids and LSNs at 2**32 - 1 and 2**32, page ids -1,
2**32 - 2 and 2**32 - 1, index ids at 2**16 - 1 and 2**16, totals at
65 535 and 65 536 bytes, PRI entries at 2**32 - 1 and 2**32 — are
round-tripped for every kind (a checkpoint's table entries too), and a
wide header around a record the narrow one fits is refused.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.single_page import replay_records
from repro.errors import LogError, ReproError
from repro.page.page import Page, PageType
from repro.wal.ops import compensation, redo, value_rewrite
from repro.wal.records import (
    PRI_UPDATE_MAX,
    BackupRef,
    BackupRefKind,
    CheckpointData,
    LogicalUndo,
    LogRecordKind,
    UndoAction,
    checkpoint_end,
    compress_image,
    decompress_image,
    commits_user_txn,
    encode_update,
    prev_lsn_of,
    pri_update,
    read_header,
)
from tests import op_reference as reference
from tests.op_reference import (
    OpBulkDelete,
    OpBulkInsert,
    OpDelete,
    OpExtendPrefix,
    OpInitSlotted,
    OpInsert,
    OpInverse,
    OpSequence,
    OpSetGhost,
    OpUpdateValue,
    OpWriteBytes,
)
from tests.record_reference import LogRecord, agreed, encode

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


def _rewrite(slot: int, old: bytes, new: bytes,
             redo_only: bool = False) -> OpUpdateValue:
    """The rewrite :func:`repro.wal.ops.value_rewrite` builds, read
    back as the reference's op."""
    return reference.decode(value_rewrite(slot, old, new, redo_only)[0])


def _encode(op) -> bytes:  # noqa: ANN001
    return op.encode()


def _pri_record(writes) -> LogRecord:  # noqa: ANN001
    """The PRI_UPDATE that names ``writes``, as a record object."""
    return LogRecord(LogRecordKind.PRI_UPDATE, writes=tuple(writes))


def _decodes_as(encoded: bytes, op) -> None:  # noqa: ANN001
    """The reference decoder reads ``encoded`` back as ``op``."""
    decoded = reference.decode(encoded)
    assert repr(decoded) == repr(op) and decoded.encode() == encoded


def _apply(op: bytes) -> None:
    """Redo ``op`` on a fresh page."""
    redo(Page.format(4096, 1), op, 0, len(op))


def _refused(raw: bytes) -> None:
    """``raw`` is refused as :class:`LogError`: by the record decoder,
    or by the kernel that replays its op onto a fresh page."""
    with pytest.raises(LogError):
        record = agreed(raw)
        replay_records(Page.format(4096, max(record.page_id, 0)),
                       [(1 << 20, raw)])


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
        return _rewrite(slot, prefix + old_middle + suffix,
                             prefix + new_middle + suffix)
    direct = st.builds(OpUpdateValue, slots, payloads, payloads, spans,
                       spans).filter(lambda op: op.prefix or op.suffix)
    return st.one_of(st.builds(built, slots, payloads, payloads, payloads,
                               payloads), direct)


def _redo_only_update_value():
    """Redo-only rewrites as the builder makes them, or with any span
    and old-middle length given directly."""
    def built(slot, prefix, old_middle, new_middle, suffix):
        return _rewrite(slot, prefix + old_middle + suffix,
                             prefix + new_middle + suffix, True)
    direct = st.builds(OpUpdateValue, slots, st.none(), payloads, spans, spans,
                       spans).filter(lambda op: op.prefix or op.suffix)
    return st.one_of(st.builds(built, slots, payloads, payloads, payloads,
                               payloads),
                     st.builds(OpUpdateValue, slots, st.none(), payloads),
                     direct)


def _op_set_ghost():
    return st.builds(OpSetGhost, slots, st.booleans(), st.booleans())


def _op_write_bytes():
    # The byte-range op (kind 5) requires old/new of equal length.  No
    # builder writes it and every kernel refuses it as an unknown kind,
    # but a record's decode leaves its op encoded, so records carry it.
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


#: a run's row count, as a removal or a prefix extension logs it
row_counts = st.integers(min_value=1, max_value=0xFFFF)


def _op_bulk_delete():
    return st.builds(OpBulkDelete, slots, row_counts)


def _op_extend_prefix(longest: bool = True):  # noqa: ANN202
    """Prefix extensions of one to many rows, stripping one byte to a
    key's worth (without ``longest``, to 48 bytes)."""
    stripped = st.binary(min_size=1, max_size=48)
    if longest:
        stripped = st.one_of(stripped, st.just(b"p" * 0x7FFF))
    return st.builds(OpExtendPrefix, slots, row_counts, stripped)


def _op_sequence(members):  # noqa: ANN001, ANN202
    """Sequences of two to four ``members``."""
    return st.builds(OpSequence, st.lists(members, min_size=2,
                                          max_size=4).map(tuple))


#: every op a compensation can wrap but a sequence and the row-free
#: removal, each small enough that four fit one record's u16 op length
_compensable_members = st.one_of(
    _op_insert(), _op_delete(), _op_update_value(), _op_set_ghost(),
    _op_init_slotted(), _op_bulk_insert(),
    _op_extend_prefix(longest=False),
)

#: every op a compensation can wrap: all but the row-free removal and a
#: sequence holding one
compensable_ops = st.one_of(
    _compensable_members, _op_extend_prefix(),
    _op_sequence(_compensable_members))

#: a structure change's record of one page: any op but a sequence, and
#: compensations, as the CLR of a split's source page carries them
plain_ops = st.one_of(compensable_ops, _op_bulk_delete(), _op_sequence(
    st.one_of(_compensable_members, _op_bulk_delete(),
              st.builds(OpInverse, _compensable_members))))

#: Every op kind, plus compensation wrappers around each that has one.
any_op = st.one_of(plain_ops, st.builds(OpInverse, compensable_ops))

#: what a record's op field may hold: any op, or a byte-range write
record_ops = st.one_of(any_op, _op_write_bytes(),
                       st.builds(OpInverse, _op_write_bytes()))

#: What a redo-only UPDATE carries: any op a write logs, or a redo-only
#: value rewrite.
redo_only_ops = st.one_of(plain_ops, _redo_only_update_value())

#: one key's undo, plain or (RESTORE_VALUE) spanned
key_undos = st.one_of(
    st.builds(LogicalUndo, st.sampled_from(
        [action for action in UndoAction
         if action is not UndoAction.DELETE_KEYS]), payloads, payloads),
    st.builds(LogicalUndo, st.just(UndoAction.RESTORE_VALUE), payloads,
              payloads, spans, spans).filter(lambda u: u.prefix or u.suffix))


def _run_undo(keys: list[bytes]) -> LogicalUndo:
    return LogicalUndo(UndoAction.DELETE_KEYS, keys[0], keys=tuple(keys))


#: a leaf run's undo: one to many keys, empty ones included
run_undos = st.builds(_run_undo, st.lists(payloads, min_size=1, max_size=6))

logical_undos = st.one_of(key_undos, run_undos)

def _checkpoints(values):  # noqa: ANN001, ANN202
    return st.builds(
        CheckpointData,
        st.dictionaries(values, values, max_size=5),
        st.lists(st.tuples(values, values, st.booleans()), max_size=5),
        st.dictionaries(values, values, max_size=5),
    )


#: checkpoint tables, half of them with every entry below 2**32 (the
#: u32 form a narrow header takes)
checkpoints = st.one_of(
    _checkpoints(st.integers(min_value=0, max_value=2**32 - 1)),
    _checkpoints(lsns))

backup_refs = st.builds(BackupRef, st.sampled_from(BackupRefKind), lsns)

#: a write-back run's (page id, PageLSN) pairs
pri_writes = st.lists(st.tuples(ids, lsns), min_size=1, max_size=40)


@settings(max_examples=200)
@given(op=st.one_of(any_op, _redo_only_update_value()))
def test_page_op_round_trip(op):
    encoded = op.encode()
    assert len(encoded) == op.encoded_size()
    _decodes_as(encoded, op)


@settings(max_examples=100)
@given(undo=logical_undos)
def test_logical_undo_round_trip(undo):
    encoded = undo.encode()
    decoded, end = LogicalUndo.decode(encoded, 0)
    assert decoded == undo
    assert end == len(encoded)


@settings(max_examples=100)
@given(checkpoint=checkpoints)
def test_checkpoint_round_trip(checkpoint):
    for wide in (False, True) if checkpoint.fits_narrow() else (True,):
        assert CheckpointData.decode(checkpoint.encode(wide), 0,
                                     wide) == checkpoint


# ----------------------------------------------------------------------
# Full log records, one strategy per kind so every payload shape is hit.
# ----------------------------------------------------------------------
def _record_strategy():
    # Every record the engine writes takes the narrow header, so most
    # drawn here do: one draw per record (shared by its five ids) sends
    # about one in eight to the ranges that straddle the narrow form's.
    wide = st.shared(st.integers(min_value=0, max_value=7).map(
        lambda n: n == 0), key="wide header")

    def field(narrow, straddling):  # noqa: ANN001, ANN202
        return wide.flatmap(lambda w: straddling if w else narrow)

    u32 = st.integers(min_value=0, max_value=2**32 - 1)
    header = dict(txn_id=field(u32, ids), prev_lsn=field(u32, lsns),
                  page_id=field(st.integers(min_value=-1,
                                            max_value=2**32 - 2),
                                st.one_of(st.integers(min_value=-1,
                                                      max_value=2**32 - 1),
                                          st.integers(min_value=-1,
                                                      max_value=2**62))),
                  page_prev_lsn=field(u32, lsns),
                  index_id=field(st.integers(min_value=0,
                                             max_value=2**16 - 1),
                                 st.one_of(st.integers(min_value=0,
                                                       max_value=2**16),
                                           ids)))
    bare_kinds = st.sampled_from([
        LogRecordKind.COMMIT, LogRecordKind.ABORT,
        LogRecordKind.SYS_COMMIT, LogRecordKind.CHECKPOINT_BEGIN,
    ])
    commits = st.booleans()  # every chain kind can carry the commit bit
    return st.one_of(
        st.builds(LogRecord, st.just(LogRecordKind.UPDATE), **header,
                  op=st.none() | record_ops.map(_encode),
                  undo=st.none() | key_undos,
                  commits=commits),
        _value_rewrites(header, commits),
        _leaf_runs(header, commits),
        st.builds(LogRecord, st.just(LogRecordKind.UPDATE), **header,
                  op=redo_only_ops.map(_encode), commits=st.just(True),
                  redo_only=st.just(True)),
        st.builds(LogRecord, st.just(LogRecordKind.COMPENSATION), **header,
                  op=st.none() | record_ops.map(_encode), undo_next_lsn=lsns,
                  commits=commits),
        st.builds(LogRecord, bare_kinds, **header),
        st.builds(LogRecord, st.just(LogRecordKind.FORMAT_PAGE), **header,
                  op=st.none() | _op_init_slotted().map(_encode),
                  commits=commits),
        st.builds(LogRecord, st.just(LogRecordKind.FULL_PAGE_IMAGE), **header,
                  page_lsn=lsns, image=payloads),
        st.builds(LogRecord, st.just(LogRecordKind.BACKUP_PAGE), **header,
                  page_lsn=lsns, backup_ref=backup_refs),
        st.builds(_pri_record, pri_writes),
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
        return LogRecord(LogRecordKind.UPDATE, op=op.encode(), undo=undo,
                         **fields)
    return st.builds(build, _op_update_value(), payloads, payloads,
                     st.sampled_from(["same", "equal", "distinct",
                                      "other span"]),
                     commits=commits, **header)


def _leaf_run(rows, prefix: bytes, slot: int, **fields) -> LogRecord:  # noqa: ANN001, ANN003
    """The UPDATE of a leaf run: an OpBulkInsert of ``rows`` (stored
    keys) and the DELETE_KEYS undo of their full keys."""
    return LogRecord(LogRecordKind.UPDATE,
                     op=OpBulkInsert(slot, tuple((key, value, False)
                                                 for key, value in rows)
                                     ).encode(),
                     undo=_run_undo([prefix + key for key, _value in rows]),
                     **fields)


def _leaf_runs(header, commits):
    """Leaf runs of one to many rows under any prefix, empty keys,
    values and prefixes included."""
    return st.builds(_leaf_run, st.lists(st.tuples(payloads, payloads),
                                         min_size=1, max_size=6),
                     payloads, slots, commits=commits, **header)


def _update_piece_by_piece(record: LogRecord) -> bytes:
    """The reference for an UPDATE's encoding: the module docstring's
    layout joined from the op's and the undo's own encodings."""
    op, undo = record.op and reference.decode(record.op), record.undo
    shared = (undo is not None and undo.action is UndoAction.RESTORE_VALUE
              and type(op) is reference.OpUpdateValue
              and undo.value == op.old_value
              and (undo.prefix, undo.suffix) == (op.prefix, op.suffix))
    body = bytes([(1 if op else 0) | (2 if undo else 0) | (4 if shared else 0)
                  | (8 if record.redo_only else 0)])
    if op:
        body += struct.pack("<H", len(record.op)) + record.op
    if shared:
        body += struct.pack("<BH", undo.action, len(undo.key)) + undo.key
    elif undo:
        body += undo.encode()
    kind = 1 | (0x80 if record.commits or record.redo_only else 0)
    ids = (record.txn_id, record.prev_lsn, record.page_id,
           record.page_prev_lsn, record.index_id)
    if (all(0 <= v < 2**32 for v in (ids[0], ids[1], ids[3]))
            and 0 <= ids[2] + 1 < 2**32 and ids[4] < 2**16
            and 21 + len(body) < 2**16):
        return struct.pack("<BHIIIIH", kind, 21 + len(body), ids[0], ids[1],
                           ids[2] & 0xFFFFFFFF, ids[3], ids[4]) + body
    return struct.pack("<BIqqqqq", kind | 0x40, 45 + len(body), *ids) + body


@settings(max_examples=400)
@given(record=_record_strategy())
def test_log_record_round_trip(record):
    encoded = encode(record)
    if record.kind is LogRecordKind.UPDATE:
        # encode_update's packed shapes and sized path alike.
        assert encoded == _update_piece_by_piece(record)
        if record.op is not None and record.commits == record.redo_only:
            assert encode_update(
                record.txn_id, record.prev_lsn, record.page_id,
                record.page_prev_lsn, record.index_id, record.op,
                record.undo, record.redo_only) == encoded
    decoded = agreed(encoded)
    assert decoded == record
    assert prev_lsn_of(encoded) == record.prev_lsn
    assert decoded.commits == record.commits
    assert decoded.redo_only == record.redo_only
    assert encode(decoded) == encoded


u32 = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=200)
@given(txn_id=u32, prev_lsn=u32,
       page_id=st.integers(min_value=-1, max_value=2**32 - 2),
       page_prev_lsn=u32, index_id=st.integers(min_value=0, max_value=2**16 - 1),
       slot=slots, old=payloads, new=payloads, key=payloads)
def test_a_puts_two_shapes_pack_and_unpack_as_the_reference(
        txn_id, prev_lsn, page_id, page_prev_lsn, index_id, slot, old, new,
        key):
    """The redo-only rewrite (unspanned, and spanned where the values
    share enough) and the listed rewrite under a narrow header — the
    shapes ``encode_update`` packs with one ``Struct`` each — against
    the piece-by-piece reference."""
    ids = (txn_id, prev_lsn, page_id, page_prev_lsn, index_id)
    redo_only = [(op, LogRecord(LogRecordKind.UPDATE, *ids[:1], 0, *ids[2:],
                                op=op.encode(), commits=True, redo_only=True))
                 for op in (OpUpdateValue(slot, None, new),
                            _rewrite(slot, key + old + key,
                                          key + new + key, redo_only=True))]
    op = OpUpdateValue(slot, old, new)
    listed = (op, LogRecord(LogRecordKind.UPDATE, *ids, op=op.encode(),
                            undo=LogicalUndo(UndoAction.RESTORE_VALUE, key,
                                             old)))
    for op, record in (*redo_only, listed):
        encoded = encode_update(*ids[:1], record.prev_lsn, *ids[2:],
                                record.op, record.undo, record.redo_only)
        assert encoded == encode(record) == _update_piece_by_piece(record)
        decoded = agreed(encoded, 7)
        assert decoded.lsn == 7 and encode(decoded) == encoded
        decoded.lsn = record.lsn
        assert decoded == record


def test_shared_before_image_is_logged_once_and_shared_on_decode():
    old, new, key = b"o" * 100, b"n" * 100, b"k" * 16
    op = OpUpdateValue(7, old, new).encode()
    shared = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, key, old))
    distinct = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2, op=op,
                         undo=LogicalUndo(UndoAction.RESTORE_VALUE, key,
                                          b"x" * 100))
    # narrow header, flags, op length, op, undo action + key
    assert len(encode(shared)) == 21 + 1 + 2 + (7 + 200) + (1 + 2 + 16) == 250
    assert len(encode(distinct)) == len(encode(shared)) + 2 + 100
    decoded = agreed(encode(shared))
    assert decoded == shared
    assert decoded.undo.value == old
    # Only a value rewrite shares: an insert's undo has no before-image,
    # and a delete's (INSERT_KEY) is not the ghost op's to share.
    other = LogRecord(LogRecordKind.UPDATE,
                      op=OpSetGhost(3, False, True).encode(),
                      undo=LogicalUndo(UndoAction.INSERT_KEY, key, old))
    assert len(encode(other)) == 21 + 1 + 2 + 5 + (5 + 16 + 100)
    assert agreed(encode(other)) == other


def test_commit_bit_is_the_high_bit_of_the_kind_byte_and_free():
    for kind in (LogRecordKind.UPDATE, LogRecordKind.COMPENSATION,
                 LogRecordKind.FORMAT_PAGE):
        plain = LogRecord(kind, txn_id=5, page_id=9)
        carrying = LogRecord(kind, txn_id=5, page_id=9, commits=True)
        assert len(encode(carrying)) == len(encode(plain))
        a, b = encode(plain), encode(carrying)
        assert a[0] == int(kind) and b[0] == int(kind) | 0x80
        assert a[1:] == b[1:]
        assert agreed(b).commits and not agreed(a).commits
        assert carrying.commits_txn and not plain.commits_txn


def test_commit_bit_only_on_chain_kinds():
    for kind in LogRecordKind:
        if kind in (LogRecordKind.UPDATE, LogRecordKind.COMPENSATION,
                    LogRecordKind.FORMAT_PAGE):
            continue
        raw = bytearray(encode(LogRecord(kind)))
        raw[0] |= 0x80
        with pytest.raises(LogError):
            agreed(bytes(raw))


def _commits_user_txn(record: LogRecord) -> bool:
    """:func:`commits_user_txn` of ``record``'s bytes, read in place."""
    raw = encode(record)
    return commits_user_txn(raw, *read_header(raw)[:2])


def test_committed_predicates():
    undo = LogicalUndo(UndoAction.DELETE_KEY, b"k")
    user_bit = LogRecord(LogRecordKind.UPDATE, txn_id=1, undo=undo,
                         commits=True)
    system_bit = LogRecord(LogRecordKind.UPDATE, txn_id=2, commits=True)
    assert user_bit.commits_txn and _commits_user_txn(user_bit)
    assert system_bit.commits_txn and not _commits_user_txn(system_bit)
    commit = LogRecord(LogRecordKind.COMMIT, txn_id=1)
    sys_commit = LogRecord(LogRecordKind.SYS_COMMIT, txn_id=2)
    assert commit.commits_txn and _commits_user_txn(commit)
    assert sys_commit.commits_txn and not _commits_user_txn(sys_commit)
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


def _applies_or_fails_typed(op: bytes) -> None:
    """Redone on a fresh page, ``op`` applies, or the kernel refuses the
    bytes (``LogError``) or the page (another ``ReproError``)."""
    if op:
        try:
            _apply(op)
        except ReproError:
            pass


def _hostile_redo_only() -> dict[str, bytes]:
    """Bytes no writer produces around a redo-only op or record."""
    op = OpUpdateValue(3, None, b"new").encode()
    ids = dict(txn_id=1, page_id=2)
    good = encode(LogRecord(LogRecordKind.UPDATE, **ids, op=op, commits=True,
                            redo_only=True))
    with_undo = encode(LogRecord(
        LogRecordKind.UPDATE, **ids, op=op, commits=True,
        undo=LogicalUndo(UndoAction.DELETE_KEY, b"k")))
    return {
        "no commit bit": bytes([good[0] & ~0x80]) + good[1:],
        "under a COMPENSATION": encode(LogRecord(
            LogRecordKind.COMPENSATION, **ids, op=op)),
        "compensated": encode(LogRecord(LogRecordKind.COMPENSATION, **ids,
                                        op=compensation(op))),
        "under a FORMAT_PAGE": encode(LogRecord(
            LogRecordKind.FORMAT_PAGE, **ids, op=op)),
        "with an undo": with_undo,
        "flagged redo-only with an undo": (with_undo[:21]
                                           + bytes([with_undo[21] | 0x08])
                                           + with_undo[22:]),
        "in an UPDATE not flagged redo-only": encode(LogRecord(
            LogRecordKind.UPDATE, **ids, op=op, commits=True)),
        "old middle longer than a page": encode(LogRecord(
            LogRecordKind.UPDATE, **ids, commits=True, redo_only=True,
            op=OpUpdateValue(3, None, b"new", 1, 1, 0xFFFF).encode())),
    }


HOSTILE_REDO_ONLY = _hostile_redo_only()


def _hostile_runs() -> dict[str, bytes]:
    """Bytes no writer produces around a leaf run's DELETE_KEYS undo."""
    ids = dict(txn_id=1, page_id=2)
    rows = ((b"01", b"a"), (b"02", b"b"), (b"03", b"c"))
    good = encode(_leaf_run(rows, b"key", 5, **ids))
    assert agreed(good).undo.keys == (b"key01", b"key02", b"key03")
    bulk = OpBulkInsert(5, tuple((key, value, False) for key, value in rows))
    run_undo = _run_undo([b"key01", b"key02", b"key03"])

    def update(op, undo, **fields) -> bytes:  # noqa: ANN001, ANN003
        return encode(LogRecord(LogRecordKind.UPDATE, **ids,
                                op=op and op.encode(), undo=undo, **fields))

    truncated = bytearray(good[:-1])
    truncated[1:3] = len(truncated).to_bytes(2, "little")
    return {
        "an empty key list": update(
            OpBulkInsert(5, ()),
            LogicalUndo(UndoAction.DELETE_KEYS, b"", keys=())),
        "fewer keys than rows": update(bulk, _run_undo([b"key01", b"key02"])),
        "more keys than rows": update(
            bulk, _run_undo([b"key01", b"key02", b"key03", b"key04"])),
        "keys its run does not insert": update(
            bulk, _run_undo([b"key01", b"key03", b"key02"])),
        "keys under two prefixes": update(
            bulk, _run_undo([b"key01", b"kez02", b"key03"])),
        "under an OpInsert": update(OpInsert(5, b"01", b"a"), run_undo),
        "under an OpBulkDelete": update(OpBulkDelete(5, 3), run_undo),
        "under no op": update(None, run_undo),
        "under a redo-only UPDATE": (bytes([good[0] | 0x80]) + good[1:21]
                                     + bytes([good[21] | 0x08]) + good[22:]),
        "under a COMPENSATION": (bytes([LogRecordKind.COMPENSATION])
                                 + good[1:]),
        "a truncated key": bytes(truncated),
    }


HOSTILE_RUNS = _hostile_runs()


def _system_update(op_bytes: bytes) -> bytes:
    """A narrow system-transaction UPDATE whose op field is
    ``op_bytes``, whatever they say."""
    total = 21 + 3 + len(op_bytes)
    return (struct.pack("<BHIIIIH", LogRecordKind.UPDATE, total, 1, 0, 2, 0, 0)
            + bytes([1]) + struct.pack("<H", len(op_bytes)) + op_bytes)


def _hostile_structure() -> dict[str, bytes]:
    """Bytes no writer produces for a split's removal, a prefix
    extension or a structure change's sequence of ops."""
    ids = dict(txn_id=1, page_id=2)
    good = OpExtendPrefix(5, 3, b"k00").encode()
    assert agreed(_system_update(good)).op == good
    row = bytes([0]) + struct.pack("<H", 3) + b"k01" + struct.pack("<H", 1) + b"a"
    ghost = OpSetGhost(3, False, True).encode()
    assert agreed(_system_update(bytes([13, 2, 0]) + ghost * 2)
                            ).op == OpSequence((OpSetGhost(3, False, True),) * 2
                                               ).encode()
    return {
        "a removal of no row": _system_update(bytes([8]) + struct.pack("<HH", 5, 0)),
        "a prefix extension of no row": _system_update(
            bytes([12]) + struct.pack("<HHH", 5, 0, 3) + b"k00"),
        "a prefix extension stripping no byte": _system_update(
            bytes([12]) + struct.pack("<HHH", 5, 3, 0)),
        "stripped bytes longer than any key": _system_update(
            bytes([12]) + struct.pack("<HHH", 5, 3, 0x8000) + b"k" * 0x8000),
        "stripped bytes past the record": _system_update(
            good[:5] + struct.pack("<H", 0xFFFF) + good[7:]),
        "rows trailing a row-free removal": _system_update(
            bytes([8]) + struct.pack("<HI", 5, 1) + row),
        "a compensated row-free removal": encode(LogRecord(
            LogRecordKind.COMPENSATION, **ids,
            op=compensation(OpBulkDelete(5, 3).encode()))),
        "a sequence of no op": _system_update(bytes([13, 0, 0])),
        "a sequence of one op": _system_update(bytes([13, 1, 0]) + ghost),
        "a sequence in a sequence": _system_update(
            bytes([13, 2, 0, 13, 2, 0]) + ghost * 3),
        "a compensated sequence in a sequence": _system_update(
            bytes([13, 2, 0, 99, 13, 2, 0]) + ghost * 3),
        "a run of sequence kinds": _system_update(bytes([13, 2, 0]) * 40),
        "a redo-only rewrite in a sequence": _system_update(
            bytes([13, 2, 0]) + ghost
            + OpUpdateValue(3, None, b"new").encode()),
        "fewer ops than a sequence counts": _system_update(
            bytes([13, 3, 0]) + ghost * 2),
        "a compensated sequence holding a removal": encode(LogRecord(
            LogRecordKind.COMPENSATION, **ids, op=OpInverse(OpSequence(
                (OpBulkDelete(5, 3), OpSetGhost(3, False, True)))).encode()
        )),
        "a compensated sequence holding a compensation": encode(LogRecord(
            LogRecordKind.COMPENSATION, **ids, op=OpInverse(OpSequence(
                (OpInverse(OpSetGhost(3, False, True)),
                 OpSetGhost(3, False, True)))).encode())),
    }


HOSTILE_STRUCTURE = _hostile_structure()


@pytest.mark.parametrize("shape", sorted(HOSTILE_STRUCTURE))
def test_structure_op_shapes_no_writer_produces_fail_typed(shape):
    _refused(HOSTILE_STRUCTURE[shape])


@pytest.mark.parametrize("shape", sorted(HOSTILE_RUNS))
def test_leaf_run_shapes_no_writer_produces_fail_typed(shape):
    _refused(HOSTILE_RUNS[shape])


@pytest.mark.parametrize("shape", sorted(HOSTILE_REDO_ONLY))
def test_redo_only_shapes_no_writer_produces_fail_typed(shape):
    _refused(HOSTILE_REDO_ONLY[shape])


@settings(max_examples=400)
@given(data=st.binary(max_size=200))
@example(HOSTILE_REDO_ONLY["no commit bit"])
@example(HOSTILE_REDO_ONLY["under a COMPENSATION"])
@example(HOSTILE_REDO_ONLY["compensated"])
@example(HOSTILE_REDO_ONLY["with an undo"])
@example(HOSTILE_REDO_ONLY["flagged redo-only with an undo"])
@example(HOSTILE_REDO_ONLY["old middle longer than a page"])
@example(HOSTILE_RUNS["an empty key list"])
@example(HOSTILE_RUNS["fewer keys than rows"])
@example(HOSTILE_RUNS["under an OpInsert"])
@example(HOSTILE_RUNS["under a redo-only UPDATE"])
@example(HOSTILE_RUNS["under a COMPENSATION"])
@example(HOSTILE_RUNS["a truncated key"])
@example(HOSTILE_STRUCTURE["a removal of no row"])
@example(HOSTILE_STRUCTURE["a prefix extension of no row"])
@example(HOSTILE_STRUCTURE["a prefix extension stripping no byte"])
@example(HOSTILE_STRUCTURE["stripped bytes longer than any key"])
@example(HOSTILE_STRUCTURE["stripped bytes past the record"])
@example(HOSTILE_STRUCTURE["rows trailing a row-free removal"])
@example(HOSTILE_STRUCTURE["a compensated row-free removal"])
# a wide COMMIT header whose fields the narrow one holds
@example(struct.pack("<BIqqqqq", 0x40 | LogRecordKind.COMMIT, 45, 1, 0, -1, 0, 0))
# a narrow UPDATE whose u16 op length runs past the record
@example(struct.pack("<BHIIIIH", LogRecordKind.UPDATE, 24, 1, 0, 2, 0, 0)
         + bytes([1]) + struct.pack("<H", 0xFFFF))
# unknown kinds in the kind byte's low six bits, narrow and wide
@example(bytes([0x3F]) + struct.pack("<H", 21) + bytes(18))
@example(bytes([0x40 | 0x05]) + struct.pack("<I", 45) + bytes(40))
def test_decoders_fail_typed_on_arbitrary_bytes(data):
    _decodes_or_log_error(agreed, data)
    _applies_or_fails_typed(data)
    _decodes_or_log_error(lambda d: LogicalUndo.decode(d, 0), data)
    for wide in (False, True):
        _decodes_or_log_error(lambda d: CheckpointData.decode(d, 0, wide),
                              data)
    # Well-formed headers of both forms over arbitrary payload bytes,
    # so the payload decoders are reached (random bytes rarely get the
    # length right).
    if data:
        kind = data[0]
        narrow = (bytes([kind & ~0x40]) + (len(data) + 20).to_bytes(2, "little")
                  + bytes(18) + data[1:])
        wide = (bytes([kind | 0x40]) + (len(data) + 44).to_bytes(4, "little")
                + bytes(40) + data[1:])
        _decodes_or_log_error(agreed, narrow)
        _decodes_or_log_error(agreed, wide)


mutations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=3)


@settings(max_examples=600)
@given(record=_record_strategy(), edits=mutations)
def test_log_record_decode_fails_typed_on_mutated_encodings(record, edits):
    """A record's bytes, mutated: the reference decoder and the engine's
    readers of every field both refuse them with :class:`LogError`, or
    read the same fields (:func:`tests.record_reference.agreed`)."""
    raw = bytearray(encode(record))
    for position, byte in edits:
        raw[position % len(raw)] = byte
    _decodes_or_log_error(agreed, bytes(raw))


@settings(max_examples=300)
@given(op=st.one_of(any_op, _redo_only_update_value()), edits=mutations)
def test_page_op_kernels_fail_typed_on_mutated_encodings(op, edits):
    raw = bytearray(op.encode())
    for position, byte in edits:
        raw[position % len(raw)] = byte
    _applies_or_fails_typed(bytes(raw))


@settings(max_examples=200)
@given(undo=logical_undos, checkpoint=checkpoints, edits=mutations)
def test_undo_and_checkpoint_decode_fail_typed_on_mutation(undo, checkpoint,
                                                           edits):
    cases = [(undo.encode(), lambda d: LogicalUndo.decode(d, 0))]
    for wide in (True, False) if checkpoint.fits_narrow() else (True,):
        cases.append((checkpoint.encode(wide),
                      lambda d, wide=wide: CheckpointData.decode(d, 0, wide)))
    for encoded, decode in cases:
        raw = bytearray(encoded)
        for position, byte in edits:
            raw[position % len(raw)] = byte
        _decodes_or_log_error(decode, bytes(raw))


def test_decode_rejects_what_no_writer_produces():
    update = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2,
                       op=OpUpdateValue(3, b"old", b"new").encode(),
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, b"k", b"old"))
    good = encode(update)
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
            agreed(raw)
    # A run of compensation-op kinds must not recurse once per byte.
    with pytest.raises(LogError):
        _apply(bytes([99]) * 5000)
    # Trailing bytes after a complete payload, of every kind.
    for record in (LogRecord(LogRecordKind.COMMIT, txn_id=1),
                   *_one_of_each_kind()):
        padded = bytearray(encode(record))
        padded += b"\0"
        padded[1:3] = len(padded).to_bytes(2, "little")
        with pytest.raises(LogError):
            agreed(bytes(padded))


# ----------------------------------------------------------------------
# Deterministic boundary cases the shrinker should not have to find.
# ----------------------------------------------------------------------
def test_empty_bulk_run_round_trips():
    op = OpBulkInsert(0, ())
    _decodes_as(op.encode(), op)
    assert op.encoded_size() == len(op.encode()) == 7


def test_structure_ops_log_a_range():
    """A split's removal is its kind, slot and count; a prefix
    extension adds the bytes it strips."""
    removal = OpBulkDelete(0x0102, 0x0304)
    assert removal.encode() == bytes([8, 0x02, 0x01, 0x04, 0x03])
    extension = OpExtendPrefix(3, 40, b"k002")
    assert extension.encode() == (bytes([12]) + struct.pack("<HHH", 3, 40, 4)
                                  + b"k002")
    for op in (removal, extension, OpInverse(extension)):
        assert op.encoded_size() == len(op.encode())
        _decodes_as(op.encode(), op)
    with pytest.raises(LogError, match="cannot be undone"):
        _apply(compensation(removal.encode()))


def test_empty_payload_boundaries():
    cases = [
        OpInsert(0xFFFF, b"", b"", True),
        OpDelete(0, b"", b""),
        OpUpdateValue(1, b"", b""),
        OpWriteBytes(0, b"", b""),
        OpBulkInsert(3, ((b"", b"", False), (b"", b"", True))),
        OpBulkDelete(0xFFFF, 0xFFFF),
        OpInverse(OpExtendPrefix(0xFFFF, 0xFFFF, b"k")),
    ]
    for op in cases:
        encoded = op.encode()
        assert len(encoded) == op.encoded_size()
        _decodes_as(encoded, op)


def test_empty_checkpoint_and_update_round_trip():
    record = LogRecord(LogRecordKind.CHECKPOINT_END,
                       checkpoint=CheckpointData())
    assert agreed(encode(record)) == record
    # An UPDATE with neither op nor undo is legal (flags byte = 0).
    bare = LogRecord(LogRecordKind.UPDATE, txn_id=9, page_id=4)
    assert agreed(encode(bare)) == bare


# ----------------------------------------------------------------------
# Spanned value rewrites
# ----------------------------------------------------------------------
def test_an_unspanned_rewrite_encodes_as_before_spans_existed():
    """Values that share no edge byte keep the encoding every earlier
    log holds, byte for byte: kind 3, slot, both values whole."""
    old, new = b"\x01" + b"o" * 98 + b"\x02", b"\x03" + b"n" * 98 + b"\x04"
    op = _rewrite(0x0102, old, new)
    assert (op.prefix, op.suffix) == (0, 0)
    assert op.encode() == (bytes([3, 0x02, 0x01]) + struct.pack("<H", 100)
                           + old + struct.pack("<H", 100) + new)
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2,
                       op=op.encode(),
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, b"k" * 16,
                                        old))
    payload = encode(record)[21:]
    assert payload == (bytes([7]) + struct.pack("<H", 207) + op.encode()
                       + bytes([3]) + struct.pack("<H", 16) + b"k" * 16)
    # A span of four shared bytes or fewer does not pay for its fields.
    assert _rewrite(0, b"abcd" + old, b"abcd" + new).prefix == 0


def test_a_spanned_rewrite_logs_the_middles_once():
    old = b"2019-03-04" + bytes(33 + i % 90 for i in range(230))
    new = b"2021-11-22" + old[10:]
    op = _rewrite(5, old, new)
    assert (op.prefix, op.suffix) == (2, 230)
    assert (op.old_value, op.new_value) == (b"19-03-04", b"21-11-22")
    assert op.encode() == (bytes([9, 5, 0]) + struct.pack("<HH", 2, 230)
                           + struct.pack("<H", 8) + op.old_value
                           + struct.pack("<H", 8) + op.new_value)
    undo = LogicalUndo(UndoAction.RESTORE_VALUE, b"k" * 27, op.old_value,
                       op.prefix, op.suffix)
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2,
                       op=op.encode(), undo=undo)
    # 21 header + 1 flags + 2 + op (11 + 8 + 8) + undo (1 + 2 + 27)
    assert len(encode(record)) == len(encode(record)) == 81
    decoded = agreed(encode(record))
    assert decoded == record
    assert decoded.undo.value == op.old_value
    assert decoded.undo.restored(new) == old
    # The same undo on its own carries the span behind its action byte.
    assert undo.encode()[:5] == bytes([0x83]) + struct.pack("<HH", 2, 230)
    assert LogicalUndo.decode(undo.encode(), 0) == (undo, len(undo.encode()))


def test_a_redo_only_rewrite_logs_its_new_value_alone():
    """An autocommit put's record: the op keeps the new value (or new
    middle) and, when spanned, the old middle's length; no undo."""
    old, new = b"\x01" + b"o" * 98 + b"\x02", b"\x03" + b"n" * 98 + b"\x04"
    op = _rewrite(0x0102, old, new, True)
    assert op.old_value is None and (op.prefix, op.suffix) == (0, 0)
    assert op.encode() == bytes([10, 0x02, 0x01]) + struct.pack("<H", 100) + new
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2,
                       op=op.encode(), commits=True, redo_only=True)
    encoded = encode(record)
    # 21 header + 1 flags + 2 op length + 105 op
    assert len(encoded) == len(encode(record)) == 129
    assert encoded[0] == 0x80 | LogRecordKind.UPDATE
    assert encoded[21:24] == bytes([0x09]) + struct.pack("<H", 105)
    decoded = agreed(encoded)
    assert decoded == record and _commits_user_txn(decoded)
    spanned = _rewrite(5, b"2019-03-04" + b"x" * 230,
                            b"2021-11-22" + b"x" * 230, True)
    assert spanned.encode() == (bytes([11, 5, 0])
                                + struct.pack("<HHH", 2, 230, 8)
                                + struct.pack("<H", 8) + b"21-11-22")
    _decodes_as(spanned.encode(), spanned)
    with pytest.raises(LogError, match="cannot be undone"):
        _apply(compensation(spanned.encode()))


def test_truncated_and_out_of_range_spans_fail_typed():
    op = _rewrite(5, b"2019-03-04" + b"x" * 30, b"2021-11-22" + b"x" * 30)
    good = op.encode()
    undo = LogicalUndo(UndoAction.RESTORE_VALUE, b"key", b"mid", 2, 30)
    good_undo = undo.encode()
    bad_ops = [good[:cut] for cut in range(1, 7)] + [
        good[:3] + struct.pack("<HH", 0, 0) + good[7:],          # empty span
        good[:3] + struct.pack("<HH", 0x7FF0, 0x7FF0) + good[7:],  # too long
    ]
    for raw in bad_ops:
        with pytest.raises(LogError):
            _apply(raw)
        with pytest.raises(LogError):
            _apply(compensation(raw))
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
    record = LogRecord(LogRecordKind.UPDATE, txn_id=1, page_id=2,
                       op=op.encode(),
                       undo=LogicalUndo(UndoAction.RESTORE_VALUE, b"k",
                                        op.old_value, op.prefix, op.suffix))
    raw = bytearray(encode(record))
    raw[21 + 1 + 2 + 3:21 + 1 + 2 + 7] = struct.pack("<HH", 0, 0)
    with pytest.raises(LogError):
        agreed(bytes(raw))


# ----------------------------------------------------------------------
# The vectored PRI update: one record per write-back run
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(writes=pri_writes)
def test_pri_update_round_trips_its_run(writes):
    record = _pri_record(writes)
    encoded = pri_update(writes)
    narrow = max(map(max, writes)) < 2**32
    assert encoded == encode(record)
    assert len(encoded) == (
        21 + 2 + 8 * len(writes) if narrow else 45 + 2 + 16 * len(writes))
    assert bool(encoded[0] & 0x40) is not narrow
    decoded = agreed(encoded)
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
        assert agreed(_pri_frame(struct.pack("<H", 2) + entries,
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
                agreed(_pri_frame(payload, wide=wide))
                pytest.fail(f"{name} decoded")
        # The pages are in the payload, never in the header.
        with pytest.raises(LogError):
            agreed(_pri_frame(struct.pack("<H", 2) + entries,
                                        page_id=7, wide=wide))
    # The builder writes only what the decoder reads back.
    for writes in ([], [(1, 64)] * (PRI_UPDATE_MAX + 1), [(-1, 64)],
                   [(1, -64)]):
        with pytest.raises(LogError):
            pri_update(writes)
    assert len(agreed(pri_update([(1, 64)] * PRI_UPDATE_MAX)).writes
               ) == PRI_UPDATE_MAX


# ----------------------------------------------------------------------
# Narrow and wide headers
# ----------------------------------------------------------------------
def _one_of_each_kind() -> list[LogRecord]:
    """A record of every kind, payload and all, with header fields the
    narrow form holds."""
    op = OpUpdateValue(4, b"old", b"new").encode()
    undo = LogicalUndo(UndoAction.RESTORE_VALUE, b"key", b"old")
    fields = dict(txn_id=3, prev_lsn=64, page_id=9, page_prev_lsn=32,
                  index_id=2)
    kinds = {
        LogRecordKind.UPDATE: dict(op=op, undo=undo, commits=True),
        LogRecordKind.COMPENSATION: dict(op=compensation(op),
                                         undo_next_lsn=16),
        LogRecordKind.FORMAT_PAGE: dict(
            op=OpInitSlotted(PageType.BTREE_LEAF).encode()),
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
    return records + [_pri_record([(9, 64), (10, 96)])]


#: header field -> (values the narrow form holds, values it does not)
_BOUNDARIES = {
    "txn_id": ((0, 2**32 - 1), (2**32, 2**63 - 1)),
    "prev_lsn": ((0, 2**32 - 1), (2**32,)),
    "page_prev_lsn": ((0, 2**32 - 1), (2**32,)),
    "page_id": ((-1, 0, 2**32 - 2), (2**32 - 1, 2**32, -2)),
    "index_id": ((0, 2**16 - 1), (2**16, 2**32)),
}


def _round_trips(record: LogRecord, narrow: bool) -> None:
    encoded = encode(record)
    assert len(encoded) == len(encode(record))
    assert bool(encoded[0] & 0x40) is not narrow, (record, narrow)
    decoded = agreed(encoded)
    assert decoded == record
    assert encode(decoded) == encoded


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
                           op=OpInsert(0, b"", bytes(65_535 - 32 + extra)
                                       ).encode())
        image = LogRecord(LogRecordKind.FULL_PAGE_IMAGE, page_id=2,
                          image=bytes(65_535 - 33 + extra))
        for record in (update, image):
            _round_trips(record, narrow)
            assert len(encode(record)) == (65_535 + extra
                                             + (0 if narrow else 24))
    # 21 header + 2 count + 8 per entry: 8 189 entries fill 65 535 bytes
    for count, narrow in ((8_189, True), (8_190, False)):
        writes = [(page, 2**32 - 1) for page in range(count)]
        _round_trips(_pri_record(writes), narrow)
        assert pri_update(writes) == encode(_pri_record(writes))
    for entry, narrow in (((2**32 - 1, 5), True), ((2**32, 5), False),
                          ((5, 2**32 - 1), True), ((5, 2**32), False)):
        _round_trips(_pri_record([(1, 2), entry]), narrow)
        assert pri_update([(1, 2), entry]) == encode(_pri_record([(1, 2),
                                                                  entry]))


def _checkpoint_record(dirty: dict[int, int],
                       txns: list[tuple[int, int, bool]] = (),
                       images: dict[int, int] | None = None) -> LogRecord:
    return LogRecord(LogRecordKind.CHECKPOINT_END, checkpoint=CheckpointData(
        dirty, list(txns), images or {}))


def test_a_checkpoints_entries_decide_its_form_too():
    """A checkpoint's tables are u32 fields while every id and LSN in
    them is below 2**32 and the record fits 65 535 bytes, i64 fields
    under the wide header otherwise; the builder writes what the
    reference does either way."""
    for value, narrow in ((2**32 - 1, True), (2**32, False)):
        for record in (_checkpoint_record({value: 5}),
                       _checkpoint_record({5: value}),
                       _checkpoint_record({}, [(value, 5, True)]),
                       _checkpoint_record({}, [(5, value, False)]),
                       _checkpoint_record({}, [], {value: 5}),
                       _checkpoint_record({1: 2}, [(3, 4, True)],
                                          {5: value})):
            _round_trips(record, narrow)
            assert checkpoint_end(record.checkpoint) == encode(record)
    # 21 header + 4 length + 12 counts + 8 per dirty page: 8 187 pages
    # fit 65 535 bytes
    for count, narrow in ((8_187, True), (8_188, False)):
        record = _checkpoint_record({page: 2**32 - 1
                                     for page in range(count)})
        _round_trips(record, narrow)
        assert checkpoint_end(record.checkpoint) == encode(record)


def test_decode_refuses_a_wide_checkpoint_the_narrow_form_holds():
    """The i64 tables under a wide header are refused while every entry
    and the whole fit the narrow form, and accepted once one entry
    needs i64; a narrow record's tables cut short fail typed."""
    checkpoint = CheckpointData({9: 16, 10: 2**32 - 1}, [(3, 64, True)],
                                {1: 8})
    body = checkpoint.encode(True)
    widened = (struct.pack("<BIqqqqq", 0x40 | LogRecordKind.CHECKPOINT_END,
                           45 + 4 + len(body), 0, 0, -1, 0, 0)
               + struct.pack("<I", len(body)) + body)
    with pytest.raises(LogError, match="narrow one fits"):
        agreed(widened)
    needed = bytearray(widened)
    # the second dirty page's rec_lsn: 45 header, 4 length, 12 counts,
    # 16 for the first pair, 8 for the page id
    struct.pack_into("<q", needed, 45 + 4 + 12 + 16 + 8, 2**32)
    assert agreed(bytes(needed)).checkpoint.dirty_pages[10] == 2**32
    narrow = checkpoint_end(checkpoint)
    assert not narrow[0] & 0x40
    for cut in (1, 8, 9):
        short = bytearray(narrow[:-cut])
        struct.pack_into("<H", short, 1, len(short))
        with pytest.raises(LogError):
            agreed(bytes(short))


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
        if record.kind in (LogRecordKind.PRI_UPDATE,
                           LogRecordKind.CHECKPOINT_END):
            continue  # their wide entries: see their own tests
        widened = _widened(encode(record))
        with pytest.raises(LogError, match="narrow one fits"):
            agreed(widened)
        # The same frame is accepted once a field needs it.
        needed = bytearray(widened)
        struct.pack_into("<q", needed, 5, 2**32)
        assert agreed(bytes(needed)).txn_id == 2**32
    # Unknown kinds in the low six bits, under either form and with the
    # commit bit.
    good = encode(LogRecord(LogRecordKind.COMMIT, txn_id=1))
    for low in (0, 5, 15, 16, 0x3F):
        for high in (0, 0x40, 0x80, 0xC0):
            raw = bytes([low | high]) + good[1:]
            with pytest.raises(LogError):
                agreed(raw)
    # An UPDATE that spells out a before-image its op already holds is
    # not what the encoder writes.
    op = OpUpdateValue(1, b"same", b"new").encode()
    shared = LogRecord(LogRecordKind.UPDATE, op=op, undo=LogicalUndo(
        UndoAction.RESTORE_VALUE, b"k", b"same"))
    raw = bytearray(encode(shared))
    written_twice = (raw[:21] + bytes([raw[21] & ~4]) + raw[22:-4]
                     + LogicalUndo(UndoAction.RESTORE_VALUE, b"k",
                                   b"same").encode())
    struct.pack_into("<H", written_twice, 1, len(written_twice))
    with pytest.raises(LogError, match="own encoding"):
        agreed(bytes(written_twice))


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
