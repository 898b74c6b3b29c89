"""Every op builder writes the bytes of the one format.

:mod:`tests.op_reference` keeps the encoder the page ops had as objects.
For every op the round-trip property draws
(:mod:`tests.test_wal_roundtrip_property`: sequences, compensations,
spanned and redo-only rewrites, runs with ghosts, prefix extensions,
row-free removals), :mod:`repro.wal.ops`'s builder of the op's kind,
given the op's fields, writes exactly the bytes the reference writes.
A value rewrite is given its whole old and new values, and its span is
the one a byte-by-byte comparison finds (:func:`_span`): the longest
shared prefix, then the longest shared suffix of what remains, taken
only when the two save more than a span's four bytes cost.

The hex vectors pin the whole record the record builders of
:mod:`repro.wal.records` write for the shapes the engine logs most: a
put's rewrite, redo-only and listed, spanned and not; an insert,
redo-only and listed; a ghost mark; a leaf run; a split's source page; a
format; a compensation; and an UPDATE whose header is wide.  The object
encoder of :mod:`tests.record_reference` writes each of them too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.page.page import PageType
from repro.wal import ops
from repro.wal.records import (LogicalUndo, UndoAction, clr,
                               encode_update, format_page)
from tests import op_reference as reference
from tests import record_reference
from tests.test_wal_roundtrip_property import (_redo_only_update_value,
                                               any_op, payloads, slots)
from tests.record_reference import LogRecord


# ----------------------------------------------------------------------
# The builder property
# ----------------------------------------------------------------------
def _span(old: bytes, new: bytes) -> tuple[int, int]:
    """The span of a rewrite of ``old`` by ``new``, byte by byte."""
    n = min(len(old), len(new))
    prefix = 0
    while prefix < n and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while (suffix < n - prefix
           and old[len(old) - 1 - suffix] == new[len(new) - 1 - suffix]):
        suffix += 1
    return (prefix, suffix) if prefix + suffix > 4 else (0, 0)


def _rewrite_case(slot: int, old: bytes, new: bytes,
                  redo_only: bool) -> tuple[bytes, bytes]:
    """As :func:`_case`; the before-image and span the builder returns
    beside its bytes, for a listed write's undo, are the op's."""
    prefix, suffix = _span(old, new)
    old_middle = old[prefix:len(old) - suffix]
    new_middle = new[prefix:len(new) - suffix]
    if redo_only:
        expected = reference.OpUpdateValue(slot, None, new_middle, prefix,
                                           suffix,
                                           len(old_middle) if prefix + suffix
                                           else 0)
    else:
        expected = reference.OpUpdateValue(slot, old_middle, new_middle,
                                           prefix, suffix)
    built, *span = ops.value_rewrite(slot, old, new, redo_only)
    assert span == [None if redo_only else old_middle, prefix, suffix]
    return expected.encode(), built


def _case(op) -> tuple[bytes, bytes]:  # noqa: ANN001
    """``(reference bytes, builder bytes)`` of the fields of ``op``; a
    rewrite's whole values are its middles under filler of its span's
    lengths, and its old middle, where it keeps none, zero bytes."""
    name = type(op).__name__
    if name == "OpUpdateValue":
        old = op.old_value
        if old is None:
            old = bytes(op.old_length)
        return _rewrite_case(op.slot, b"<" * op.prefix + old + b">" * op.suffix,
                             b"<" * op.prefix + op.new_value + b">" * op.suffix,
                             op.old_value is None)
    if name == "OpSequence":
        cases = [_case(member) for member in op.ops]
        return (reference.OpSequence(tuple(
                    reference.decode(expected) for expected, _ in cases)
                ).encode(), ops.sequence([built for _, built in cases]))
    if name == "OpInverse":
        expected, built = _case(op.original)
        return (reference.OpInverse(reference.decode(expected)).encode(),
                ops.compensation(built))
    fields = {
        "OpInsert": ("slot", "key", "value", "ghost"),
        "OpDelete": ("slot", "key", "value", "ghost"),
        "OpSetGhost": ("slot", "old_ghost", "new_ghost"),
        "OpInitSlotted": ("page_type",),
        "OpBulkInsert": ("slot", "records"),
        "OpBulkDelete": ("slot", "count"),
        "OpExtendPrefix": ("slot", "count", "stripped"),
    }[name]
    values = [getattr(op, field) for field in fields]
    builder = {"OpInsert": ops.insert, "OpDelete": ops.delete,
               "OpSetGhost": ops.set_ghost,
               "OpInitSlotted": ops.init_slotted,
               "OpBulkInsert": ops.bulk_insert,
               "OpBulkDelete": ops.bulk_delete,
               "OpExtendPrefix": ops.extend_prefix}[name]
    return getattr(reference, name)(*values).encode(), builder(*values)


@settings(max_examples=300, deadline=None)
@given(op=st.one_of(any_op, _redo_only_update_value()))
def test_every_builder_writes_the_reference_bytes(op):
    expected, built = _case(op)
    assert type(built) is bytes
    assert built == expected


@settings(max_examples=200, deadline=None)
@given(slot=slots, shared=payloads, old=payloads, new=payloads,
       tail=payloads, redo_only=st.booleans())
def test_value_rewrite_spans_as_a_byte_comparison_does(slot, shared, old,
                                                      new, tail, redo_only):
    expected, built = _rewrite_case(slot, shared + old + tail,
                                    shared + new + tail, redo_only)
    assert built == expected


# ----------------------------------------------------------------------
# Hex vectors of whole records
# ----------------------------------------------------------------------
_OLD, _NEW = b"old value 1", b"a brand new value"
_SPANNED_OLD, _SPANNED_NEW = b"header:0001:trailer", b"header:0002222:trailer"
_PID_0, _PID_43 = bytes(8), (43).to_bytes(8, "little")


def _update(txn_id: int, prev_lsn: int, op: bytes,
            undo: LogicalUndo | None = None, redo_only: bool = False) -> bytes:
    """The UPDATE of ``op`` on page 42 of index 3, behind page LSN 1000:
    :func:`encode_update`'s bytes, which must be the reference's too."""
    encoding = encode_update(txn_id, prev_lsn, 42, 1000, 3, op, undo,
                             redo_only)
    assert record_reference.update(txn_id, prev_lsn, 42, 1000, 3, op, undo,
                                   redo_only) == encoding
    return encoding


def _listed_rewrite(old: bytes, new: bytes) -> bytes:
    op, before, prefix, suffix = ops.value_rewrite(5, old, new)
    return _update(9, 500, op, LogicalUndo(UndoAction.RESTORE_VALUE,
                                           b"key-1", before, prefix, suffix))


VECTORS = {
    "redo-only rewrite": lambda: _update(
        7, 0, ops.value_rewrite(5, _OLD, _NEW, True)[0], redo_only=True),
    "redo-only spanned rewrite": lambda: _update(
        7, 0, ops.value_rewrite(5, _SPANNED_OLD, _SPANNED_NEW, True)[0],
        redo_only=True),
    "listed rewrite": lambda: _listed_rewrite(_OLD, _NEW),
    "listed spanned rewrite": lambda: _listed_rewrite(_SPANNED_OLD,
                                                      _SPANNED_NEW),
    "redo-only insert": lambda: _update(
        11, 0, ops.insert(7, b"key-2", b"v" * 100), redo_only=True),
    "listed insert": lambda: _update(
        12, 600, ops.insert(7, b"key-2", b"value"),
        LogicalUndo(UndoAction.DELETE_KEY, b"key-2")),
    "ghost mark": lambda: _update(
        13, 700, ops.set_ghost(7, False, True),
        LogicalUndo(UndoAction.INSERT_KEY, b"key-2", b"value")),
    "leaf run": lambda: _update(
        14, 750, ops.bulk_insert(4, ((b"1", b"one", False),
                                     (b"2", b"two", False))),
        LogicalUndo(UndoAction.DELETE_KEYS, b"k1", keys=(b"k1", b"k2"))),
    "split source": lambda: _update(15, 800, ops.sequence((
        ops.bulk_delete(10, 6), ops.delete(2, b"", _PID_0, True),
        ops.insert(2, b"sep", _PID_43, True)))),
    "format": lambda: format_page(16, 0, 43, 3,
                                  ops.init_slotted(PageType.BTREE_LEAF)),
    "compensation": lambda: clr(
        17, 900, 42, 1100, 3,
        ops.compensation(ops.insert(7, b"key-2", b"value")), 600),
    "wide update": lambda: _update(
        2**33, 2**32 + 5, ops.insert(7, b"key-2", b"value"),
        LogicalUndo(UndoAction.DELETE_KEY, b"key-2")),
}

HEX = {
    "redo-only rewrite": (
        "812e0007000000000000002a000000e803000003000916000a0500110061"
        "206272616e64206e65772076616c7565"),
    "redo-only spanned rewrite": (
        "81270007000000000000002a000000e80300000300090f000b05000a0008"
        "000100040032323232"),
    "listed rewrite": (
        "01430009000000f40100002a000000e803000003000723000305000b006f"
        "6c642076616c75652031110061206272616e64206e65772076616c756503"
        "05006b65792d31"),
    "listed spanned rewrite": (
        "01300009000000f40100002a000000e803000003000710000905000a0008"
        "000100310400323232320305006b65792d31"),
    "redo-only insert": (
        "8189000b000000000000002a000000e80300000300097100010700000500"
        "6b65792d3264007676767676767676767676767676767676767676767676"
        "767676767676767676767676767676767676767676767676767676767676"
        "767676767676767676767676767676767676767676767676767676767676"
        "7676767676767676767676767676767676"),
    "listed insert": (
        "0134000c000000580200002a000000e80300000300031200010700000500"
        "6b65792d32050076616c75650105006b65792d320000"),
    "ghost mark": (
        "012c000d000000bc0200002a000000e80300000300030500040700000102"
        "05006b65792d32050076616c7565"),
    "leaf run": (
        "013c000e000000ee0200002a000000e80300000300031900070400020000"
        "000001003103006f6e6500010032030074776f04020002006b3102006b32"),
    "split source": (
        "0143000f000000200300002a000000e80300000300012b000d0300080a00"
        "06000202000100000800000000000000000001020001030073657008002b"
        "00000000000000"),
    "format": "07190010000000000000002b00000000000000030002000603",
    "compensation": (
        "02320011000000840300002a0000004c0400000300580200000000000013"
        "00630107000005006b65792d32050076616c7565"),
    "wide update": (
        "414c000000000000000200000005000000010000002a00000000000000e8"
        "0300000000000003000000000000000312000107000005006b65792d3205"
        "0076616c75650105006b65792d320000"),
}


def test_each_record_shape_writes_its_pinned_bytes():
    for name, build in VECTORS.items():
        encoding = build()
        assert encoding.hex() == HEX[name], name
        assert record_reference.encode(LogRecord.decode(encoding)) == (
            encoding), name
