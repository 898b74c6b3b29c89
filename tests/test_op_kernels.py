"""Differential: the engine applies every page op as the reference does.

:mod:`tests.op_reference` keeps the page ops as objects that decode and
apply themselves.  For every op the round-trip property draws
(:mod:`tests.test_wal_roundtrip_property`: sequences, compensations,
spanned and redo-only rewrites, bulk inserts with ghosts, prefix
extensions, row-free removals), fitted to a small leaf page so that
most of them apply, the engine's redo and undo of the op's bytes
(:func:`_engine_redo`, :func:`_engine_undo`) must leave the page bytes
— its update counter included — the reference leaves, and must refuse,
with a :class:`repro.errors.ReproError`, exactly where the reference
fails.

Hostile bytes: an encoding with a few bytes overwritten.  Where the
reference's decoder refuses it, the engine refuses it typed, redo and
undo alike; where the decoder takes it, the two applies agree again.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogError, ReproError
from repro.page.page import Page, PageType
from repro.page.slotted import SlottedPage
from repro.wal import ops as engine_ops
from repro.wal.ops import compensation, redo
from tests import op_reference as reference
from tests.op_reference import (OpBulkDelete, OpBulkInsert, OpDelete,
                                OpExtendPrefix, OpInsert, OpInverse, OpSequence,
                                OpSetGhost, OpUpdateValue, OpWriteBytes)
from tests.test_wal_roundtrip_property import _redo_only_update_value, any_op

#: what the engine's apply may raise where the reference fails
TYPED = ReproError


def _engine_redo(page: Page, encoded: bytes) -> None:
    redo(page, encoded, 0, len(encoded))


def _engine_undo(page: Page, encoded: bytes) -> None:
    """The undo kernel, as a CLR's redo runs it."""
    clr = compensation(encoded)
    redo(page, clr, 0, len(clr))


_PAGE_SIZE = 2048


def _page(n: int) -> Page:
    """A leaf of ``n`` rows, keys ``key00`` up under a shared ``key``
    and every third a ghost."""
    page = Page.format(_PAGE_SIZE, 1, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    slotted.insert_run(0, tuple((b"key%02d" % i, b"value-%d" % i * (i % 4 + 1),
                                 i % 3 == 0) for i in range(n)))
    return page


def _fit(op, rows: list):  # noqa: ANN001, ANN202
    """``op`` with its slots, counts, stripped bytes, offsets and
    rewritten middles moved onto ``rows`` — the page's (key, value,
    ghost) rows — where a drawn field would miss them."""
    n = len(rows)
    kind = type(op)
    if kind is OpInverse:
        return OpInverse(_fit(op.original, rows))
    if kind is OpSequence:
        return OpSequence(tuple(_fit(member, rows) for member in op.ops))
    if kind is OpInsert:
        return dataclasses.replace(op, slot=op.slot % (n + 1))
    if kind is OpBulkInsert:
        return dataclasses.replace(op, slot=op.slot % (n + 1))
    if not n or not hasattr(op, "slot"):  # no row to aim at, or no slot
        return op
    slot = op.slot % n
    if kind in (OpDelete, OpSetGhost):
        return dataclasses.replace(op, slot=slot)
    if kind in (OpBulkDelete, OpExtendPrefix):
        count = 1 + op.count % (n - slot)
        if kind is OpBulkDelete:
            return OpBulkDelete(slot, count)
        stripped = (b"key"[:1 + len(op.stripped) % 3] if op.stripped[0] % 2
                    else op.stripped)
        return OpExtendPrefix(slot, count, stripped)
    if kind is OpUpdateValue and (op.prefix or op.suffix):
        value = rows[slot][1]
        prefix = op.prefix % (len(value) + 1)
        suffix = op.suffix % (len(value) - prefix + 1)
        if not prefix + suffix:
            return dataclasses.replace(op, slot=slot)
        middle = value[prefix:len(value) - suffix]
        if op.old_value is None:
            return OpUpdateValue(slot, None, op.new_value, prefix, suffix,
                                 len(middle))
        return OpUpdateValue(slot, middle, op.new_value, prefix, suffix)
    return dataclasses.replace(op, slot=slot)


def _outcome(apply, page: Page, encoded: bytes, typed=Exception):  # noqa: ANN001, ANN202
    """The page bytes ``apply`` leaves on a copy of ``page``, or None
    where it raises (which must be ``typed``)."""
    copy = page.copy()
    try:
        apply(copy, encoded)
    except Exception as exc:  # noqa: BLE001
        assert isinstance(exc, typed), f"{type(exc).__name__}: {exc}"
        return None
    return bytes(copy.data)


def _reference_redo(page: Page, encoded: bytes) -> None:
    reference.decode(encoded).apply_redo(page)


def _reference_undo(page: Page, encoded: bytes) -> None:
    reference.decode(encoded).apply_undo(page)


def _writes_bytes(op) -> bool:  # noqa: ANN001
    """Is the reference op ``op``, or one it holds, a byte-range write
    (op kind 5), which the reference still applies and the engine has
    no kernel for?"""
    if type(op) is OpInverse:
        return _writes_bytes(op.original)
    if type(op) is OpSequence:
        return any(_writes_bytes(member) for member in op.ops)
    return type(op) is OpWriteBytes


def _expected(apply, page: Page, encoded: bytes) -> bytes | None:  # noqa: ANN001
    """The reference's outcome, but None where the op is or holds a
    byte-range write (op kind 5: the engine refuses it as unknown)."""
    if _writes_bytes(reference.decode(encoded)):
        return None
    return _outcome(apply, page, encoded)


def _agree(page: Page, encoded: bytes) -> None:
    """Redo, then undo on the redone page, as the reference does."""
    expected = _expected(_reference_redo, page, encoded)
    assert _outcome(_engine_redo, page, encoded, TYPED) == expected
    if expected is not None:
        page = Page(page.size, expected)
    assert (_outcome(_engine_undo, page, encoded, TYPED)
            == _expected(_reference_undo, page, encoded))


def test_the_byte_range_op_is_an_unknown_kind():
    """Op kind 5, the byte-range write no engine path wrote, has no
    builder and no kernel: its bytes — within the page or past its end,
    of equal lengths or not, bare, compensated (a CLR's op) or a member
    of a sequence — are refused as an unknown kind before a byte of the
    page moves, redo and undo alike."""
    assert not hasattr(engine_ops, "write_bytes")
    assert 5 not in engine_ops.REDO and 5 not in engine_ops.UNDO
    page = _page(3)
    ghost = OpSetGhost(0, False, True).encode()
    writes = [OpWriteBytes(offset, bytes(length), b"\1" * length).encode()
              for offset, length in ((64, 4), (100, 4), (2046, 2),
                                     (2047, 2), (2048, 1), (4000, 0))]
    # old and new bytes of unequal lengths
    writes.append(bytes([5, 0, 0, 2, 0]) + b"ab" + bytes([3, 0]) + b"abc")
    for write in writes:
        run = engine_ops.sequence([write, ghost])
        for op, applies in ((write, (_engine_redo, _engine_undo)),
                            (run, (_engine_redo, _engine_undo)),
                            (compensation(write), (_engine_redo,)),
                            (compensation(run), (_engine_redo,))):
            for apply in applies:
                copy = page.copy()
                with pytest.raises(LogError, match="kind 5"):
                    apply(copy, op)
                assert copy.data == page.data
        # A member after the first: the sequence is refused there, and a
        # caller drops the page (``repro.wal.ops.redo``).
        with pytest.raises(LogError, match="kind 5"):
            _engine_redo(page.copy(), engine_ops.sequence([ghost, write]))


ops = st.one_of(any_op, _redo_only_update_value())


@settings(max_examples=400, deadline=None)
@given(op=ops, n=st.integers(min_value=0, max_value=12),
       fitted=st.booleans())
def test_every_op_applies_as_the_reference_applies_it(op, n, fitted):
    page = _page(n)
    if fitted:
        op = _fit(op, list(SlottedPage(page).rows(0)))
    _agree(page, op.encode())


@settings(max_examples=400, deadline=None)
@given(op=ops, n=st.integers(min_value=0, max_value=12),
       edits=st.lists(st.tuples(st.integers(min_value=0, max_value=2**16),
                                st.integers(min_value=0, max_value=255)),
                      min_size=1, max_size=3))
def test_hostile_op_bytes_fail_typed_where_the_reference_refuses(op, n,
                                                                   edits):
    page = _page(n)
    raw = bytearray(_fit(op, list(SlottedPage(page).rows(0))).encode())
    for at, byte in edits:
        raw[at % len(raw)] = byte
    raw = bytes(raw)
    try:
        size = reference.decode(raw).encoded_size()
    except LogError:
        assert _outcome(_engine_redo, page, raw, TYPED) is None
        assert _outcome(_engine_undo, page, raw, TYPED) is None
        return
    _agree(page, raw[:size])


def test_the_fitted_ops_mostly_apply():
    """The fitting is what makes the differential compare pages rather
    than refusals: most fitted ops apply."""
    applied = []

    @settings(max_examples=200, deadline=None, database=None)
    @given(op=ops, n=st.integers(min_value=1, max_value=12))
    def count(op, n):  # noqa: ANN001, ANN202
        page = _page(n)
        encoded = _fit(op, list(SlottedPage(page).rows(0))).encode()
        applied.append(_outcome(_reference_redo, page, encoded) is not None)

    count()
    assert sum(applied) > len(applied) // 2
