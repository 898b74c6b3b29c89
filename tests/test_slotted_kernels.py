"""The slotted-page mutators against the compositions they replaced.

``SlottedPage.insert``, ``remove``, ``insert_run``, ``remove_run``,
``reprefix_run`` and ``compact`` are single-pass kernels over the page
bytes: one header read, one header write, rows carried as ``(key,
value, ghost)`` tuples.  The reference below is what they were before —
record objects, one header property per field, a prefix re-encoding
spelled as ``remove_run`` + ``compact`` + ``insert_run`` — copied as
plain functions over the page bytes.  On random slotted pages (ghost
rows, fragmentation, near-full pages, runs at and below the last slot,
sizes that force compaction) each kernel must leave the reference's
bytes, or refuse as the reference does with the page untouched.

The one difference is a fix: a prefix re-encoding that does not fit
used to raise only after dropping its run, so the page lost the rows;
it now refuses before a byte moves (the reference's half-done page is
not compared then).
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecoveryError
from repro.page.page import HEADER_SIZE, Page, PageType
from repro.page.slotted import PageFullError, Record, SlottedPage, update_value
from repro.wal.ops import extend_prefix
from tests.conftest import apply_undo

_HEAP_START = HEADER_SIZE + 8
_GHOST = 0x8000
_MASK = 0x7FFF


# ----------------------------------------------------------------------
# The reference: the mutators as they were, over the raw bytes
# ----------------------------------------------------------------------
def _counts(page: Page) -> tuple[int, int, int]:
    return struct.unpack_from("<HHH", page.data, HEADER_SIZE)


def _set(page: Page, field: int, value: int) -> None:
    struct.pack_into("<H", page.data, HEADER_SIZE + 2 * field, value)


def _slot(page: Page, index: int) -> tuple[int, int, bool]:
    offset, flags = struct.unpack_from("<HH", page.data,
                                       page.size - (index + 1) * 4)
    return offset, flags & _MASK, bool(flags & _GHOST)


def _write_slot(page: Page, index: int, offset: int, length: int,
                ghost: bool) -> None:
    struct.pack_into("<HH", page.data, page.size - (index + 1) * 4, offset,
                     length | (_GHOST if ghost else 0))


def _row(page: Page, index: int) -> tuple[bytes, bytes, bool]:
    offset, length, ghost = _slot(page, index)
    data = page.data
    key_end = offset + 2 + struct.unpack_from("<H", data, offset)[0]
    return (bytes(data[offset + 2:key_end]),
            bytes(data[key_end:offset + length]), ghost)


def _append(page: Page, row) -> int:  # noqa: ANN001
    key, value, _ghost = row
    offset = _counts(page)[1]
    data = page.data
    struct.pack_into("<H", data, offset, len(key))
    data[offset + 2:offset + 2 + len(key)] = key
    data[offset + 2 + len(key):offset + 2 + len(key) + len(value)] = value
    _set(page, 1, offset + 2 + len(key) + len(value))
    return offset


def ref_compact(page: Page) -> None:
    live = []
    for i in range(_counts(page)[0]):
        offset, length, _ghost = _slot(page, i)
        if offset or length:
            live.append((i, _row(page, i)))
    _set(page, 1, _HEAP_START)
    _set(page, 2, 0)
    for index, row in live:
        offset = _append(page, row)
        _write_slot(page, index, offset, 2 + len(row[0]) + len(row[1]),
                    row[2])


def _free(page: Page) -> int:
    count, heap_end, _frag = _counts(page)
    return page.size - count * 4 - heap_end


def ref_insert(page: Page, index: int, row) -> None:  # noqa: ANN001
    if not 0 <= index <= _counts(page)[0]:
        raise IndexError(index)
    needed = 2 + len(row[0]) + len(row[1]) + 4
    if _free(page) < needed:
        if _free(page) + _counts(page)[2] >= needed:
            ref_compact(page)
        if _free(page) < needed:
            raise PageFullError(needed)
    offset = _append(page, row)
    count = _counts(page)[0]
    if count > index:
        data = page.data
        start, end = page.size - count * 4, page.size - index * 4
        data[start - 4:end - 4] = data[start:end]
    _set(page, 0, count + 1)
    _write_slot(page, index, offset, needed - 4, row[2])


def ref_remove(page: Page, index: int) -> None:
    count = _counts(page)[0]
    if not 0 <= index < count:
        raise IndexError(index)
    _offset, length, _ghost = _slot(page, index)
    _set(page, 2, _counts(page)[2] + length)
    if index < count - 1:
        data = page.data
        start, end = page.size - count * 4, page.size - (index + 1) * 4
        data[start + 4:end + 4] = data[start:end]
    _set(page, 0, count - 1)


def ref_insert_run(page: Page, index: int, rows: list) -> None:
    n = len(rows)
    if n == 0:
        return
    if n == 1:
        ref_insert(page, index, rows[0])
        return
    count, heap_end, frag = _counts(page)
    if not 0 <= index <= count:
        raise IndexError(index)
    needed = sum(2 + len(k) + len(v) for k, v, _g in rows) + 4 * n
    free = page.size - count * 4 - heap_end
    if free < needed:
        if free + frag >= needed:
            ref_compact(page)
            heap_end = _counts(page)[1]
            free = page.size - count * 4 - heap_end
        if free < needed:
            raise PageFullError(needed)
    data = page.data
    if count > index:
        start, end = page.size - count * 4, page.size - index * 4
        data[start - 4 * n:end - 4 * n] = data[start:end]
    _set(page, 0, count + n)
    for i, row in enumerate(rows):
        offset = _append(page, row)
        _write_slot(page, index + i, offset, 2 + len(row[0]) + len(row[1]),
                    row[2])


def ref_remove_run(page: Page, index: int, n: int) -> None:
    if n == 0:
        return
    count = _counts(page)[0]
    if n < 0 or not 0 <= index <= count - n:
        raise IndexError(index)
    freed = sum(_slot(page, i)[1] for i in range(index, index + n))
    _set(page, 2, _counts(page)[2] + freed)
    if index + n < count:
        data = page.data
        start, end = page.size - count * 4, page.size - (index + n) * 4
        data[start + 4 * n:end + 4 * n] = data[start:end]
    _set(page, 0, count - n)


def ref_reprefix_run(page: Page, index: int, n: int, old: bytes,
                     new: bytes) -> None:
    if not 0 <= index <= _counts(page)[0] - n:
        raise RecoveryError(index)
    rows = []
    for i in range(index, index + n):
        key, value, ghost = _row(page, i)
        if key[:len(old)] != old:
            raise RecoveryError(key)
        rows.append((new + key[len(old):], value, ghost))
    ref_remove_run(page, index, n)
    ref_insert_run(page, index, rows)


# ----------------------------------------------------------------------
# Random pages
# ----------------------------------------------------------------------
_PREFIXES = (b"", b"a", b"ab", b"abc", b"b")
keys = st.builds(bytes.__add__, st.sampled_from(_PREFIXES),
                 st.binary(min_size=0, max_size=6))
rows = st.tuples(keys, st.binary(min_size=0, max_size=120), st.booleans())


@st.composite
def pages(draw) -> Page:  # noqa: ANN001
    """A slotted page built by the reference: rows in random slots,
    usually filled to the brim, then some removed (fragmentation) and
    some rewritten shorter."""
    page = Page.format(draw(st.sampled_from([512, 1024])), 7,
                       PageType.BTREE_LEAF)
    SlottedPage(page).initialize()
    full = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 12)) if not full else 200):
        row = draw(st.tuples(keys, st.binary(max_size=draw(
            st.sampled_from([8, 40, 120]))), st.booleans()))
        try:
            ref_insert(page, draw(st.integers(0, _counts(page)[0])), row)
        except PageFullError:
            break
    for _ in range(draw(st.integers(0, 4))):
        if _counts(page)[0]:
            ref_remove(page, draw(st.integers(0, _counts(page)[0] - 1)))
    for _ in range(draw(st.integers(0, 2))):
        if _counts(page)[0]:
            slot = draw(st.integers(0, _counts(page)[0] - 1))
            value = _row(page, slot)[1]
            update_value(page, slot, value[:len(value) // 2])
    return page


def _differential(page: Page, ours, reference) -> None:  # noqa: ANN001
    """``ours`` on one copy of ``page``, ``reference`` on another: the
    same bytes, or the same refusal with ours leaving the page as it
    was (and the reference too, but for a re-encoding's fixed bug)."""
    before = bytes(page.data)
    mine, theirs = page.copy(), page.copy()
    expected = None
    try:
        reference(theirs)
    except (IndexError, PageFullError, RecoveryError) as exc:
        expected = type(exc)
    if expected is None:
        ours(mine)
        assert bytes(mine.data) == bytes(theirs.data)
        SlottedPage(mine).check_plausible()
        return
    with pytest.raises(expected):
        ours(mine)
    assert bytes(mine.data) == before


@settings(max_examples=150, deadline=None)
@given(page=pages(), data=st.data())
def test_insert_and_remove_match_the_reference(page: Page, data) -> None:  # noqa: ANN001
    count = _counts(page)[0]
    index = data.draw(st.integers(-1, count + 1))
    row = data.draw(st.one_of(
        rows, st.tuples(keys, st.binary(min_size=100, max_size=600),
                        st.booleans())))
    _differential(page, lambda p: SlottedPage(p).insert(index, row),
                  lambda p: ref_insert(p, index, row))
    _differential(page, lambda p: SlottedPage(p).remove(index),
                  lambda p: ref_remove(p, index))
    _differential(page, lambda p: SlottedPage(p).compact(), ref_compact)


@settings(max_examples=150, deadline=None)
@given(page=pages(), data=st.data())
def test_runs_match_the_reference(page: Page, data) -> None:  # noqa: ANN001
    count = _counts(page)[0]
    index = data.draw(st.integers(-1, count + 1))
    run = data.draw(st.lists(rows, max_size=12))
    n = data.draw(st.integers(-1, max(0, count - max(index, 0)) + 1))
    _differential(page, lambda p: SlottedPage(p).insert_run(index, run),
                  lambda p: ref_insert_run(p, index, run))
    _differential(page, lambda p: SlottedPage(p).remove_run(index, n),
                  lambda p: ref_remove_run(p, index, n))


@settings(max_examples=250, deadline=None)
@given(page=pages(), data=st.data())
def test_prefix_re_encodings_match_the_reference(page: Page, data) -> None:  # noqa: ANN001
    count = _counts(page)[0]
    index = data.draw(st.integers(0, count))
    n = data.draw(st.one_of(st.just(count - index),
                            st.integers(0, count - index + 1)))
    old = data.draw(st.sampled_from(_PREFIXES))
    new = data.draw(st.one_of(st.sampled_from(_PREFIXES),
                              st.binary(min_size=0, max_size=64)))
    # both directions: strip ``old`` / put it back
    for strip, put in ((old, new), (new, old)):
        _differential(
            page, lambda p: SlottedPage(p).reprefix_run(index, n, strip, put),
            lambda p: ref_reprefix_run(p, index, n, strip, put))


# ----------------------------------------------------------------------
# The fixed bug: a refused re-encoding leaves the page alone
# ----------------------------------------------------------------------
def _full_page() -> Page:
    page = Page.format(1024, 7, PageType.BTREE_LEAF)
    slotted = SlottedPage(page)
    slotted.initialize()
    i = 0
    while slotted.room_for(Record(b"k%03d" % i, b"v" * 17)):
        slotted.insert(i, Record(b"k%03d" % i, b"v" * 17))
        i += 1
    assert i == 36
    return page


def test_a_re_encoding_that_does_not_fit_leaves_the_page_alone():
    page = _full_page()
    before = bytes(page.data)
    with pytest.raises(PageFullError):
        SlottedPage(page).reprefix_run(0, 36, b"", b"X" * 10)
    assert bytes(page.data) == before
    assert SlottedPage(page).slot_count == 36


def test_an_undone_prefix_extension_that_does_not_fit_leaves_the_page_alone():
    page = _full_page()
    before = bytes(page.data)
    with pytest.raises(PageFullError):
        apply_undo(page, extend_prefix(0, 36, b"X" * 10))
    assert bytes(page.data) == before
