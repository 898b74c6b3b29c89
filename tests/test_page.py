"""Unit tests: page format, checksums, slotted pages."""

import pytest

from repro.errors import PageFailureKind, RecoveryError, SinglePageFailure
from repro.page.checksum import compute_checksum, store_checksum, verify_checksum
from repro.page.page import HEADER_SIZE, NULL_LSN, Page, PageType
from repro.page.slotted import PageFullError, Record, SlottedPage

PAGE_SIZE = 1024


def make_slotted(page_id: int = 7) -> tuple[Page, SlottedPage]:
    page = Page.format(PAGE_SIZE, page_id, PageType.HEAP)
    slotted = SlottedPage(page)
    slotted.initialize()
    return page, slotted


class TestChecksum:
    def test_roundtrip(self):
        buf = bytearray(b"\x01" * 64)
        store_checksum(buf)
        assert verify_checksum(buf)

    def test_detects_any_flip(self):
        buf = bytearray(b"\x00" * 64)
        store_checksum(buf)
        for byte in (0, 10, 63):
            corrupted = bytearray(buf)
            corrupted[byte] ^= 0x40
            assert not verify_checksum(corrupted), f"flip at {byte} missed"

    def test_checksum_field_excluded(self):
        """The stored checksum does not feed its own computation."""
        buf = bytearray(b"\x07" * 64)
        crc_before = compute_checksum(buf)
        store_checksum(buf)
        assert compute_checksum(buf) == crc_before


class TestPage:
    def test_format_produces_valid_page(self):
        page = Page.format(PAGE_SIZE, 42, PageType.BTREE_LEAF)
        assert page.page_id == 42
        assert page.page_type == PageType.BTREE_LEAF
        assert page.page_lsn == NULL_LSN
        assert page.checksum_ok()
        page.verify(expected_page_id=42)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            Page(HEADER_SIZE)

    def test_page_lsn_bumps_update_count(self):
        page = Page.format(PAGE_SIZE, 1)
        assert page.update_count == 0
        page.page_lsn = 100
        page.page_lsn = 200
        assert page.update_count == 2
        page.reset_update_count()
        assert page.update_count == 0

    def test_verify_bad_magic(self):
        page = Page.format(PAGE_SIZE, 1)
        page.data[0] = 0
        with pytest.raises(SinglePageFailure) as info:
            page.verify(expected_page_id=1)
        assert info.value.kind == PageFailureKind.BAD_MAGIC

    def test_verify_checksum_mismatch(self):
        page = Page.format(PAGE_SIZE, 1)
        page.data[100] ^= 0xFF
        with pytest.raises(SinglePageFailure) as info:
            page.verify(expected_page_id=1)
        assert info.value.kind == PageFailureKind.CHECKSUM_MISMATCH

    def test_verify_wrong_page_id(self):
        """A misdirected write: internally consistent, wrong address."""
        page = Page.format(PAGE_SIZE, 5)
        with pytest.raises(SinglePageFailure) as info:
            page.verify(expected_page_id=9)
        assert info.value.kind == PageFailureKind.WRONG_PAGE_ID
        assert info.value.page_id == 9

    def test_verify_unknown_page_type(self):
        page = Page.format(PAGE_SIZE, 1)
        page.data[24] = 200
        page.seal()
        with pytest.raises(SinglePageFailure) as info:
            page.verify(expected_page_id=1)
        assert info.value.kind == PageFailureKind.HEADER_IMPLAUSIBLE

    def test_copy_is_deep(self):
        page = Page.format(PAGE_SIZE, 1)
        clone = page.copy()
        clone.data[100] = 0xAB
        assert page.data[100] != 0xAB

    def test_load_image_refuses_an_image_that_is_not_page_sized(self):
        """Full-image redo used to resize the page to whatever it was
        handed; a truncated or oversized image is refused, typed, and
        the page keeps its bytes."""
        page = Page.format(PAGE_SIZE, 1)
        before = bytes(page.data)
        for image in (b"", b"\x00" * 100, b"\x00" * (PAGE_SIZE - 1),
                      b"\x00" * (PAGE_SIZE + 1)):
            with pytest.raises(RecoveryError):
                page.load_image(image)
            assert bytes(page.data) == before and page.size == PAGE_SIZE
        image = Page.format(PAGE_SIZE, 1, PageType.BTREE_LEAF).data
        page.load_image(image)
        assert page.page_type == PageType.BTREE_LEAF


class TestSlottedPage:
    def test_insert_and_read(self):
        _page, slotted = make_slotted()
        slotted.insert(0, Record(b"b", b"2"))
        slotted.insert(0, Record(b"a", b"1"))
        slotted.insert(2, Record(b"c", b"3"))
        assert [r.key for r in slotted.records()] == [b"a", b"b", b"c"]
        assert slotted.read_record(1).value == b"2"

    def test_insert_shifts_slots(self):
        _page, slotted = make_slotted()
        for i, key in enumerate([b"a", b"c", b"d"]):
            slotted.insert(i, Record(key, b"x"))
        slotted.insert(1, Record(b"b", b"x"))
        assert [r.key for r in slotted.records()] == [b"a", b"b", b"c", b"d"]

    def test_record_key_matches_read(self):
        _page, slotted = make_slotted()
        slotted.insert(0, Record(b"key", b"value"))
        assert slotted.record_key(0) == b"key"

    def test_ghost_records_hidden_by_default(self):
        _page, slotted = make_slotted()
        slotted.insert(0, Record(b"a", b"1"))
        slotted.insert(1, Record(b"b", b"2", ghost=True))
        assert [r.key for r in slotted.records()] == [b"a"]
        assert [r.key for r in slotted.records(include_ghosts=True)] == [b"a", b"b"]

    def test_mark_ghost_toggle(self):
        _page, slotted = make_slotted()
        slotted.insert(0, Record(b"a", b"1"))
        slotted.mark_ghost(0, True)
        assert slotted.is_ghost(0)
        slotted.mark_ghost(0, False)
        assert not slotted.is_ghost(0)

    def test_update_value_in_place(self):
        _page, slotted = make_slotted()
        slotted.insert(0, Record(b"a", b"long-original"))
        slotted.update_value(0, b"short")
        assert slotted.read_record(0).value == b"short"
        assert slotted.frag_bytes > 0

    def test_update_value_grow_relocates(self):
        _page, slotted = make_slotted()
        slotted.insert(0, Record(b"a", b"s"))
        slotted.insert(1, Record(b"b", b"t"))
        slotted.update_value(0, b"x" * 100)
        assert slotted.read_record(0).value == b"x" * 100
        assert slotted.read_record(1).value == b"t"
        slotted.check_plausible()

    def test_remove_reclaims_via_compaction(self):
        _page, slotted = make_slotted()
        for i in range(5):
            slotted.insert(i, Record(b"k%d" % i, b"v" * 50))
        free_before = slotted.free_space
        slotted.remove(2)
        assert [r.key for r in slotted.records()] == [b"k0", b"k1", b"k3", b"k4"]
        slotted.compact()
        assert slotted.free_space > free_before
        slotted.check_plausible()

    def test_page_full(self):
        _page, slotted = make_slotted()
        with pytest.raises(PageFullError):
            for i in range(1000):
                slotted.insert(i, Record(b"k%03d" % i, b"v" * 20))
        assert not slotted.room_for(Record(b"x", b"v" * 20))

    def test_compaction_makes_room(self):
        """Fragmented space is reclaimed rather than failing the insert."""
        _page, slotted = make_slotted()
        big = b"v" * 80
        count = 0
        while slotted.room_for(Record(b"k%03d" % count, big)):
            slotted.insert(count, Record(b"k%03d" % count, big))
            count += 1
        # Shrink every record, creating fragmentation only.
        for i in range(count):
            slotted.update_value(i, b"s")
        # Now a large insert must succeed via compaction.
        slotted.insert(count, Record(b"zzz", big))
        assert slotted.read_record(count).key == b"zzz"
        slotted.check_plausible()

    def test_update_too_large_rejected_without_damage(self):
        _page, slotted = make_slotted()
        slotted.insert(0, Record(b"a", b"x"))
        with pytest.raises(PageFullError):
            slotted.update_value(0, b"y" * 5000)
        assert slotted.read_record(0).value == b"x"

    def test_plausibility_catches_bad_slot_offset(self):
        page, slotted = make_slotted()
        slotted.insert(0, Record(b"a", b"1"))
        pos = slotted._slot_pos(0)
        page.data[pos:pos + 2] = (60000).to_bytes(2, "little")
        with pytest.raises(SinglePageFailure) as info:
            slotted.check_plausible()
        assert info.value.kind == PageFailureKind.HEADER_IMPLAUSIBLE

    def test_plausibility_catches_heap_overlap(self):
        page, slotted = make_slotted()
        slotted.insert(0, Record(b"a", b"1"))
        # Claim the heap extends into the slot directory.
        import struct

        struct.pack_into("<H", page.data, 32 + 2, PAGE_SIZE - 1)
        with pytest.raises(SinglePageFailure):
            slotted.check_plausible()

    def test_plausibility_catches_impossible_key_length(self):
        page, slotted = make_slotted()
        slotted.insert(0, Record(b"abc", b"1"))
        offset, _length, _ghost = slotted._read_slot(0)
        page.data[offset:offset + 2] = (5000).to_bytes(2, "little")
        with pytest.raises(SinglePageFailure):
            slotted.check_plausible()
