"""The detected read: one inspection, same verdicts, same values.

The fetch path runs one fused in-page inspection
(:func:`repro.page.slotted.inspect_page`), adopts the device's buffer
and decodes the node bookkeeping straight from the slot words.  These
tests pin that to the behaviour it replaced:

* the per-field, per-slot ``verify`` / ``check_plausible`` it replaced
  lives on below as the *reference*, and every mutated page must get the
  same verdict from both — and never an ``IndexError``/``struct.error``;
* checksum values are golden (stored pages must keep verifying);
* the decoded bookkeeping equals the ``read_record`` decode;
* an adopted buffer is the page's own;
* the eviction order of a fixed fix/unfix script is golden.
"""

from __future__ import annotations

import os
import random
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree.node import (SLOT_FOSTER, SLOT_HIGH, SLOT_LOW, BTreeNode,
                              decode_meta, decode_pid)
from repro.btree.verify import verify_tree
from repro.buffer.buffer_pool import BufferPool
from repro.engine.database import Database
from repro.errors import BTreeError, PageFailureKind, SinglePageFailure
from repro.page.checksum import compute_checksum
from repro.page.page import HEADER_SIZE, PAGE_MAGIC, Page, PageType
from repro.page.slotted import (SLOT_SIZE, SLOTTED_HEADER_SIZE, SLOTTED_TYPES,
                                SlottedPage, inspect_page)
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.wal.log_manager import LogManager
from tests.conftest import PAGE_SIZE, fast_config

#: the nightly deep-torture CI job multiplies every hypothesis example
#: budget (TORTURE_EXAMPLES_MULTIPLIER=10); PR runs use the base budget
EXAMPLES = max(1, int(os.environ.get("TORTURE_EXAMPLES_MULTIPLIER", "1")))


# ----------------------------------------------------------------------
# The reference: the detection stack as it was, field by field, slot by
# slot.  Kept so the fused pass always has something to answer to.
# ----------------------------------------------------------------------
def reference_checksum(buf) -> int:  # noqa: ANN001
    view = memoryview(buf)
    crc = zlib.crc32(view[:4])
    crc = zlib.crc32(b"\x00" * 4, crc)
    return zlib.crc32(view[8:], crc) & 0xFFFFFFFF


def reference_verify(data, expected_page_id) -> None:  # noqa: ANN001
    own_id = struct.unpack_from("<q", data, 8)[0]
    page_lsn = struct.unpack_from("<q", data, 16)[0]
    pid_for_error = expected_page_id if expected_page_id is not None else own_id
    if bytes(data[:4]) != PAGE_MAGIC:
        raise SinglePageFailure(pid_for_error, PageFailureKind.BAD_MAGIC,
                                f"magic={bytes(data[:4])!r}")
    if int.from_bytes(data[4:8], "little") != reference_checksum(data):
        raise SinglePageFailure(pid_for_error, PageFailureKind.CHECKSUM_MISMATCH)
    try:
        PageType(data[24])
    except ValueError:
        raise SinglePageFailure(
            pid_for_error, PageFailureKind.HEADER_IMPLAUSIBLE,
            f"unknown page type {data[24]}") from None
    if page_lsn < 0:
        raise SinglePageFailure(pid_for_error, PageFailureKind.HEADER_IMPLAUSIBLE,
                                f"negative PageLSN {page_lsn}")
    if expected_page_id is not None and own_id != expected_page_id:
        raise SinglePageFailure(
            expected_page_id, PageFailureKind.WRONG_PAGE_ID,
            f"page claims to be {own_id}")


def reference_check_plausible(data) -> None:  # noqa: ANN001
    size = len(data)
    pid = struct.unpack_from("<q", data, 8)[0]
    heap_start = HEADER_SIZE + SLOTTED_HEADER_SIZE
    count, heap_end = struct.unpack_from("<HH", data, HEADER_SIZE)
    if heap_end < heap_start or heap_end > size:
        raise SinglePageFailure(pid, PageFailureKind.HEADER_IMPLAUSIBLE,
                                f"heap_end {heap_end} out of range")
    if count * SLOT_SIZE > size - heap_start:
        raise SinglePageFailure(pid, PageFailureKind.HEADER_IMPLAUSIBLE,
                                f"slot count {count} impossible")
    if heap_end > size - count * SLOT_SIZE:
        raise SinglePageFailure(pid, PageFailureKind.HEADER_IMPLAUSIBLE,
                                "heap overlaps slot directory")
    for i in range(count):
        offset, length_flags = struct.unpack_from(
            "<HH", data, size - (i + 1) * SLOT_SIZE)
        length = length_flags & 0x7FFF
        if offset < heap_start or offset + length > heap_end:
            raise SinglePageFailure(
                pid, PageFailureKind.HEADER_IMPLAUSIBLE,
                f"slot {i} points outside heap ({offset}, len {length})")
        if length < 2:
            raise SinglePageFailure(pid, PageFailureKind.HEADER_IMPLAUSIBLE,
                                    f"slot {i} record too short")
        key_len = struct.unpack_from("<H", data, offset)[0]
        if 2 + key_len > length:
            raise SinglePageFailure(
                pid, PageFailureKind.HEADER_IMPLAUSIBLE,
                f"slot {i} key length {key_len} exceeds record")


def reference_inspect(data, expected_page_id) -> None:  # noqa: ANN001
    reference_verify(data, expected_page_id)
    if PageType(data[24]) in (PageType.METADATA, PageType.BTREE_BRANCH,
                              PageType.BTREE_LEAF, PageType.HEAP):
        reference_check_plausible(data)


def verdict(check, *args):  # noqa: ANN001, ANN002, ANN201
    """``None`` or ``(kind, page id, detail)``.  Anything that is not a
    typed single-page failure propagates and fails the test."""
    try:
        check(*args)
    except SinglePageFailure as failure:
        return failure.kind, failure.page_id, failure.detail
    return None


def assert_same_verdicts(data: bytearray, expected_page_id: int | None) -> None:
    expected = verdict(reference_inspect, data, expected_page_id)
    assert verdict(inspect_page, data, expected_page_id) == expected
    # The named entry points are the same code, in two halves.
    header = verdict(reference_verify, data, expected_page_id)
    page = Page.adopt(data)
    assert verdict(page.verify, expected_page_id) == header
    if header is None and data[24] in SLOTTED_TYPES:
        assert (verdict(SlottedPage(page).check_plausible)
                == verdict(reference_check_plausible, data))


# ----------------------------------------------------------------------
# A tree with everything in it: splits, adoptions, re-encoded prefixes,
# ghosts, updates that moved records, a grown root
# ----------------------------------------------------------------------
def build_tree(n: int = 2600) -> tuple[Database, object]:
    db = Database(fast_config(capacity_pages=2048, buffer_capacity=48))
    tree = db.create_index()
    rng = random.Random(15)
    keys = [b"author/%04d/%04d/" % (i % 211, i) + b"x" * rng.randrange(0, 24)
            for i in range(n)]
    rng.shuffle(keys)
    txn = db.begin()
    for i, key in enumerate(keys):
        tree.insert(txn, key, b"v" * rng.randrange(8, 200))
        if i % 9 == 0:
            tree.update(txn, keys[rng.randrange(i + 1)],
                        b"w" * rng.randrange(8, 260))
    for key in keys[::11]:
        tree.delete(txn, key)
    db.commit(txn)
    for counter in ("btree_splits", "btree_adoptions", "btree_root_growths"):
        assert db.stats.get(counter) > 0, counter
    return db, tree


@pytest.fixture(scope="module")
def loaded():
    db, tree = build_tree()
    db.checkpoint()
    db.flush_everything()
    db.evict_everything()
    images = {}
    for page_id in range(db.allocated_pages()):
        raw = db.device.raw_image(page_id)
        if raw is not None:
            images[page_id] = bytes(raw)
    kinds = {image[24] for image in images.values()}
    assert {int(PageType.METADATA), int(PageType.BTREE_BRANCH),
            int(PageType.BTREE_LEAF), int(PageType.RECOVERY_INDEX)} <= kinds
    return db, tree, images


def reseal(data: bytearray) -> None:
    data[4:8] = reference_checksum(data).to_bytes(4, "little")


# ----------------------------------------------------------------------
# (a) Detection differential
# ----------------------------------------------------------------------
class TestDetectionDifferential:
    def test_every_stored_page_passes_both(self, loaded):
        _db, _tree, images = loaded
        for page_id, image in images.items():
            data = bytearray(image)
            assert verdict(reference_inspect, data, page_id) is None
            assert_same_verdicts(data, page_id)
            assert_same_verdicts(data, None)

    def test_every_page_every_region_damaged(self, loaded):
        """Deterministic sweep: each page gets one bit flip per region
        (header, slotted header, heap, free space, directory), left as
        is (checksum catches it) and resealed (the deeper tests must)."""
        _db, _tree, images = loaded
        rng = random.Random(4)
        for page_id, image in images.items():
            size = len(image)
            count = struct.unpack_from("<H", image, HEADER_SIZE)[0]
            directory = max(HEADER_SIZE + 8, size - 4 * min(count, 200))
            regions = ((0, 4), (8, 16), (16, 24), (24, 25), (32, 36),
                       (40, size // 2), (size // 2, directory),
                       (directory, size))
            for low, high in regions:
                for sealed in (False, True):
                    data = bytearray(image)
                    data[rng.randrange(low, high)] ^= 1 << rng.randrange(8)
                    if sealed:
                        reseal(data)
                    assert_same_verdicts(data, page_id)

    @settings(max_examples=400 * EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_pages_get_equal_verdicts(self, loaded, data):
        _db, _tree, images = loaded
        page_id = data.draw(st.sampled_from(sorted(images)), label="page")
        image = bytearray(images[page_id])
        size = len(image)
        u16 = st.integers(0, 0xFFFF)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            count, heap_end = struct.unpack_from("<HH", image, HEADER_SIZE)
            count = min(count, (size - 40) // 4)    # may itself be mutated
            edges = st.sampled_from(sorted({
                min(max(edge, 0), 0xFFFF) for edge in
                (0, 1, 2, 3, 39, 40, 41, heap_end - 1, heap_end, heap_end + 1,
                 size - 4 * count, size - 1, size, 0x7FFF, 0x8000, 0x8001,
                 0x8002, 0xFFFF)}))
            kind = data.draw(st.sampled_from(
                ("bits", "header", "slotted_header", "slot_word", "slot_word",
                 "key_len", "torn", "zero_tail", "foreign")), label="kind")
            if kind == "bits":
                for _ in range(data.draw(st.integers(1, 3))):
                    bit = data.draw(st.integers(0, size * 8 - 1))
                    image[bit // 8] ^= 1 << (bit % 8)
            elif kind == "header":
                offset, width = data.draw(st.sampled_from(
                    ((0, 4), (8, 8), (16, 8), (23, 1), (24, 1), (25, 1),
                     (26, 2))))
                image[offset:offset + width] = data.draw(
                    st.binary(min_size=width, max_size=width))
            elif kind == "slotted_header":
                struct.pack_into(
                    "<H", image, HEADER_SIZE + 2 * data.draw(st.integers(0, 2)),
                    data.draw(st.one_of(
                        u16, edges, st.integers((size - 40) // 4 - 2,
                                                (size - 40) // 4 + 2))))
            elif kind == "slot_word":
                # Word 1 is slot 0's length, word 2 its offset, ...
                word = data.draw(st.integers(1, min(2 * count + 2, size // 2)))
                struct.pack_into("<H", image, size - 2 * word,
                                 data.draw(st.one_of(u16, edges)))
            elif kind == "key_len":
                slot = data.draw(st.integers(0, max(count, 1) - 1))
                offset, length = struct.unpack_from(
                    "<HH", image, size - 4 * (slot + 1))
                if offset + 2 <= size:
                    struct.pack_into(
                        "<H", image, offset, data.draw(st.one_of(
                            u16, st.integers(max(0, (length & 0x7FFF) - 4),
                                             (length & 0x7FFF) + 1))))
            elif kind == "torn":
                other = images[data.draw(st.sampled_from(sorted(images)))]
                cut = data.draw(st.integers(1, size - 1))
                image[cut:] = other[cut:]
            elif kind == "zero_tail":
                cut = data.draw(st.integers(0, size - 1))
                image[cut:] = bytes(size - cut)
            else:
                image[:] = images[data.draw(st.sampled_from(sorted(images)))]
        # Mostly resealed and read from where it belongs: a stale
        # checksum or a wrong address would hide the deeper tests.
        if data.draw(st.integers(0, 4), label="reseal"):
            reseal(image)
        expected_id = data.draw(st.sampled_from(
            (page_id, page_id, page_id, None, page_id + 1)), label="expected")
        assert_same_verdicts(image, expected_id)

    @settings(max_examples=300 * EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.large_base_example])
    @given(raw=st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE),
           shape=st.integers(0, 3), page_type=st.integers(0, 7),
           count=st.integers(0, 12), heap_end=st.integers(40, PAGE_SIZE),
           sealed=st.booleans())
    def test_arbitrary_buffers_fail_typed(self, raw, shape, page_type, count,
                                          heap_end, sealed):
        """Hostile bytes of page size: a verdict, never a crash — as
        drawn (shape 0), with a header good enough to reach the type and
        LSN tests (1), and with a slotted header good enough to reach
        the random slot words (2, 3)."""
        data = bytearray(raw)
        if shape >= 1:
            data[:4] = PAGE_MAGIC
            data[24] = page_type
        if shape >= 2:
            data[23] &= 0x7F        # a non-negative PageLSN
            struct.pack_into("<HH", data, HEADER_SIZE, count, heap_end)
        if sealed or shape == 3:
            reseal(data)
        own_id = struct.unpack_from("<q", data, 8)[0]
        for expected_id in (own_id, None, 7):
            assert_same_verdicts(data, expected_id)


# ----------------------------------------------------------------------
# (b) Checksum values are golden
# ----------------------------------------------------------------------
def golden_images() -> list[bytearray]:
    """Fixed buffers: formatted pages of every type and two sizes with
    an arithmetic body, plus buffers that do not start with the magic."""
    out = []
    for i, page_type in enumerate(PageType):
        for size in (512, 4096):
            page = Page.format(size, 1000 + i, page_type)
            page.data[HEADER_SIZE:] = bytes(
                (i * 131 + j * 17 + size) % 251
                for j in range(size - HEADER_SIZE))
            struct.pack_into("<q", page.data, 16, 77 * (i + 1))
            out.append(page.data)
    out.append(bytearray(b"\x01" * 64))
    out.append(bytearray(bytes(range(256)) * 4))
    out.append(bytearray(4096))
    return out


#: compute_checksum of golden_images() at the commit before the fused
#: inspection (544f499): stored pages must keep verifying.
GOLDEN_CHECKSUMS = [
    0x90E40003, 0xF35995C2, 0x723F378D, 0xDC55AF1D, 0x519703E5, 0x6B4DF39D,
    0x0A40CB65, 0x9E7916EC, 0x66678E5E, 0xEE0D25FF, 0x61B88448, 0xDEEFC309,
    0xA92A863D, 0xC41A5E28, 0xFA3F3C26, 0xDD7B12C7, 0xC71C0011,
]


class TestChecksumGolden:
    def test_values_are_the_parents(self):
        images = golden_images()
        assert [compute_checksum(image) for image in images] == GOLDEN_CHECKSUMS
        assert [compute_checksum(memoryview(image)) for image in images] \
            == GOLDEN_CHECKSUMS
        assert [compute_checksum(bytes(image)) for image in images] \
            == GOLDEN_CHECKSUMS
        assert [reference_checksum(image) for image in images] \
            == GOLDEN_CHECKSUMS

    def test_seal_stores_the_same_values(self):
        for image, golden in zip(golden_images()[:-3], GOLDEN_CHECKSUMS):
            page = Page(len(image), image)
            assert page.seal() == golden
            assert int.from_bytes(page.data[4:8], "little") == golden
            assert page.checksum_ok()
            page.verify()


# ----------------------------------------------------------------------
# (c) Bookkeeping from the slot words == the read_record decode
# ----------------------------------------------------------------------
def record_decode(page: Page) -> tuple:
    slotted = SlottedPage(page)
    low, high, foster = (slotted.read_record(slot)
                         for slot in (SLOT_LOW, SLOT_HIGH, SLOT_FOSTER))
    return (*decode_meta(low.value), low.key, high.key,
            decode_pid(foster.value), foster.key)


def view_fields(page: Page) -> tuple:
    view = BTreeNode(page).view
    return (view.level, view.flags, view.prefix, view.low_fence,
            view.high_fence, view.foster_pid, view.foster_key)


class TestBookkeepingDecode:
    def test_every_node_cold(self, loaded):
        _db, _tree, images = loaded
        nodes = prefixed = fostered = 0
        for image in images.values():
            if image[24] not in (int(PageType.BTREE_BRANCH),
                                 int(PageType.BTREE_LEAF)):
                continue
            page = Page(len(image), image)
            fields = view_fields(page)
            assert fields == record_decode(page)
            assert all(type(field) in (int, bytes) for field in fields)
            nodes += 1
            prefixed += bool(fields[2])
            fostered += fields[5] != 0
        assert nodes > 50 and prefixed > 10

    def test_warm_views_survive_the_write_path(self):
        """verify_node compares the cached view with the records on every
        node, foster chains included, while the tree is still warm."""
        db, tree = build_tree(900)
        report = verify_tree(tree)
        assert report.ok, report.problems[:3]
        txn = db.begin()
        for i in range(300):
            tree.upsert(txn, b"author/%04d/%04d/zz" % (i % 211, i), b"n" * 90)
        db.commit(txn)
        report = verify_tree(tree)
        assert report.ok, report.problems[:3]
        assert report.nodes_verified > 20

    def test_stale_view_is_reported(self):
        db, tree = build_tree(300)
        page = db.pool.fix(db.catalog.get_root(tree.index_id))
        try:
            BTreeNode(page).view.low_fence = b"not the fence"
        finally:
            db.pool.unfix(page.page_id)
        assert any("bookkeeping" in problem
                   for problem in verify_tree(tree).problems)

    @pytest.mark.parametrize("slot, value_bytes", [(SLOT_FOSTER, 7),
                                                   (SLOT_LOW, 3)])
    def test_implausible_bookkeeping_is_a_btree_error(self, loaded, slot,
                                                      value_bytes):
        """Plausible to the slot-directory analysis, useless to the
        tree: a 7-byte foster pid, a metadata blob cut to 3 bytes."""
        _db, _tree, images = loaded
        image = next(img for img in images.values()
                     if img[24] == int(PageType.BTREE_LEAF))
        data = bytearray(image)
        pos = len(data) - SLOT_SIZE * (slot + 1)
        offset, length_flags = struct.unpack_from("<HH", data, pos)
        key_len = struct.unpack_from("<H", data, offset)[0]
        struct.pack_into("<H", data, pos + 2,
                         (2 + key_len + value_bytes) | (length_flags & 0x8000))
        reseal(data)
        assert verdict(inspect_page, data, None) is None
        with pytest.raises(BTreeError):
            BTreeNode(Page.adopt(data))

    def test_implausible_bookkeeping_is_repaired_through_the_tree(self):
        db, tree = build_tree(600)
        db.checkpoint()
        db.flush_everything()
        db.evict_everything()
        leaf = next(pid for pid in range(db.config.data_start,
                                         db.allocated_pages())
                    if (db.device.raw_image(pid) or b"\0" * 25)[24]
                    == int(PageType.BTREE_LEAF))
        data = bytearray(db.device.raw_image(leaf))
        low_fence = record_decode(Page(len(data), data))[3]
        pos = len(data) - SLOT_SIZE * (SLOT_FOSTER + 1)
        length_flags = struct.unpack_from("<H", data, pos + 2)[0]
        struct.pack_into("<H", data, pos + 2, length_flags - 1)
        reseal(data)
        assert verdict(inspect_page, data, leaf) is None
        db.device.write(leaf, data)
        before = db.stats.get("single_page_recoveries")
        list(tree.range_scan(low_fence, None))
        assert db.stats.get("spf[btree-invariant]") == 1
        assert db.stats.get("single_page_recoveries") == before + 1
        assert db.stats.get("escalations_to_media") == 0
        assert verify_tree(tree).ok


# ----------------------------------------------------------------------
# (d) An adopted buffer is the page's own
# ----------------------------------------------------------------------
class TestAdoptedBufferIsPrivate:
    def test_mutating_a_fixed_page_leaves_the_device_alone(self, loaded):
        db, _tree, images = loaded
        page_id = next(pid for pid, image in images.items()
                       if image[24] == int(PageType.BTREE_LEAF))
        db.evict_everything()
        stored = db.device.raw_image(page_id)
        page = db.pool.fix(page_id)
        try:
            assert bytes(page.data) == stored
            page.data[100] ^= 0xFF
            page.data[-1] ^= 0xFF
            assert db.device.raw_image(page_id) == stored == images[page_id]
            assert db.device.read(page_id) == stored
            assert db.device.read(page_id) is not db.device.read(page_id)
        finally:
            page.data[100] ^= 0xFF
            page.data[-1] ^= 0xFF
            db.pool.unfix(page_id)

    def test_adopt_takes_only_a_private_page_sized_bytearray(self):
        raw = bytearray(Page.format(512, 3).data)
        page = Page.adopt(raw)
        assert page.data is raw and page.size == 512 and page.view is None
        assert Page(512, raw).data is not raw
        for bad in (bytes(raw), memoryview(raw), bytearray(16)):
            with pytest.raises(ValueError):
                Page.adopt(bad)


# ----------------------------------------------------------------------
# (e) The victim order of a fixed script is golden
# ----------------------------------------------------------------------
def victim_sequence() -> list[int]:
    clock, stats = SimClock(), Stats()
    device = StorageDevice("d", 512, 64, clock, NULL_PROFILE, stats)
    log = LogManager(clock, NULL_PROFILE, stats)
    pool = BufferPool(device, log, stats, capacity=8)
    for page_id in range(40):
        device.write(page_id, Page.format(512, page_id, PageType.HEAP).data)
    rng = random.Random(7)
    victims: list[int] = []
    held: list[int] = []
    for step in range(600):
        # Skewed accesses: a hot set of 6 pages, a cold tail of 34.
        page_id = (rng.randrange(6) if rng.random() < 0.45
                   else rng.randrange(6, 40))
        before = set(pool.resident_pages())
        page = pool.fix(page_id)
        victims.extend(sorted(before - set(pool.resident_pages())))
        if step % 5 == 0:
            page.page_lsn = step + 1
            pool.mark_dirty(page_id, step + 1)
        if step % 7 == 0 and len(held) < 3:
            held.append(page_id)        # stays pinned for a while
        else:
            pool.unfix(page_id)
        if step % 11 == 0 and held:
            pool.unfix(held.pop(0))
        if step % 97 == 0:
            cold = [pid for pid in pool.resident_pages()
                    if pool.pin_count(pid) == 0]
            if cold:
                pool.drop_frame(cold[-1])   # a removal the sweep did not choose
    return victims


#: victim_sequence() at the commit before the eviction path was
#: tightened (544f499): 388 victims, the first 24 and a CRC of them all.
GOLDEN_VICTIMS_HEAD = [0, 4, 9, 31, 25, 17, 29, 5, 0, 33, 35, 21,
                       1, 2, 24, 10, 3, 5, 37, 26, 2, 35, 0, 36]
GOLDEN_VICTIMS_CRC = 0xF45E17C5


class TestEvictionOrder:
    def test_victim_sequence_is_the_parents(self):
        victims = victim_sequence()
        assert victims[:24] == GOLDEN_VICTIMS_HEAD
        assert len(victims) == 388
        assert zlib.crc32(repr(victims).encode()) == GOLDEN_VICTIMS_CRC
