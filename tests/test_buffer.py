"""Unit tests: buffer pool, eviction, and the Figure-11 write-back order."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.buffer_pool import BufferPool, Frame
from repro.buffer.eviction import ClockEviction
from repro.errors import BufferPoolError
from repro.page.page import Page, PageType
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.storage.device import DeviceWriteError, StorageDevice
from repro.txn.manager import TransactionManager
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import OpInsert

PAGE_SIZE = 512
EXAMPLES = max(1, int(os.environ.get("TORTURE_EXAMPLES_MULTIPLIER", "1")))


@pytest.fixture
def rig():
    return make_rig()


def make_rig():
    """A four-frame pool over a device holding formatted pages 0..7;
    ``events`` records the write-back hooks in the order they run (a
    run's ``(page id, PageLSN)`` pairs as a tuple)."""
    clock = SimClock()
    stats = Stats()
    device = StorageDevice("d", PAGE_SIZE, 64, clock, NULL_PROFILE, stats)
    log = LogManager(clock, NULL_PROFILE, stats)
    tm = TransactionManager(log, stats)
    events: list[tuple[str, object]] = []
    pool = BufferPool(
        device, log, stats, capacity=4,
        on_before_write=lambda page: events.append(("pre-write", page.page_id)),
        on_run_cleaned=lambda writes: events.append(("run", tuple(writes))))
    # Pre-populate the device with formatted pages.
    for page_id in range(8):
        page = Page.format(PAGE_SIZE, page_id, PageType.HEAP)
        page.seal()
        device.write(page_id, page.data)
    return pool, device, log, tm, stats, events


class TestFixUnfix:
    def test_fix_reads_once_then_hits(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        pool.fix(1)
        pool.unfix(1)
        pool.fix(1)
        pool.unfix(1)
        assert stats.get("buffer_misses") == 1
        assert stats.get("buffer_hits") == 1

    def test_unfix_without_fix_rejected(self, rig):
        pool, *_ = rig
        with pytest.raises(BufferPoolError):
            pool.unfix(1)

    def test_pin_counts_nest(self, rig):
        pool, *_ = rig
        pool.fix(1)
        pool.fix(1)
        assert pool.pin_count(1) == 2
        pool.unfix(1)
        assert pool.pin_count(1) == 1
        pool.unfix(1)

    def test_fix_new_rejects_duplicate(self, rig):
        pool, *_ = rig
        pool.fix(1)
        with pytest.raises(BufferPoolError):
            pool.fix_new(Page.format(PAGE_SIZE, 1, PageType.HEAP))


class TestHandOverHand:
    """``fix(child, release=parent)``: the pin swap of one descent hop."""

    def test_hit_swaps_both_pins_in_one_mutex_hold(self, rig):
        pool, *_ = rig
        pool.fix(1)
        pool.fix(2)
        pool.unfix(2)  # resident, unpinned: the hit below pins it

        class CountingMutex:
            entries = 0

            def __init__(self, inner):
                self.inner = inner

            def __enter__(self):
                CountingMutex.entries += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        pool._mutex = CountingMutex(pool._mutex)
        assert pool.fix(2, release=1).page_id == 2
        assert CountingMutex.entries == 1
        assert (pool.pin_count(1), pool.pin_count(2)) == (0, 1)
        assert pool.stats.get("buffer_hits") == 1

    def test_miss_keeps_release_pinned_until_the_load_ends(self, rig):
        pool, *_ = rig
        pool.fix(1)
        inner, seen = pool.fetcher, []

        def watching_fetch(page_id):
            seen.append((pool.pin_count(1), pool.pin_count(page_id)))
            return inner(page_id)

        pool.fetcher = watching_fetch
        assert pool.fix(5, release=1).page_id == 5
        assert seen == [(1, 1)]  # the parent and the loader's placeholder
        assert (pool.pin_count(1), pool.pin_count(5)) == (0, 1)

    def test_failed_fetch_withdraws_placeholder_and_releases(self, rig):
        pool, *_ = rig
        pool.fix(1)

        def failing_fetch(page_id):
            raise BufferPoolError("read failed")

        pool.fetcher = failing_fetch
        with pytest.raises(BufferPoolError, match="read failed"):
            pool.fix(5, release=1)
        assert not pool.resident(5) and len(pool) == 1
        assert pool.pin_count(1) == 0

    def test_no_room_releases_too(self, rig):
        pool, *_ = rig
        for page_id in range(4):
            pool.fix(page_id)
        with pytest.raises(BufferPoolError, match="all frames pinned"):
            pool.fix(5, release=1)
        assert [pool.pin_count(p) for p in range(4)] == [1, 0, 1, 1]
        assert not pool.resident(5)

    def test_waiter_keeps_release_pinned_until_the_loader_finishes(self, rig):
        import threading

        pool, *_ = rig
        pool.fix(1)
        started, finish = threading.Event(), threading.Event()
        inner = pool.fetcher

        def slow_fetch(page_id):
            started.set()
            assert finish.wait(5)
            return inner(page_id)

        pool.fetcher = slow_fetch
        loader = threading.Thread(target=pool.fix, args=(5,))
        loader.start()
        assert started.wait(5)
        waiter = threading.Thread(target=pool.fix, args=(5,),
                                  kwargs={"release": 1})
        waiter.start()
        waiter.join(0.05)  # blocked on the loader's frame latch
        assert waiter.is_alive()
        assert pool.pin_count(1) == 1
        finish.set()
        loader.join(5)
        waiter.join(5)
        assert not loader.is_alive() and not waiter.is_alive()
        assert (pool.pin_count(1), pool.pin_count(5)) == (0, 2)

    @pytest.mark.parametrize("child", [2, 5], ids=["hit", "miss"])
    @pytest.mark.parametrize("release", [3, 6], ids=["unpinned", "absent"])
    def test_release_that_is_not_pinned_pins_nothing(self, rig, child,
                                                     release):
        pool, *_ = rig
        for page_id in (2, 3):
            pool.fix(page_id)
            pool.unfix(page_id)
        before = pool.stats.snapshot()
        with pytest.raises(BufferPoolError, match=f"page {release} is not"):
            pool.fix(child, release=release)
        assert pool.resident_pages() == [2, 3] and len(pool) == 2
        assert not any(pool.pin_count(p) for p in (2, 3))
        assert pool.stats.delta(before) == {}


class TestDirtyTracking:
    def test_rec_lsn_is_first_dirtying_lsn(self, rig):
        pool, _device, _log, tm, _stats, _events = rig
        page = pool.fix(2)
        txn = tm.begin()
        first = tm.log_update(txn, page, 1, OpInsert(0, b"a", b"1"))
        pool.mark_dirty(2, first)
        second = tm.log_update(txn, page, 1, OpInsert(1, b"b", b"2"))
        pool.mark_dirty(2, second)
        assert pool.dirty_page_table() == {2: first}
        pool.unfix(2)

    def test_flush_clears_dirty(self, rig):
        pool, _device, _log, tm, _stats, _events = rig
        page = pool.fix(2)
        txn = tm.begin()
        lsn = tm.log_update(txn, page, 1, OpInsert(0, b"a", b"1"))
        pool.mark_dirty(2, lsn)
        assert pool.flush_page(2)
        assert not pool.is_dirty(2)
        assert not pool.flush_page(2)  # already clean
        pool.unfix(2)


class TestWriteBackProtocol:
    def test_wal_rule_forces_log_before_write(self, rig):
        """No page reaches the device before its log records do."""
        pool, _device, log, tm, _stats, _events = rig
        page = pool.fix(2)
        txn = tm.begin()
        lsn = tm.log_update(txn, page, 1, OpInsert(0, b"a", b"1"))
        pool.mark_dirty(2, lsn)
        assert log.durable_lsn <= lsn
        pool.flush_page(2)
        assert log.durable_lsn > lsn
        pool.unfix(2)

    def test_figure_11_hook_order(self, rig):
        """pre-write hook, then device write, then the run's hook — a
        direct flush is a run of one page."""
        pool, device, _log, tm, _stats, events = rig
        page = pool.fix(2)
        txn = tm.begin()
        lsn = tm.log_update(txn, page, 1, OpInsert(0, b"a", b"1"))
        pool.mark_dirty(2, lsn)
        write = device.write

        def logged_write(page_id, data, sequential=False):
            events.append(("write", page_id))
            write(page_id, data, sequential)

        device.write = logged_write
        pool.flush_page(2)
        assert events == [("pre-write", 2), ("write", 2), ("run", ((2, lsn),))]
        pool.unfix(2)

    def test_page_sealed_before_write(self, rig):
        pool, device, _log, tm, _stats, _events = rig
        page = pool.fix(2)
        txn = tm.begin()
        lsn = tm.log_update(txn, page, 1, OpInsert(0, b"a", b"1"))
        pool.mark_dirty(2, lsn)
        pool.flush_page(2)
        pool.unfix(2)
        stored = Page(PAGE_SIZE, device.read(2))
        assert stored.checksum_ok()


class TestEviction:
    def test_capacity_enforced_by_eviction(self, rig):
        pool, *_ = rig
        for page_id in range(6):
            pool.fix(page_id)
            pool.unfix(page_id)
        assert len(pool) <= 4

    def test_pinned_pages_never_evicted(self, rig):
        pool, *_ = rig
        pool.fix(0)
        for page_id in range(1, 6):
            pool.fix(page_id)
            pool.unfix(page_id)
        assert pool.resident(0)
        pool.unfix(0)

    def test_all_pinned_raises(self, rig):
        pool, *_ = rig
        for page_id in range(4):
            pool.fix(page_id)
        with pytest.raises(BufferPoolError):
            pool.fix(5)

    def test_eviction_flushes_dirty_victim(self, rig):
        pool, device, _log, tm, _stats, events = rig
        page = pool.fix(2)
        txn = tm.begin()
        lsn = tm.log_update(txn, page, 1, OpInsert(0, b"zz", b"9"))
        pool.mark_dirty(2, lsn)
        pool.unfix(2)
        for page_id in (3, 4, 5, 6, 7):
            pool.fix(page_id)
            pool.unfix(page_id)
        assert not pool.resident(2)
        assert ("run", ((2, lsn),)) in events
        stored = Page(PAGE_SIZE, device.read(2))
        assert stored.page_lsn == lsn

    def test_drop_frame_discards_without_write(self, rig):
        pool, device, _log, tm, _stats, _events = rig
        page = pool.fix(2)
        txn = tm.begin()
        lsn = tm.log_update(txn, page, 1, OpInsert(0, b"a", b"1"))
        pool.mark_dirty(2, lsn)
        pool.unfix(2)
        pool.drop_frame(2)
        stored = Page(PAGE_SIZE, device.read(2))
        assert stored.page_lsn == NULL_LSN  # never written

    def test_drop_frame_refuses_a_pin(self, rig):
        pool, *_ = rig
        pool.fix(2)
        with pytest.raises(BufferPoolError, match="cannot drop pinned"):
            pool.drop_frame(2)
        assert pool.resident(2) and pool.pin_count(2) == 1
        pool.unfix(2)
        pool.drop_frame(2)
        assert not pool.resident(2)
        assert pool.stats.get("frames_dropped") == 1

    def test_drop_all(self, rig):
        pool, *_ = rig
        pool.fix(1)
        pool.unfix(1)
        pool.drop_all()
        assert len(pool) == 0


def dirty(pool: BufferPool, tm: TransactionManager, page_id: int) -> int:
    """Log one update on the pinned ``page_id`` and mark it dirty."""
    lsn = tm.log_update(tm.begin(), pool.page_if_resident(page_id), 1,
                        OpInsert(0, b"k", b"v"))
    pool.mark_dirty(page_id, lsn)
    return lsn


class TestDemandFetch:
    """Every read is a demand fix: a miss reads the device once and a
    hit never does; the room a fix makes never costs a pin or a dirty
    image; a failed load or a crash leaves no frame half-done."""

    def test_miss_reads_the_device_once_and_a_hit_not_at_all(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        before = stats.snapshot()
        pool.fix(3)
        assert stats.delta(before) == {"buffer_misses": 1, "device_reads": 1,
                                       "device_reads[d]": 1}
        before = stats.snapshot()
        pool.fix(3)
        assert stats.delta(before) == {"buffer_hits": 1}
        pool.unfix(3)
        pool.unfix(3)

    def test_room_from_a_dirty_victim_writes_it_back_first(self, rig):
        """Dirt is no pin: with three frames pinned and the fourth
        dirty, a miss writes the dirty one back and takes its frame."""
        pool, device, _log, tm, stats, events = rig
        for page_id in (0, 1, 2):
            pool.fix(page_id)
        pool.fix(3)
        lsn = dirty(pool, tm, 3)
        pool.unfix(3)
        pool.fix(5)
        assert not pool.resident(3)
        assert stats.get("pages_written_back") == 1
        assert events == [("pre-write", 3), ("run", ((3, lsn),))]
        assert Page(PAGE_SIZE, device.read(3)).page_lsn == lsn
        assert [pool.pin_count(p) for p in (0, 1, 2, 5)] == [1, 1, 1, 1]

    def test_failed_load_leaves_no_frame_and_a_retry_reads_again(self, rig):
        pool, *_ = rig
        stats = pool.stats
        inner = pool.fetcher

        def failing_fetch(page_id):
            raise BufferPoolError("read failed")

        pool.fetcher = failing_fetch
        with pytest.raises(BufferPoolError, match="read failed"):
            pool.fix(5)
        assert not pool.resident(5) and len(pool) == 0
        pool.fetcher = inner
        assert pool.fix(5).page_id == 5
        assert stats.get("buffer_misses") == 2  # each attempt is a miss
        assert pool.pin_count(5) == 1

    def test_redo_on_fix_starts_the_frame_dirty(self, rig):
        """The pending-recovery hook rides the one fetch: a page it
        rolled forward is resident dirty at the returned rec_lsn; one
        it left alone is clean."""
        pool, *_ = rig
        pool.redo_on_fix = lambda page: 7 if page.page_id == 2 else None
        pool.fix(2)
        pool.fix(4)
        assert pool.dirty_page_table() == {2: 7}
        pool.unfix(2)
        pool.unfix(4)

    def test_failed_redo_on_fix_withdraws_the_frame(self, rig):
        pool, *_ = rig

        def failing_redo(page):
            raise RuntimeError("redo failed")

        pool.redo_on_fix = failing_redo
        with pytest.raises(RuntimeError, match="redo failed"):
            pool.fix(2)
        assert not pool.resident(2) and len(pool) == 0
        pool.redo_on_fix = None
        assert pool.fix(2).page_id == 2
        assert not pool.is_dirty(2)
        pool.unfix(2)

    def test_evict_writes_back_only_dirt_and_refuses_pins(self, rig):
        pool, device, _log, tm, stats, _events = rig
        pool.fix(1)
        pool.unfix(1)
        pool.fix(2)
        lsn = dirty(pool, tm, 2)
        with pytest.raises(BufferPoolError, match="cannot evict pinned"):
            pool.evict(2)
        assert pool.resident(2) and pool.pin_count(2) == 1
        pool.unfix(2)
        pool.evict(1)
        assert stats.get("pages_written_back") == 0
        pool.evict(2)
        assert stats.get("pages_written_back") == 1
        assert stats.get("pages_evicted") == 2
        assert Page(PAGE_SIZE, device.read(2)).page_lsn == lsn
        assert len(pool) == 0

    def test_drop_all_discards_dirty_frames_unwritten(self, rig):
        """The crash path: every frame goes, none is written, and the
        emptied pool serves the next fix from the device."""
        pool, device, _log, tm, stats, _events = rig
        for page_id in (1, 2):
            pool.fix(page_id)
        dirty(pool, tm, 2)
        pool.drop_all()
        assert len(pool) == 0 and pool.dirty_page_table() == {}
        assert stats.get("pages_written_back") == 0
        assert Page(PAGE_SIZE, device.read(2)).page_lsn == NULL_LSN
        for page_id in range(4):
            pool.fix(page_id)
            pool.unfix(page_id)
        assert pool.resident_pages() == [0, 1, 2, 3]

    @settings(max_examples=40 * EXAMPLES, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.sampled_from(["fix", "unfix", "write", "flush"]),
                  st.integers(0, 7)),
        max_size=60))
    def test_fix_never_displaces_a_pin_or_loses_dirt(self, steps):
        """Interleave pins, unpins, whole writes (fix, update, unfix)
        and flushes over a tiny pool: across every fix, pinned frames
        keep their pins, a dirty frame leaves only after its image
        reached the device, and capacity holds."""
        pool, device, _log, tm, _stats, _events = make_rig()
        pins: dict[int, int] = {}

        def fix(page_id: int) -> bool:
            # A hit, or a free or unpinned frame to take: the all-pinned
            # error has tests of its own.
            pinned_before = {p: n for p, n in pins.items() if n}
            if (page_id not in pinned_before
                    and len(pinned_before) == pool.capacity):
                return False
            dirty_before = {p: pool.page_if_resident(p).page_lsn
                            for p in pool.dirty_page_table()}
            pool.fix(page_id)
            pins[page_id] = pins.get(page_id, 0) + 1
            for p, n in pinned_before.items():
                assert pool.pin_count(p) == n + (p == page_id)
            for p, lsn in dirty_before.items():
                if not pool.resident(p):
                    assert Page(PAGE_SIZE, device.read(p)).page_lsn == lsn
            return True

        def unfix(page_id: int) -> None:
            pool.unfix(page_id)
            pins[page_id] -= 1

        for op, page_id in steps:
            if op == "fix":
                fix(page_id)
            elif op == "unfix":
                if pins.get(page_id):
                    unfix(page_id)
            elif op == "write":
                if fix(page_id):
                    dirty(pool, tm, page_id)
                    unfix(page_id)
            elif pool.resident(page_id):
                pool.flush_page(page_id)
            assert len(pool) <= pool.capacity


class TestWriteBackRuns:
    """A dirty victim is written back with the dirty frames the sweep
    would evict next: one log force, the pages in ascending id, then one
    ``on_run_cleaned`` naming them all — and a device write that fails
    mid-run leaves the pages written recorded, itself still dirty."""

    def four_dirty(self, pool, tm) -> dict[int, int]:
        """Pages 3, 1, 2, 0 resident, unpinned and dirty; their PageLSNs."""
        lsns = {}
        for page_id in (3, 1, 2, 0):
            pool.fix(page_id)
            lsns[page_id] = dirty(pool, tm, page_id)
            pool.unfix(page_id)
        return lsns

    def test_dirty_victim_cleans_a_run_under_one_force(self, rig):
        pool, device, _log, tm, stats, events = rig
        lsns = self.four_dirty(pool, tm)
        before = stats.snapshot()
        pool.fix(5)
        assert stats.get("log_forces") - before.get("log_forces", 0) == 1
        # The sweep cleared every bit and took page 3; 1, 2, 0 follow it.
        writes = tuple((p, lsns[p]) for p in (0, 1, 2, 3))
        assert events[-1] == ("run", writes)
        assert events[-5:-1] == [("pre-write", p) for p in (0, 1, 2, 3)]
        assert pool.resident_pages() == [0, 1, 2, 5]
        assert pool.dirty_page_table() == {}
        for page_id, lsn in lsns.items():
            assert Page(PAGE_SIZE, device.read(page_id)).page_lsn == lsn
        # The next victims are clean: no write, no record.
        del events[:]
        pool.fix(6)
        pool.fix(7)
        assert events == []
        assert stats.get("pages_written_back") == 4

    def test_pinned_frames_stay_dirty(self, rig):
        pool, _device, _log, tm, _stats, events = rig
        lsns = self.four_dirty(pool, tm)
        pool.fix(2)  # pinned across the miss
        pool.fix(5)
        assert events[-1] == ("run", ((0, lsns[0]), (1, lsns[1]), (3, lsns[3])))
        assert pool.dirty_page_table() == {2: lsns[2]}
        pool.unfix(2)

    def test_direct_flushes_and_sweeps_are_runs(self, rig):
        pool, _device, _log, tm, _stats, events = rig
        lsns = self.four_dirty(pool, tm)
        assert pool.flush_page(1) and events[-1] == ("run", ((1, lsns[1]),))
        assert pool.flush_all() == 3
        assert events[-1] == ("run", tuple((p, lsns[p]) for p in (0, 2, 3)))
        assert pool.flush_all() == 0 and events[-1][0] == "run"
        assert sum(kind == "run" for kind, _ in events) == 2

    @staticmethod
    def fail_writes(device, page_id, error) -> None:
        """Make every device write of ``page_id`` raise ``error``."""
        write = device.write

        def failing_write(target, data, sequential=False):
            if target == page_id:
                raise error
            write(target, data, sequential)

        device.write = failing_write

    def test_error_mid_run_ends_it(self, rig):
        """The pages written before an error are recorded; the frame
        that failed and those after it stay dirty for the next run."""
        pool, device, _log, tm, stats, events = rig
        lsns = self.four_dirty(pool, tm)
        self.fail_writes(device, 2, OSError("device write failed"))
        with pytest.raises(OSError, match="device write failed"):
            pool.flush_all()
        assert events[-1] == ("run", ((0, lsns[0]), (1, lsns[1])))
        assert pool.dirty_page_table() == {2: lsns[2], 3: lsns[3]}
        assert stats.get("pages_written_back") == 2
        del device.write
        assert pool.flush_all() == 2
        assert events[-1] == ("run", ((2, lsns[2]), (3, lsns[3])))

    def test_unwritable_page_mid_run_is_skipped(self, rig):
        """A page the device cannot write even after remaps stays dirty;
        the run writes and records the rest, then raises."""
        pool, device, _log, tm, stats, events = rig
        lsns = self.four_dirty(pool, tm)
        self.fail_writes(device, 1, DeviceWriteError("page 1 unwritable"))
        with pytest.raises(DeviceWriteError):
            pool.flush_all()
        assert events[-1] == ("run", tuple((p, lsns[p]) for p in (0, 2, 3)))
        assert pool.dirty_page_table() == {1: lsns[1]}
        assert stats.get("pages_written_back") == 3

    def test_unwritable_neighbour_does_not_fail_the_miss(self, rig):
        """The victim (page 3) is written and evicted although page 1,
        written before it in the same run, failed; page 1 stays dirty."""
        pool, device, _log, tm, _stats, events = rig
        lsns = self.four_dirty(pool, tm)
        self.fail_writes(device, 1, DeviceWriteError("page 1 unwritable"))
        assert pool.fix(5).page_id == 5
        assert events[-1] == ("run", tuple((p, lsns[p]) for p in (0, 2, 3)))
        assert pool.resident_pages() == [0, 1, 2, 5]
        assert pool.dirty_page_table() == {1: lsns[1]}
        pool.unfix(5)

    def test_unwritable_victim_fails_the_miss(self, rig):
        pool, device, _log, tm, _stats, events = rig
        lsns = self.four_dirty(pool, tm)
        self.fail_writes(device, 3, DeviceWriteError("page 3 unwritable"))
        with pytest.raises(DeviceWriteError):
            pool.fix(5)
        assert events[-1] == ("run", tuple((p, lsns[p]) for p in (0, 1, 2)))
        assert pool.resident_pages() == [0, 1, 2, 3]
        assert pool.dirty_page_table() == {3: lsns[3]}

    def test_write_error_outranks_a_failing_run_hook(self, rig):
        """The run's hook still runs after a failed write; if it raises
        too, the write's error is the one the caller sees."""
        pool, device, _log, tm, _stats, _events = rig
        self.four_dirty(pool, tm)
        self.fail_writes(device, 2, OSError("device write failed"))

        def failing_hook(writes):
            raise RuntimeError("log append failed")

        pool.on_run_cleaned = failing_hook
        with pytest.raises(OSError, match="device write failed"):
            pool.flush_all()


class TestInstall:
    """Pages produced in memory — a fresh allocation, a page a recovery
    drain brought current — take a frame the way a miss does, with no
    device read."""

    def test_fix_new_takes_room_without_a_read(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        for page_id in range(4):
            pool.fix(page_id)
            pool.unfix(page_id)
        before = stats.snapshot()
        page = pool.fix_new(Page.format(PAGE_SIZE, 6, PageType.HEAP))
        assert page.page_id == 6 and pool.pin_count(6) == 1
        assert stats.delta(before) == {"pages_evicted": 1}
        assert len(pool) == 4
        pool.unfix(6)

    def test_adopt_dirty_installs_unpinned_dirty_or_declines(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        pool.fix(1)
        pool.unfix(1)
        page = Page.format(PAGE_SIZE, 5, PageType.HEAP)
        before = stats.snapshot()
        assert pool.adopt_dirty(page, 9)
        assert stats.delta(before) == {}
        assert pool.pin_count(5) == 0
        assert pool.dirty_page_table() == {5: 9}
        # A page that already has a frame is not replaced.
        assert not pool.adopt_dirty(Page.format(PAGE_SIZE, 1, PageType.HEAP),
                                    11)
        assert pool.dirty_page_table() == {5: 9}


def admit(policy: ClockEviction, frames: dict, *page_ids: int) -> None:
    for page_id in page_ids:
        frames[page_id] = Frame(None)  # a new frame carries the bit
        policy.admitted(page_id)


class TestClockEviction:
    """The policy sweeps the pool's frames: pins and the reference bit
    are read off (and the bit cleared on) the frame itself."""

    def test_second_chance(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2, 3)
        # All have the reference bit; first sweep clears, second picks 1.
        assert policy.choose_victim(frames) == 1

    def test_touched_pages_survive_longer(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2, 3)
        policy.choose_victim(frames)  # clears bits, picks 1
        frames[2].referenced = True  # what a hit does
        assert policy.choose_victim(frames) == 3  # 2 got a second chance

    def test_removed_keeps_ring_consistent(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2, 3, 4)
        del frames[2]
        policy.removed(2)
        assert set(policy.pages()) == {1, 3, 4}
        assert policy.choose_victim(frames) in {1, 3, 4}

    def test_dirty_frame_is_a_victim_like_any_other(self):
        """Dirt is no pin: the pool writes a dirty victim back, so the
        policy passes over pins only."""
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2)
        frames[1].dirty = True
        frames[2].pin_count = 1
        assert policy.choose_victim(frames) == 1

    def test_no_evictable_returns_none(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1)
        frames[1].pin_count = 1
        assert policy.choose_victim(frames) is None

    def test_dirty_ahead_is_the_next_dirty_victims_in_sweep_order(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2, 3, 4, 5, 6, 7)
        assert policy.choose_victim(frames) == 1  # every bit now clear
        for page_id in (1, 2, 3, 4, 6, 7):
            frames[page_id].dirty = True
        frames[3].referenced = True  # touched since the sweep passed
        frames[4].pin_count = 1      # pinned (a loading frame is too)
        assert policy.dirty_ahead(frames, 7) == [2, 6, 7]  # never the victim
        assert policy.dirty_ahead(frames, 2) == [2, 6]
        assert frames[3].referenced  # read, not cleared
        # The look-ahead wraps around the ring and stops short of the
        # victim just chosen, dirty or not.
        assert policy.choose_victim(frames) == 2
        assert policy.dirty_ahead(frames, 7) == [6, 7, 1]

    #: The victims of :meth:`test_replayed_script_picks_the_parents_victims`
    #: under the policy of commit 3041322 (reference bits in a dict of its
    #: own, evictability as a callable) agreed with commit 9bcd21d's; the
    #: clean-only evictions the script drew there are gone, so the list
    #: was recorded at 9bcd21d with every eviction a plain one.
    PARENT_VICTIMS = [
        0, 1, 2, 4, 5, 6, 7, 3, 10, 11, 13, 15, 18, 16, 21, 22, 23, 24, 25,
        26, 27, 29, 28, 30, 33, 32, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43,
        44, 45, 20, 46, 47, 49, 50, 51, 52, 53, 54, 55, 58, 59, 60, 64, 65,
        66, 61, 63, 67, 69, 72, 73, 14, 70, 75, 76, 77, 79, 80, 81, 82, 31,
        71, 83, 84, 85, 86, 87, 88, 89, 91, 90, 92, 19]

    def test_replayed_script_picks_the_parents_victims(self):
        """A seeded script of admissions, touches, pins, dirtyings,
        drops and evictions: same ring order, same second-chance rule,
        same fallback sweep, so the same victims (dirt is no pin)."""
        import random

        rng = random.Random(3)
        policy, frames = ClockEviction(), {}
        victims, next_pid = [], 0
        for _ in range(320):
            resident = sorted(frames)
            roll = rng.random()
            if len(resident) < 8 or roll < 0.20:
                admit(policy, frames, next_pid)
                next_pid += 1
            elif roll < 0.50:
                frames[rng.choice(resident)].referenced = True
            elif roll < 0.62:
                frame = frames[rng.choice(resident)]
                frame.pin_count = 0 if frame.pin_count else 1
            elif roll < 0.70:
                frames[rng.choice(resident)].dirty = True
            elif roll < 0.74:
                page_id = rng.choice(resident)
                if not frames[page_id].pin_count:
                    del frames[page_id]
                    policy.removed(page_id)
            else:
                victim = policy.choose_victim(frames)
                victims.append(victim)
                if victim is not None:
                    del frames[victim]
                    policy.removed(victim)
        assert victims == self.PARENT_VICTIMS


class TestEvictionUnderPins:
    """Eviction must skip pinned (and loading) frames and still make
    progress — and when genuinely everything is pinned, fail crisply
    instead of livelocking."""

    def test_eviction_skips_pinned_and_makes_progress(self, rig):
        pool, *_ = rig
        for page_id in (0, 1, 2):  # pin 3 of the 4 frames
            pool.fix(page_id)
        # Fill the last frame and cycle more pages through it: each fix
        # must evict the single unpinned frame, never a pinned one.
        for page_id in (3, 4, 5, 6):
            pool.fix(page_id)
            pool.unfix(page_id)
        assert pool.resident(0) and pool.resident(1) and pool.resident(2)
        assert pool.resident(6)
        assert len(pool) == 4

    def test_all_pinned_raises_instead_of_livelock(self, rig):
        pool, *_ = rig
        for page_id in range(4):
            pool.fix(page_id)
        with pytest.raises(BufferPoolError, match="all frames pinned"):
            pool.fix(5)
        # The failed fix left no placeholder behind: unpinning one
        # frame makes the same fix succeed.
        assert not pool.resident(5)
        pool.unfix(0)
        assert pool.fix(5).page_id == 5

    def test_loading_placeholder_not_evictable(self, rig):
        """A frame whose fetch is still in flight is pinned by its
        loader, so a concurrent fix on another thread evicts around
        it rather than discarding the half-loaded frame."""
        import threading

        pool, device, *_ = rig
        started = threading.Event()
        release = threading.Event()
        inner = pool.fetcher

        def slow_fetch(page_id):
            if page_id == 7:
                started.set()
                release.wait(5)
            return inner(page_id)

        pool.fetcher = slow_fetch
        for page_id in (0, 1, 2):
            pool.fix(page_id)
            pool.unfix(page_id)

        loader = threading.Thread(target=lambda: (pool.fix(7),
                                                  pool.unfix(7)))
        loader.start()
        assert started.wait(5)
        # Pool is full (0,1,2 + loading 7). Fixing another page must
        # evict one of the unpinned frames, not touch the loading one.
        pool.fix(5)
        release.set()
        loader.join(5)
        assert pool.resident(7)
        assert pool.resident(5)
        pool.unfix(5)
        assert len(pool) == 4

    def test_concurrent_fix_unfix_respects_capacity_and_pins(self, rig):
        """Hammer fix/unfix from 6 threads over a 4-frame pool: the
        pool never exceeds capacity, never evicts a pinned frame (no
        exception escapes), and every thread completes — progress."""
        import random
        import threading

        pool, *_ = rig
        errors: list[BaseException] = []

        def worker(worker_id: int) -> None:
            rng = random.Random(worker_id)
            try:
                for _ in range(200):
                    page_id = rng.randrange(8)
                    try:
                        pool.fix(page_id)
                    except BufferPoolError:
                        continue  # transiently all-pinned: acceptable
                    assert len(pool) <= pool.capacity
                    pool.unfix(page_id)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors, errors
        assert len(pool) <= pool.capacity
        for page_id in range(8):
            assert pool.pin_count(page_id) == 0
