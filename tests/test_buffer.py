"""Unit tests: buffer pool, eviction, and the Figure-11 write-back order."""

import pytest

from repro.buffer.buffer_pool import BufferPool, Frame
from repro.buffer.eviction import ClockEviction
from repro.errors import BufferPoolError
from repro.page.page import Page, PageType
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.txn.manager import TransactionManager
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import OpInsert

PAGE_SIZE = 512


@pytest.fixture
def rig():
    clock = SimClock()
    stats = Stats()
    device = StorageDevice("d", PAGE_SIZE, 64, clock, NULL_PROFILE, stats)
    log = LogManager(clock, NULL_PROFILE, stats)
    tm = TransactionManager(log, stats)
    events: list[tuple[str, int]] = []
    pool = BufferPool(
        device, log, stats, capacity=4,
        on_page_cleaned=lambda page: events.append(("cleaned", page.page_id)),
        on_before_write=lambda page: events.append(("pre-write", page.page_id)))
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
        """pre-write hook, then device write, then cleaned hook."""
        pool, _device, _log, tm, _stats, events = rig
        page = pool.fix(2)
        txn = tm.begin()
        lsn = tm.log_update(txn, page, 1, OpInsert(0, b"a", b"1"))
        pool.mark_dirty(2, lsn)
        pool.flush_page(2)
        assert events == [("pre-write", 2), ("cleaned", 2)]
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
        assert ("cleaned", 2) in events
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

    def test_drop_all(self, rig):
        pool, *_ = rig
        pool.fix(1)
        pool.unfix(1)
        pool.drop_all()
        assert len(pool) == 0


class TestPrefetch:
    """The pool's speculative-fetch path (PR 9): split demand/prefetch
    counters, hit/waste accounting, bounds, quota, and the clean-
    unpinned-victims-only room-making rule."""

    def test_split_counters_demand_vs_prefetch(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        assert pool.prefetch(1)
        pool.fix(2)
        pool.unfix(2)
        assert stats.get("fetch_prefetch") == 1
        assert stats.get("fetch_demand") == 1
        # A speculative fetch is not a demand miss.
        assert stats.get("buffer_misses") == 1

    def test_demand_hit_on_prefetched_frame_counts_once(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        pool.prefetch(1)
        pool.fix(1)
        pool.fix(1)
        assert stats.get("prefetch_hits") == 1  # only the first hit
        assert stats.get("buffer_hits") == 2
        pool.unfix(1)
        pool.unfix(1)
        # The frame graduated to the demand working set: evicting it
        # later is not waste.
        pool.evict(1)
        assert stats.get("prefetch_wasted") == 0

    def test_eviction_of_unused_prefetch_counts_wasted(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        pool.prefetch(1)
        pool.evict(1)
        pool.prefetch(2)
        pool.drop_frame(2)
        pool.prefetch(3)
        pool.drop_all()  # the crash path
        assert stats.get("prefetch_wasted") == 3
        assert stats.get("fetch_prefetch") == 3

    def test_bounds_refused_and_counted(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        pool.prefetch_floor = 2
        pool.page_bound = lambda: 6
        assert not pool.prefetch(1)
        assert not pool.prefetch(6)
        assert pool.prefetch(2)
        assert stats.get("prefetch_skipped_bounds") == 2
        assert not pool.resident(1) and not pool.resident(6)

    def test_resident_page_not_refetched(self, rig):
        pool, _device, _log, _tm, stats, _events = rig
        pool.fix(1)
        pool.unfix(1)
        assert not pool.prefetch(1)
        assert stats.get("prefetch_skipped_quota") == 0
        assert stats.get("prefetch_skipped_resident") == 1
        assert stats.get("fetch_prefetch") == 0

    def test_quota_caps_speculative_residency(self, rig):
        pool, *_ = rig
        stats = pool.stats
        assert pool.prefetch_quota == 1  # capacity 4 -> one frame
        assert pool.prefetch(1)
        assert not pool.prefetch(2)
        assert stats.get("prefetch_skipped_quota") == 1
        # A demand hit converts the frame: quota frees up.
        pool.fix(1)
        pool.unfix(1)
        assert pool.prefetch(2)

    def test_full_pool_of_pinned_or_dirty_declines(self, rig):
        pool, _device, _log, tm, stats, _events = rig
        txn = tm.begin()
        for page_id in (0, 1, 2):
            pool.fix(page_id)  # stays pinned
        page = pool.fix(3)
        lsn = tm.log_update(txn, page, 1, OpInsert(0, b"a", b"1"))
        pool.mark_dirty(3, lsn)
        pool.unfix(3)  # unpinned but dirty
        writes_before = stats.get("pages_written_back")
        assert not pool.prefetch(5)
        assert stats.get("prefetch_skipped_full") == 1
        # Nothing displaced, nothing flushed.
        for page_id in (0, 1, 2, 3):
            assert pool.resident(page_id)
        assert pool.is_dirty(3)
        assert stats.get("pages_written_back") == writes_before

    def test_makes_room_from_clean_unpinned_victim_only(self, rig):
        pool, *_ = rig
        for page_id in (0, 1, 2):
            pool.fix(page_id)  # pinned
        pool.fix(3)
        pool.unfix(3)  # the one clean, unpinned frame
        assert pool.prefetch(5)
        assert not pool.resident(3)  # the clean victim went
        for page_id in (0, 1, 2):
            assert pool.resident(page_id)
        assert pool.resident(5)
        assert pool.pin_count(5) == 0  # speculative frames sit unpinned

    def test_fetch_error_swallowed_and_counted(self, rig):
        pool, *_ = rig
        stats = pool.stats
        inner = pool.fetcher

        def failing_fetch(page_id):
            if page_id == 5:
                raise BufferPoolError("speculative read failed")
            return inner(page_id)

        pool.fetcher = failing_fetch
        assert not pool.prefetch(5)
        assert stats.get("prefetch_errors") == 1
        assert not pool.resident(5)  # no poisoned placeholder left
        pool.fetcher = inner
        assert pool.fix(5).page_id == 5  # demand path unaffected
        pool.unfix(5)


def admit(policy: ClockEviction, frames: dict, *page_ids: int) -> None:
    for page_id in page_ids:
        frames[page_id] = Frame(None)  # a new frame carries the bit
        policy.admitted(page_id)


class TestClockEviction:
    """The policy sweeps the pool's frames: pins, dirt and the reference
    bit are read off (and the bit cleared on) the frame itself."""

    def test_second_chance(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2, 3)
        # All have the reference bit; first sweep clears, second picks 1.
        assert policy.choose_victim(frames) == 1

    def test_touched_pages_survive_longer(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2, 3)
        policy.choose_victim(frames)  # clears bits, picks 1
        frames[2].referenced = True  # what a demand hit does
        assert policy.choose_victim(frames) == 3  # 2 got a second chance

    def test_removed_keeps_ring_consistent(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2, 3, 4)
        del frames[2]
        policy.removed(2)
        assert set(policy.pages()) == {1, 3, 4}
        assert policy.choose_victim(frames) in {1, 3, 4}

    def test_no_evictable_returns_none(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1)
        frames[1].pin_count = 1
        assert policy.choose_victim(frames) is None

    def test_clean_only_passes_over_dirty_frames(self):
        policy, frames = ClockEviction(), {}
        admit(policy, frames, 1, 2)
        frames[1].dirty = True
        assert policy.choose_victim(frames, clean_only=True) == 2
        frames[2].dirty = True
        assert policy.choose_victim(frames, clean_only=True) is None
        assert policy.choose_victim(frames) in {1, 2}  # dirt is no pin

    #: The victims of :meth:`test_replayed_script_picks_the_parents_victims`
    #: under the policy of commit 3041322 (reference bits in a dict of its
    #: own, evictability as a callable), recorded there.
    PARENT_VICTIMS = [
        0, 1, 2, 4, 5, 6, 7, 3, 10, 11, 13, 15, 18, 16, 21, 22, 23, 24, 25,
        26, 27, 29, 28, 30, 33, 32, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43,
        44, 45, 20, 46, 47, 49, 50, 51, 52, 53, 54, 55, 58, 59, 60, 64, 65,
        66, 61, 67, 69, 73, 14, 70, 77, 19, 63, 75, 76, 17, 56, 74, 79, 80,
        81, 82, 48, 83, 84, 85, 86, 87, 88, 90, 89, 91]

    def test_replayed_script_picks_the_parents_victims(self):
        """A seeded script of admissions, touches, pins, dirtyings,
        drops and demand / clean-only evictions: same ring order, same
        second-chance rule, same fallback sweep, so the same victims."""
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
                victim = policy.choose_victim(frames, clean_only=roll > 0.94)
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
