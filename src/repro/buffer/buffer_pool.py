"""The buffer pool.

Responsibilities:

* page residency and pinning (fix/unfix);
* dirty tracking with ARIES-style recovery LSNs (``rec_lsn`` = LSN of
  the first update that dirtied the frame since it was last clean) —
  the dirty page table for checkpoints comes from here;
* the write-back protocol of Figure 11, for a **run** of dirty pages:

  1. one log force through the run's highest PageLSN (the WAL rule);
  2. per page, in ascending page id: the ``on_before_write`` backup
     hook, seal (checksum), device write, frame clean;
  3. ``on_run_cleaned`` with every ``(page id, PageLSN)`` written — the
     engine's in-memory page recovery index learns each page's new
     on-device PageLSN there, and one PRI update (a system transaction)
     logs them all;
  4. only then may any frame of the run be evicted.

  A miss whose clock victim is dirty writes back the victim plus up to
  :data:`RUN_PAGES` - 1 more dirty, unpinned frames the sweep would
  reach next with their reference bit clear; those leave clean, so the
  misses after it find clean victims.  A checkpoint's sweep
  (:meth:`BufferPool.flush_all`) and :meth:`BufferPool.evict_all` are
  one run each; :meth:`BufferPool.flush_page` called on its own is a run
  of one page.  A page whose device write fails for good
  (:class:`~repro.storage.device.DeviceWriteError`) stays dirty and the
  run goes on without it; a miss fails only if its own victim could not
  be written.

The pool never reads the device directly: the engine supplies a
``fetcher`` that performs the read *plus* detection and, if necessary,
single-page recovery (Figure 8's page-retrieval logic).  Detection is
therefore *on the fix path*: any reader — B-tree, heap, baseline,
scrubber — that faults a page in transparently triggers Figure-10
recovery.  The fetcher is also the hook a pending recovery rides
(:mod:`repro.engine.pending_recovery`, restart and media restore
alike): while one is installed it wraps the fetcher, so the first fix
of a not-yet-recovered page brings it current — starting image plus
per-page replay — before the frame is installed, and ``redo_on_fix``
then reports the ``rec_lsn`` a frame the recovery left dirty must start
out with.  A recovery *drain* hands such pages over with
:meth:`adopt_dirty` instead.  For failures detected *after* the fix
(cross-page invariant checks on an already-resident frame),
:meth:`repair_failure` closes the loop: it quarantines the suspect
frame, runs the engine-supplied ``repairer`` (Figure 8's dispatch), and
re-fixes the repaired page, so readers never patch pages themselves.

Concurrency: the frame table, pin counts, and the eviction policy are
guarded by one pool mutex; each frame additionally carries a **page
latch** that is held across the fetch of a not-yet-resident page.  Two
threads racing to fix the same absent page resolve by latch ordering:
the first installs a pinned *loading* placeholder and runs the fetcher
(detection, repair, recovery-on-first-fix) with the latch held; the
second blocks on the latch and re-checks — so the fetch/repair/redo
work for a page runs exactly once, and eviction skips both pinned and
loading frames.  The pool mutex is never held across a fetch, only
across table bookkeeping and write-backs.

Hand over hand: ``fix(child, release=parent)`` is one hop of a descent.
On a hit the child's pin and the parent's unpin are one mutex hold; when
the child is absent or loading the parent stays pinned until the load
ends, and is unpinned then whether the load succeeded or not.  However
such a ``fix`` ends, its caller is left holding at most the child — a
descent holds one pin whenever it can raise.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.buffer.eviction import ClockEviction
from repro.errors import BufferPoolError, SinglePageFailure, StorageError
from repro.page.page import Page
from repro.sim.stats import Stats
from repro.storage.device import DeviceWriteError, StorageDevice
from repro.sync import Mutex
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN

#: most pages a miss's write-back run cleans: its dirty victim and up to
#: seven more
RUN_PAGES = 8


class Frame:
    """One buffer-pool frame."""

    __slots__ = ("page", "dirty", "rec_lsn", "pin_count", "latch", "loading",
                 "referenced")

    def __init__(self, page: Page | None) -> None:
        self.page = page
        self.dirty = False
        self.rec_lsn = NULL_LSN
        self.pin_count = 0
        self.latch = Mutex()
        #: True while the frame is a placeholder whose fetch is still
        #: running under the latch; such a frame is pinned by the
        #: loading thread and invisible to dirty/eviction bookkeeping.
        self.loading = False
        #: the clock's reference bit: set at admission (a frame is built
        #: to be admitted) and on every hit, cleared by the sweep
        #: (:class:`repro.buffer.eviction.ClockEviction`)
        self.referenced = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        page_id = None if self.page is None else self.page.page_id
        return (f"Frame(page={page_id}, dirty={self.dirty}, "
                f"rec_lsn={self.rec_lsn}, pins={self.pin_count})")


class BufferPool:
    """Fixed-capacity page cache over one device."""

    def __init__(self, device: StorageDevice, log: LogManager, stats: Stats,
                 capacity: int,
                 fetcher: Callable[[int], Page] | None = None,
                 on_before_write: Callable[[Page], None] | None = None,
                 repairer: Callable[[SinglePageFailure], Page] | None = None,
                 on_run_cleaned: Callable[[list[tuple[int, int]]], None]
                 | None = None,
                 ) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.device = device
        self.log = log
        self.stats = stats
        counter = stats.counter
        self._buffer_hits = counter("buffer_hits")
        self._buffer_misses = counter("buffer_misses")
        self._pool_repairs = counter("pool_repairs")
        self._pages_written_back = counter("pages_written_back")
        self._pages_evicted = counter("pages_evicted")
        self._frames_dropped = counter("frames_dropped")
        self.capacity = capacity
        self.fetcher = fetcher or self._default_fetch
        self.on_run_cleaned = on_run_cleaned
        self.on_before_write = on_before_write
        self.repairer = repairer
        #: ``(page id, PageLSN)`` of each page the write-back run in
        #: progress has written (None: no run in progress)
        self._run: list[tuple[int, int]] | None = None
        #: pending recovery: called with each freshly fetched page;
        #: returns the rec_lsn the new frame must be marked dirty with
        #: if the fetch rolled the page forward (None = page clean)
        self.redo_on_fix = None  # Callable[[Page], int | None] | None
        self._frames: dict[int, Frame] = {}
        self._policy = ClockEviction()
        self._mutex = Mutex()
        #: pages with a repair_failure dispatch in progress — a second
        #: thread hitting the same suspect page waits for the first
        #: repair instead of double-running single-page recovery
        self._repairing: set[int] = set()

    # ------------------------------------------------------------------
    # Fixing
    # ------------------------------------------------------------------
    def fix(self, page_id: int, release: int | None = None) -> Page:
        """Pin ``page_id`` in the pool, reading it if absent, and give
        back one pin on ``release`` (hand over hand, see the module
        docstring; one that is not pinned is a :class:`BufferPoolError`
        raised before anything is pinned).

        A resident page is tested for first and does nothing but count,
        set the clock's reference bit and swap the pins.  The fetch of
        an absent page runs under that page's latch with a pinned
        placeholder installed, so a concurrent fix of the same page
        waits for the one in-flight read instead of issuing its own (and
        instead of racing the recovery-on-fix hooks).
        """
        frames = self._frames
        parent = None  # ``release``'s frame while its pin is ours to give back
        try:
            while True:
                with self._mutex:
                    if release is not None:
                        held = frames.get(release)
                        if held is None or held.pin_count <= 0:
                            raise BufferPoolError(
                                f"page {release} is not pinned")
                        parent = held
                    frame = frames.get(page_id)
                    if frame is not None and not frame.loading:
                        self._buffer_hits.inc()
                        frame.referenced = True
                        frame.pin_count += 1
                        if parent is not None:
                            parent.pin_count -= 1
                            parent = None
                        page = frame.page
                        break
                    if frame is None:
                        self._buffer_misses.inc()
                        self._make_room()
                        frame = Frame(None)
                        frame.loading = True
                        frame.pin_count = 1  # the loader's pin
                        frame.latch.acquire()  # released when the load ends
                        frames[page_id] = frame
                        self._policy.admitted(page_id)
                        page = None
                        break
                # Another thread is loading the page: block until it
                # releases the latch, then retry the lookup — the load
                # may have failed and vanished.
                with frame.latch:
                    pass
            if page is None:
                page = self._load(page_id, frame)
                frame.latch.release()
            return page
        finally:
            if parent is not None:
                with self._mutex:
                    parent.pin_count -= 1

    def _load(self, page_id: int, frame: Frame) -> Page:
        """Run the fetch that ``frame`` — a loading placeholder, latched
        by the caller — stands for.  On success the frame is loaded and
        still latched; a failed load withdraws and unlatches it, so
        waiters (and retries) see an absent page, not a poisoned frame."""
        try:
            # Read the hook first: the fetch that resolves a pending
            # recovery's last page detaches both hooks.
            redo_on_fix = self.redo_on_fix
            page = self.fetcher(page_id)
            rec_lsn = redo_on_fix(page) if redo_on_fix is not None else None
        except BaseException:
            with self._mutex:
                del self._frames[page_id]
                self._policy.removed(page_id)
            frame.latch.release()
            raise
        frame.page = page
        if rec_lsn is not None:
            # Stale page rolled forward on fix (pending restart): the
            # frame starts out dirty, like any redone page.
            frame.dirty = True
            frame.rec_lsn = rec_lsn
        frame.loading = False
        return page

    def fix_new(self, page: Page) -> Page:
        """Install a freshly formatted (or recovered) page, pinned.

        Used when the page's contents were produced in memory — newly
        allocated pages and pages just rebuilt by single-page recovery
        — so no device read should occur.
        """
        page_id = page.page_id
        with self._mutex:
            if page_id in self._frames:
                raise BufferPoolError(f"page {page_id} already resident")
            self._make_room()
            frame = Frame(page)
            frame.pin_count = 1
            self._frames[page_id] = frame
            self._policy.admitted(page_id)
            return frame.page

    def adopt_dirty(self, page: Page, rec_lsn: int) -> bool:
        """Install a page recovered in memory as an unpinned dirty
        frame (a recovery drain: nobody is waiting for the page, but
        normal write-back must apply to it).  Returns False, installing
        nothing, if the page already has a frame — resident, or the
        loading placeholder of a fix racing the drain."""
        with self._mutex:
            if page.page_id in self._frames:
                return False
            self._make_room()
            frame = Frame(page)
            frame.dirty = True
            frame.rec_lsn = rec_lsn
            self._frames[page.page_id] = frame
            self._policy.admitted(page.page_id)
            return True

    def unfix(self, page_id: int, dirty_lsn: int | None = None) -> None:
        """Give back one pin; ``dirty_lsn``, the first record logged on the
        page while it was held, ends a write (a clean frame's ``rec_lsn``)."""
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is None or frame.pin_count <= 0:
                raise BufferPoolError(f"page {page_id} is not pinned")
            frame.pin_count -= 1
            if dirty_lsn is not None and not frame.dirty:
                frame.dirty = True
                frame.rec_lsn = dirty_lsn

    def _require(self, page_id: int) -> Frame:
        frame = self._frames.get(page_id)
        if frame is None:
            raise BufferPoolError(f"page {page_id} not resident")
        return frame

    def _default_fetch(self, page_id: int) -> Page:
        return Page.adopt(self.device.read(page_id))

    # ------------------------------------------------------------------
    # Self-repair (Figure 8, applied to an already-fixed page)
    # ------------------------------------------------------------------
    def repair_failure(self, failure: SinglePageFailure) -> Page:
        """Repair a page that failed verification *after* it was fixed.

        Cross-page checks (fence keys, Section 4.2) can only run once a
        page is resident, so their failures surface on frames the pool
        already holds.  The suspect frame is dropped without write-back
        (its in-memory image is untrustworthy), the repairer runs the
        Figure-8 dispatch — single-page recovery or escalation — and
        the repaired page is re-fixed through the normal read path.
        """
        if self.repairer is None:
            raise failure
        page_id = failure.page_id
        # A concurrent reader may hold a transient pin on the suspect
        # frame, or already be repairing it; wait briefly for either to
        # clear.  A pin that never drains (the single-threaded caller
        # itself, or a wedged thread) still raises — no livelock.
        deadline = time.monotonic() + 0.25
        waited_for_repair = False
        while True:
            with self._mutex:
                frame = self._frames.get(page_id)
                busy = page_id in self._repairing
                if not busy and waited_for_repair:
                    # Another thread repaired this page while we
                    # waited: reuse its work (the caller re-verifies).
                    break
                if not busy and (frame is None or frame.pin_count == 0):
                    if frame is not None:
                        # Do not write the corrupt image back.
                        self.drop_frame(page_id)
                    self._repairing.add(page_id)
                    self._pool_repairs.inc()
                    break
                waited_for_repair = busy or waited_for_repair
            if time.monotonic() >= deadline:
                raise failure  # pinned elsewhere; cannot repair safely
            time.sleep(0.001)
        if not waited_for_repair:
            try:
                self.repairer(failure)
            finally:
                with self._mutex:
                    self._repairing.discard(page_id)
        return self.fix(page_id)

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------
    def mark_dirty(self, page_id: int, lsn: int) -> None:
        """Record that log record ``lsn`` dirtied the page."""
        with self._mutex:
            frame = self._require(page_id)
            if not frame.dirty:
                frame.dirty = True
                frame.rec_lsn = lsn
            # If already dirty, rec_lsn stays at the *first* dirtying LSN.

    def is_dirty(self, page_id: int) -> bool:
        with self._mutex:
            return self._require(page_id).dirty

    def dirty_page_table(self) -> dict[int, int]:
        """page id -> rec_lsn for all dirty frames (checkpoint payload)."""
        with self._mutex:
            return {pid: f.rec_lsn for pid, f in self._frames.items()
                    if f.dirty}

    def resident(self, page_id: int) -> bool:
        with self._mutex:
            frame = self._frames.get(page_id)
            return frame is not None and not frame.loading

    def resident_pages(self) -> list[int]:
        # Consistent with resident(): loading placeholders are not yet
        # resident.  (__len__ does count them — they occupy capacity.)
        with self._mutex:
            return sorted(pid for pid, f in self._frames.items()
                          if not f.loading)

    def pin_count(self, page_id: int) -> int:
        with self._mutex:
            frame = self._frames.get(page_id)
            return 0 if frame is None else frame.pin_count

    def page_if_resident(self, page_id: int) -> Page | None:
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is None or frame.loading:
                return None
            return frame.page

    # ------------------------------------------------------------------
    # Write-back (Figure 11)
    # ------------------------------------------------------------------
    def flush_page(self, page_id: int) -> bool:
        """Write a dirty page back; returns True if a write happened.

        Inside a write-back run this is the run's per-page step (step 2
        of the module docstring's protocol), so each page a run writes
        is one ``flush_page`` call.  Called on its own it is a run of
        one page: the WAL force before the write, the PRI update after.
        """
        with self._mutex:
            if self._run is not None:
                return self._write_page(page_id)
            if not self._require(page_id).dirty:
                return False
            return self._write_run([page_id], self._write_page) == 1

    def _write_page(self, page_id: int) -> bool:
        """Step 2 for one page of the open run.  Callers hold the pool
        mutex."""
        frame = self._require(page_id)
        if not frame.dirty:
            return False
        page = frame.page
        if self.on_before_write is not None:
            # The engine's page-backup policy hook (Section 6): it may
            # take a page copy and reset the in-page update counter, so
            # it must run before the image is sealed and written.
            self.on_before_write(page)
        page.seal()
        self.device.write(page_id, page.data)
        frame.dirty = False
        frame.rec_lsn = NULL_LSN
        self._pages_written_back.inc()
        self._run.append((page_id, page.page_lsn))
        return True

    def _write_run(self, page_ids: list[int],
                   write_page: Callable[[int], bool] | None = None) -> int:
        """Write the dirty frames ``page_ids`` back as one run; returns
        the pages written.  Callers hold the pool mutex.

        WAL rule: no page goes to disk before its log records do, so one
        force through the highest PageLSN comes first.  Each page is
        written by ``write_page`` (default: :meth:`flush_page`).  A page
        whose write fails for good stays dirty and the run goes on; any
        other error ends the run.  Either way the pages written reach
        ``on_run_cleaned`` before the (first) error is raised.
        """
        frames = self._frames
        self.log.force_through(max(frames[page_id].page.page_lsn
                                   for page_id in page_ids))
        write_page = write_page or self.flush_page
        self._run = run = []
        failure = None
        for page_id in sorted(page_ids):
            try:
                write_page(page_id)
            except DeviceWriteError as exc:
                failure = failure or exc
            except BaseException as exc:
                failure = exc
                break
        self._run = None
        try:
            if run and self.on_run_cleaned is not None:
                self.on_run_cleaned(run)
        finally:
            if failure is not None:
                raise failure
        return len(run)

    def flush_all(self) -> int:
        """Write every dirty frame back as one run (a checkpoint's
        sweep); returns pages written."""
        with self._mutex:
            dirty = [pid for pid, f in self._frames.items() if f.dirty]
            return self._write_run(dirty) if dirty else 0

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _make_room(self) -> None:
        # Callers hold the pool mutex.  Pinned frames — which include
        # every loading placeholder, pinned by its loader — are never
        # victims; if everything is pinned the pool reports it rather
        # than livelocking.
        frames = self._frames
        policy = self._policy
        while len(frames) >= self.capacity:
            victim = policy.choose_victim(frames)
            if victim is None:
                raise BufferPoolError("all frames pinned; cannot evict")
            if frames[victim].dirty:
                try:
                    self._write_run(
                        [victim, *policy.dirty_ahead(frames, RUN_PAGES - 1)])
                except StorageError:
                    # A look-ahead page that failed stays dirty for a
                    # later run; only the victim's own failure fails the
                    # miss.
                    if frames[victim].dirty:
                        raise
            self._drop_evicted(victim)

    def evict(self, page_id: int) -> None:
        """Flush (if dirty) and drop a frame."""
        with self._mutex:
            frame = self._require(page_id)
            if frame.pin_count > 0:
                raise BufferPoolError(f"cannot evict pinned page {page_id}")
            if frame.dirty:
                self._write_run([page_id])
            self._drop_evicted(page_id)

    def evict_all(self) -> None:
        """Write the dirty unpinned frames back as one run, then drop
        every unpinned frame."""
        with self._mutex:
            unpinned = [pid for pid, f in self._frames.items()
                        if not f.pin_count]
            dirty = [pid for pid in unpinned if self._frames[pid].dirty]
            if dirty:
                self._write_run(dirty)
            for page_id in unpinned:
                self._drop_evicted(page_id)

    def _drop_evicted(self, page_id: int) -> None:
        # Callers hold the pool mutex and have written the frame back.
        del self._frames[page_id]
        self._policy.removed(page_id)
        self._pages_evicted.inc()

    def drop_frame(self, page_id: int) -> None:
        """Discard one frame *without* writing it back.

        Used when the in-memory image is untrustworthy (a page that
        failed cross-page verification must not be written to disk).
        """
        with self._mutex:
            frame = self._require(page_id)
            if frame.pin_count > 0:
                raise BufferPoolError(f"cannot drop pinned page {page_id}")
            del self._frames[page_id]
            self._policy.removed(page_id)
            self._frames_dropped.inc()

    def drop_all(self) -> None:
        """Discard every frame without writing (crash simulation)."""
        with self._mutex:
            self._frames.clear()
            self._policy = ClockEviction()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._frames)
