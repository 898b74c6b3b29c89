"""The buffer pool.

Responsibilities:

* page residency and pinning (fix/unfix);
* dirty tracking with ARIES-style recovery LSNs (``rec_lsn`` = LSN of
  the first update that dirtied the frame since it was last clean) —
  the dirty page table for checkpoints comes from here;
* the write-back protocol of Figure 11:

  1. force the log up to the page's PageLSN (the WAL rule);
  2. seal (checksum) and write the page to the device;
  3. invoke ``on_page_cleaned`` — the engine logs the
     page-recovery-index update there (a system transaction);
  4. only then may the frame be evicted.

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
from repro.errors import BufferPoolError, ReproError, SinglePageFailure
from repro.page.page import Page
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.sync import Mutex
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN


class Frame:
    """One buffer-pool frame."""

    __slots__ = ("page", "dirty", "rec_lsn", "pin_count", "latch", "loading",
                 "prefetched", "referenced")

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
        #: True for a speculatively fetched frame until its first
        #: demand hit (a prefetch that leaves without one was wasted)
        self.prefetched = False
        #: the clock's reference bit: set at admission (a frame is built
        #: to be admitted) and on every demand hit, cleared by the sweep
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
                 on_page_cleaned: Callable[[Page], None] | None = None,
                 on_before_write: Callable[[Page], None] | None = None,
                 repairer: Callable[[SinglePageFailure], Page] | None = None,
                 ) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.device = device
        self.log = log
        self.stats = stats
        counter = stats.counter
        self._buffer_hits = counter("buffer_hits")
        self._buffer_misses = counter("buffer_misses")
        self._fetch_demand = counter("fetch_demand")
        self._fetch_prefetch = counter("fetch_prefetch")
        self._prefetch_hits = counter("prefetch_hits")
        self._prefetch_wasted = counter("prefetch_wasted")
        self._prefetch_skipped_bounds = counter("prefetch_skipped_bounds")
        self._prefetch_skipped_resident = counter("prefetch_skipped_resident")
        self._prefetch_skipped_quota = counter("prefetch_skipped_quota")
        self._prefetch_skipped_full = counter("prefetch_skipped_full")
        self._prefetch_errors = counter("prefetch_errors")
        self._pool_repairs = counter("pool_repairs")
        self._pages_written_back = counter("pages_written_back")
        self._pages_evicted = counter("pages_evicted")
        self._frames_dropped = counter("frames_dropped")
        self.capacity = capacity
        self.fetcher = fetcher or self._default_fetch
        self.on_page_cleaned = on_page_cleaned
        self.on_before_write = on_before_write
        self.repairer = repairer
        #: pending recovery: called with each freshly fetched page;
        #: returns the rec_lsn the new frame must be marked dirty with
        #: if the fetch rolled the page forward (None = page clean)
        self.redo_on_fix = None  # Callable[[Page], int | None] | None
        #: access-pattern model fed by every demand fix; None = the
        #: prefetch feature is off and the pool behaves exactly as it
        #: always has (no observation, no speculative fetches)
        self.prefetcher = None  # repro.buffer.prefetch.Prefetcher | None
        #: lowest page id prefetch may touch (the engine sets this to
        #: its first data page so metadata/PRI pages are never
        #: speculatively fetched) and a callable upper bound (the
        #: engine's allocated-page count); device capacity caps both
        self.prefetch_floor = 0
        self.page_bound = None  # Callable[[], int] | None
        #: cap on concurrently resident speculative frames, so read-
        #: ahead can never crowd out the demand working set.  To make
        #: room a prefetch may evict a *clean, unpinned* frame (clock
        #: order — the coldest), but never a pinned or dirty one: a
        #: speculative read must never force a write-back or steal a
        #: frame someone holds.
        self.prefetch_quota = max(1, capacity // 4)
        self._frames: dict[int, Frame] = {}
        #: how many frames carry ``prefetched`` (kept beside the flag,
        #: so a prefetch checks its quota without scanning the table)
        self._speculative = 0
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
                        if frame.prefetched:
                            # First demand hit on a speculative frame:
                            # the prefetch paid off.
                            frame.prefetched = False
                            self._speculative -= 1
                            self._prefetch_hits.inc()
                        frame.referenced = True
                        frame.pin_count += 1
                        if parent is not None:
                            parent.pin_count -= 1
                            parent = None
                        page = frame.page
                        break
                    if frame is None:
                        self._buffer_misses.inc()
                        self._fetch_demand.inc()
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
            if self.prefetcher is not None:
                self.prefetcher.observe(page_id, page)
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
                if frame.prefetched:
                    self._speculative -= 1
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

    def prefetch(self, page_id: int) -> bool:
        """Speculatively fetch one page, unpinned; returns True if a
        read was issued.

        The speculative twin of :meth:`fix`, with strictly weaker
        claims on the pool: at most ``prefetch_quota`` speculative
        frames may be resident at once, room is made only by evicting
        a clean unpinned victim (never a pinned or dirty frame — a
        full pool of those declines the fetch), pages outside
        ``[prefetch_floor, page_bound())`` are refused, and engine
        errors are swallowed (a speculative read's failure is the next
        demand fix's problem, which takes the full detection/repair
        path).  The load itself is the demand fix's (:meth:`_load`:
        placeholder, frame latch, fetcher and ``redo_on_fix`` hooks), so
        a racing demand fix waits on the latch and any
        recovery-on-first-fix work still runs exactly once.
        """
        bound = self.page_bound() if self.page_bound is not None else None
        capacity_pages = getattr(self.device, "capacity_pages", None)
        if bound is None:
            bound = capacity_pages
        elif capacity_pages is not None:
            bound = min(bound, capacity_pages)
        if (page_id < self.prefetch_floor
                or (bound is not None and page_id >= bound)):
            self._prefetch_skipped_bounds.inc()
            return False
        with self._mutex:
            if page_id in self._frames or page_id in self._repairing:
                self._prefetch_skipped_resident.inc()
                return False
            if self._speculative >= self.prefetch_quota:
                self._prefetch_skipped_quota.inc()
                return False
            while len(self._frames) >= self.capacity:
                victim = self._policy.choose_victim(self._frames,
                                                    clean_only=True)
                if victim is None:
                    # Nothing clean and unpinned to displace: a
                    # speculative read never flushes or unpins.
                    self._prefetch_skipped_full.inc()
                    return False
                self.evict(victim)
            frame = Frame(None)
            frame.loading = True
            frame.prefetched = True
            self._speculative += 1
            frame.pin_count = 1  # the loader's pin
            frame.latch.acquire()  # released when the load ends
            self._frames[page_id] = frame
            self._policy.admitted(page_id)
        try:
            self._load(page_id, frame)
        except ReproError:
            self._prefetch_errors.inc()
            return False
        frame.pin_count = 0  # speculative frames sit unpinned
        frame.latch.release()
        self._fetch_prefetch.inc()
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

        Implements the WAL rule plus the Figure-11 protocol: after the
        device write, ``on_page_cleaned`` runs (the engine logs the PRI
        update there) *before* the frame becomes evictable.
        """
        with self._mutex:
            frame = self._require(page_id)
            if not frame.dirty:
                return False
            page = frame.page
            # WAL rule: no page goes to disk before its log records do.
            self.log.force(page.page_lsn + 1)
            if self.on_before_write is not None:
                # The engine's page-backup policy hook (Section 6): it
                # may take a page copy and reset the in-page update
                # counter, so it must run before the image is sealed
                # and written.
                self.on_before_write(page)
            page.seal()
            self.device.write(page_id, page.data)
            frame.dirty = False
            frame.rec_lsn = NULL_LSN
            self._pages_written_back.inc()
            if self.on_page_cleaned is not None:
                self.on_page_cleaned(page)
            return True

    def flush_all(self) -> int:
        """Flush every dirty page (checkpoint); returns pages written."""
        written = 0
        for page_id in self.resident_pages():
            with self._mutex:
                if page_id not in self._frames:
                    continue
                if self.flush_page(page_id):
                    written += 1
        return written

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _make_room(self) -> None:
        # Callers hold the pool mutex.  Pinned frames — which include
        # every loading placeholder, pinned by its loader — are never
        # victims; if everything is pinned the pool reports it rather
        # than livelocking.
        frames = self._frames
        while len(frames) >= self.capacity:
            victim = self._policy.choose_victim(frames)
            if victim is None:
                raise BufferPoolError("all frames pinned; cannot evict")
            self._evict_frame(victim, frames[victim])

    def evict(self, page_id: int) -> None:
        """Flush (if dirty) and drop a frame."""
        with self._mutex:
            frame = self._require(page_id)
            if frame.pin_count > 0:
                raise BufferPoolError(f"cannot evict pinned page {page_id}")
            self._evict_frame(page_id, frame)

    def _evict_frame(self, page_id: int, frame: Frame) -> None:
        # Callers hold the pool mutex and have found the frame unpinned.
        if frame.dirty:
            self.flush_page(page_id)
        if frame.prefetched:
            # Speculatively fetched, never demanded: wasted I/O.
            self._speculative -= 1
            self._prefetch_wasted.inc()
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
            if frame.prefetched:
                self._speculative -= 1
                self._prefetch_wasted.inc()
            del self._frames[page_id]
            self._policy.removed(page_id)
            self._frames_dropped.inc()

    def drop_all(self) -> None:
        """Discard every frame without writing (crash simulation)."""
        with self._mutex:
            if self._speculative:
                # Speculative frames that never saw a demand hit before
                # the crash took them: wasted I/O.
                self._prefetch_wasted.inc(self._speculative)
                self._speculative = 0
            self._frames.clear()
            self._policy = ClockEviction()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._frames)
