"""The one pending-recovery registry: restart and restore as the same
drain over two image sources.

The paper's primitive — a starting image plus the page's log chain
(Figure 10) — repairs anything, so neither restart nor media restore
need be an offline event.  After log analysis the database may open at
once, and a :class:`PendingRecovery` tracks what classic recovery would
have finished first:

* **pending pages** — each with the record list analysis collected for
  it.  A pending page is brought current exactly once: on its first fix
  (the buffer pool's ``fetcher`` hook) or by the background
  :meth:`PendingRecovery.drain`, whichever claims it first under the
  registry mutex;
* **pending losers** — unfinished transactions.  Their key locks are
  re-acquired from the per-transaction chains, so a conflicting user
  transaction rolls back exactly the loser in its way (the lock
  manager's ``conflict_resolver`` hook); the drain undoes the rest,
  newest first.

What differs between the two recoveries is only *where the starting
image comes from and where the recovered page goes*, and that is an
:class:`ImageSource`: :class:`DeviceImage` for restart (the stale device
copy, rolled forward into a dirty frame) and :class:`BackupImage` for
media restore (the backup copy, written through to the replacement
device).  Everything else — the maps, the hooks, the completion
watermark, log-retention pinning, the budgeted ascending drain —
is written once, here.  Eager recovery is the degenerate case: install,
then :meth:`~PendingRecovery.drain_all` *before* the database opens;
both modes run the same per-page code, which is what makes them
byte-identical (the differential oracles of ``tests/test_crash_matrix``
and ``tests/test_media_matrix``).

**Single-pending invariant.**  At most one recovery is pending per
:class:`~repro.engine.database.Database`: it lives in
``db.pending_recovery`` (``None`` when idle), a crash or a media
recovery :meth:`~PendingRecovery.abandon` it first, and installing over
a live one is an assertion.

**Record-source rule.**  A *demand fix* walks the page's chain — it is a
single-page recovery whose backup happens to be the source's image —
and falls back to the analysis list if the chain does not connect.  A
*drain* replays the list analysis already holds: the scan paid for it,
so bulk recovery never re-reads chains as random log I/O.  Chain order
and log order coincide per page and both go through
:func:`repro.core.single_page.replay_records`, so the result is the
same either way.

**Completion watermark.**  While work is pending,
:meth:`~PendingRecovery.retention_bound` pins the log at the oldest
record any pending page or loser may still need; when the last item
resolves the registry records the watermark LSN on the database,
detaches its hooks and frees the slot, after which checkpoints, log
truncation and backup retirement proceed normally.

**Lock order.**  Frame latch → registry mutex, never the reverse: the
fix path enters :meth:`~PendingRecovery._fetch` holding the latch of the
frame it is loading, so nothing here waits on a frame latch with the
mutex held.  A drain may enter the *pool* mutex under the registry mutex
(adopting a redone page) — the pool never calls back into the registry.
Loser rollback fixes pages, so a loser is claimed under the mutex and
rolled back outside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.single_page import replay_records
from repro.errors import (
    LogError,
    PageFailureKind,
    RecoveryError,
    SinglePageFailure,
)
from repro.page.page import Page
from repro.sim.clock import StopWatch
from repro.sim.stats import Handle
from repro.sync import Mutex
from repro.txn.transaction import Transaction
from repro.wal.lsn import NULL_LSN
from repro.wal.records import BackupRef, LogRecord, LogRecordKind, pri_update


@dataclass
class PendingLoser:
    """One loser transaction awaiting rollback."""

    txn_id: int
    last_lsn: int
    is_system: bool
    first_lsn: int = NULL_LSN
    keys: set[bytes] = field(default_factory=set)


def undo_loser(db, txn_id: int, last_lsn: int,  # noqa: ANN001
               is_system: bool) -> None:
    """Roll back one loser transaction and log its ABORT record."""
    txn = Transaction(txn_id, is_system=is_system)
    txn.last_lsn = last_lsn
    db.tm.rollback_work(txn, db)
    db.log.append(LogRecord(LogRecordKind.ABORT, txn_id=txn_id,
                            prev_lsn=txn.last_lsn))
    db.counters.restart_undo_txns.inc()


# ----------------------------------------------------------------------
# Image sources: the half that differs
# ----------------------------------------------------------------------
class ImageSource:
    """Where a pending page's starting image comes from and where the
    recovered page goes.  ``kind`` names the recovery (``"restart"`` or
    ``"restore"``): it selects the ``db.last_<kind>_completion_lsn``
    watermark and the ``<kind>_pending_*`` / ``<kind>_drain_*``
    counters; ``counters`` maps the registry's per-item events to the
    handles of the counters tests and ``bench/metrics.py`` read."""

    kind: str
    counters: dict[str, Handle]

    def __init__(self, db) -> None:  # noqa: ANN001 - Database facade
        self.db = db

    def install(self, recovery: "PendingRecovery") -> None:
        """Source-specific registration, before loser locks are taken."""

    def page_floor(self, pending_pages: dict[int, list[LogRecord]]) -> int | None:
        """Oldest LSN the pending pages may still need (None if none)."""
        raise NotImplementedError

    def image(self, page_id: int, records: list[LogRecord]) -> Page:
        """The starting image; replay begins after its PageLSN."""
        raise NotImplementedError

    def deliver(self, page: Page, records: list[LogRecord],
                applied: list[LogRecord], sequential: bool) -> int | None:
        """Put the recovered page where it belongs.  Returns the
        recovery LSN if the page is now *dirty* in memory (it must enter
        the buffer pool with that ``rec_lsn``), ``None`` if it is clean
        (the device holds exactly this image)."""
        raise NotImplementedError

    def abandoned(self) -> None:
        """The pending work was dropped unresolved."""

    def completed(self) -> None:
        """The last pending item resolved; the watermark is recorded."""


class DeviceImage(ImageSource):
    """Restart: the crash left the device intact but stale.  The image
    is the device copy — read exactly as Figure 8 prescribes, repaired
    by single-page recovery if it fails — and the rolled-forward page
    becomes a dirty frame; the log is pinned at each page's first
    pending record."""

    kind = "restart"

    def __init__(self, db) -> None:  # noqa: ANN001
        super().__init__(db)
        counter = db.stats.counter
        self.counters = {
            "page": counter("lazy_redo_pages"),
            "records": counter("lazy_redo_records"),
            "chain_fallback": counter("chain_forward_fallbacks"),
            "superseded": counter("lazy_redo_superseded"),
            "undo_on_conflict": counter("lazy_undo_on_conflict"),
            "undo": counter("lazy_undo_txns"),
        }
        self._pri_repair_records = counter("pri_repair_records")
        self._completions = counter("instant_restart_completions")
        #: PRI-update records regenerated for already-current pages
        self.pri_repairs = 0

    def page_floor(self, pending_pages: dict[int, list[LogRecord]]) -> int | None:
        return min((records[0].lsn for records in pending_pages.values()),
                   default=None)

    def image(self, page_id: int, records: list[LogRecord]) -> Page:
        db = self.db
        manager = db.recovery_manager
        try:
            if db.device.raw_image(page_id) is not None:
                return manager.read(page_id)
            # Never reached the device: an unformatted page is the right
            # image only if the first record to replay is the page's
            # formatting record.  If analysis starts later, a write had
            # completed (the page left the dirty-page table) and the
            # device lost it — the one lost write that leaves no stale
            # image to cross-check.
            if records[0].kind == LogRecordKind.FORMAT_PAGE:
                return Page.format(db.config.page_size, page_id)
            raise SinglePageFailure(
                page_id, PageFailureKind.STALE_LSN,
                f"no image on the device, yet redo starts at LSN "
                f"{records[0].lsn}, past the page's formatting")
        except SinglePageFailure as failure:
            # Single-page recovery during restart: the PRI was already
            # reconstructed by the load + analysis phases.
            return manager.handle_failure(failure)

    def deliver(self, page: Page, records: list[LogRecord],
                applied: list[LogRecord], sequential: bool) -> int | None:
        if applied:
            # Dirty since the first pending record (the same bound
            # whichever record source replayed; a chain may reach back
            # further than analysis did).
            return min(records[0].lsn, applied[0].lsn)
        # Figure 12, bottom row: the page had been written before the
        # crash but its PRI update was lost.  Generate the missing log
        # record now; applying it to the index can happen lazily,
        # exactly as in normal forward processing.
        db = self.db
        if db.config.log_completed_writes:
            db.log.append(pri_update([(page.page_id, page.page_lsn)]))
            self._pri_repair_records.inc()
            self.pri_repairs += 1
            if db.config.spf_enabled:
                db.pri.record_write(page.page_id, page.page_lsn)
        return None

    def completed(self) -> None:
        self._completions.inc()


class BackupImage(ImageSource):
    """Media restore: the device is gone.  The image is the page's copy
    in the full backup ``db.durable.restore_backup_id`` names (or a
    fresh page, for one formatted since), and the recovered page is
    sealed, written through to the replacement device and recorded in
    the PRI; the log is pinned at the backup's own record, since chain
    replay walks every pending page back to it."""

    kind = "restore"

    def __init__(self, db, backup_lsn: int,  # noqa: ANN001
                 backup_pages: set[int]) -> None:
        super().__init__(db)
        counter = db.stats.counter
        self.counters = {
            "page": counter("restore_pages"),
            "records": counter("restore_records"),
            "chain_fallback": counter("restore_chain_fallbacks"),
            "superseded": counter("restore_superseded"),
            "undo_on_conflict": counter("restore_undo_on_conflict"),
            "undo": counter("restore_undo_txns"),
        }
        self._completions = counter("instant_restore_completions")
        self.backup_lsn = backup_lsn
        #: pages with an image in the full backup
        self.backup_pages = backup_pages
        #: eager restore: backup images pulled with one sequential read
        #: (:meth:`prefetch_images`)
        self._image_cache: dict[int, bytes] = {}

    def install(self, recovery: "PendingRecovery") -> None:
        db = self.db
        # The media failure aborted the losers; whatever lock state
        # they left behind is replaced by the locks re-acquired from
        # their per-transaction chains.
        for loser in recovery.pending_losers.values():
            db.tm.active.pop(loser.txn_id, None)
            db.locks.release_all(loser.txn_id)
        pending = recovery.pending_pages
        if db.config.spf_enabled and pending:
            # The full backup covers the whole restored range; pages
            # formatted after the backup fall back to their formatting
            # records (Section 5.2.1's fourth source).
            db.pri.set_range_backup(
                0, max(pending) + 1,
                BackupRef.full_backup(db.durable.restore_backup_id),
                self.backup_lsn, db.clock.now)
            # A recovery-index page the region grew onto after the
            # backup only ever receives whole images; the newest one is
            # its backup.
            for page_id, records in pending.items():
                if page_id in self.backup_pages or not records:
                    continue
                if records[0].kind == LogRecordKind.FORMAT_PAGE:
                    db.pri.set_backup(
                        page_id, BackupRef.format_record(records[0].lsn),
                        records[0].lsn, db.clock.now)
                elif records[0].kind == LogRecordKind.FULL_PAGE_IMAGE:
                    db.pri.set_backup(
                        page_id, BackupRef.log_image(records[-1].lsn),
                        records[-1].lsn, db.clock.now)

    def prefetch_images(self) -> None:
        """Pull the whole backup with one sequential read (eager mode:
        the classic restore arithmetic; on-demand pays a random read
        per page instead, which is exactly its trade)."""
        if self.backup_pages:
            self._image_cache = self.db.backup_store.restore_full_backup(
                self.db.durable.restore_backup_id)

    def page_floor(self, pending_pages: dict[int, list[LogRecord]]) -> int | None:
        return self.backup_lsn if pending_pages else None

    def image(self, page_id: int, records: list[LogRecord]) -> Page:
        db = self.db
        page_size = db.config.page_size
        backup_id = db.durable.restore_backup_id
        cached = self._image_cache.pop(page_id, None)
        if cached is not None:
            return Page(page_size, cached)
        if page_id in self.backup_pages:
            image, _lsn = db.backup_store.fetch_from_full_backup(
                backup_id, page_id)
            return Page(page_size, image)
        if records and records[0].kind in (LogRecordKind.FORMAT_PAGE,
                                           LogRecordKind.FULL_PAGE_IMAGE):
            # First written after the backup: the formatting record is
            # the backup (source four), and so is the whole image a
            # checkpoint logs for a recovery-index page its snapshot
            # grew onto; replay starts from a fresh page.
            return Page.format(page_size, page_id)
        raise RecoveryError(
            f"page {page_id} is not in full backup {backup_id} and has "
            f"no formatting record or image since LSN {self.backup_lsn}")

    def deliver(self, page: Page, records: list[LogRecord],
                applied: list[LogRecord], sequential: bool) -> int | None:
        db = self.db
        page.seal()
        db.device.write(page.page_id, page.data, sequential=sequential)
        if db.config.spf_enabled:
            db.pri.record_write(page.page_id, page.page_lsn)
        return None

    def abandoned(self) -> None:
        # The replacement device is only partially rebuilt: the media
        # failure is effectively back, and recover_media() must re-run
        # from the same, still pinned backup (restored pages are no-ops).
        self._image_cache.clear()
        self.db._media_failed = True

    def completed(self) -> None:
        # The replacement device is fully caught up: the backup may be
        # retired, and the watermark is made durable.
        self._image_cache.clear()
        self.db.durable.restore_backup_id = None
        self._completions.inc()
        self.db.log.force()


# ----------------------------------------------------------------------
# The registry: the half that is the same
# ----------------------------------------------------------------------
class PendingRecovery:
    """Tracks and resolves the per-page and per-loser work a recovery
    deferred past the moment the database opened."""

    def __init__(self, db, source: ImageSource,  # noqa: ANN001
                 pending_pages: dict[int, list[LogRecord]],
                 att: dict[int, tuple[int, bool]]) -> None:
        self.db = db
        self.source = source
        counter, kind = db.stats.counter, source.kind
        self._pending_pages = counter(f"{kind}_pending_pages")
        self._pending_losers = counter(f"{kind}_pending_losers")
        self._drain_pages = counter(f"{kind}_drain_pages")
        self._drain_losers = counter(f"{kind}_drain_losers")
        #: every page awaiting recovery -> its analysis record list (the
        #: drain's record source, the demand fix's fallback)
        self.pending_pages = pending_pages
        self.pending_losers: dict[int, PendingLoser] = {}
        for txn_id, (last_lsn, is_system) in att.items():
            keys, first_lsn = db.tm.chain_summary(last_lsn)
            self.pending_losers[txn_id] = PendingLoser(
                txn_id, last_lsn, is_system, first_lsn, keys)
        #: guards the pending maps: a fix-path hook runs under whatever
        #: latch the fixing thread holds (shared readers included),
        #: drains under the exclusive engine latch — either way the
        #: per-page claim is atomic, so a page resolves exactly once
        self._mutex = Mutex()
        #: losers whose rollback is running right now (claimed under
        #: the mutex, rolled back outside it)
        self._undoing: set[int] = set()
        #: demand-fixed pages their source left dirty -> rec_lsn, handed
        #: to the pool through its ``redo_on_fix`` hook
        self._fixed_dirty: dict[int, int] = {}
        # Telemetry mirrored into RestartReport / MediaRecoveryReport.
        self.pages_resolved = 0
        self.pages_already_current = 0
        self.records_applied = 0
        self.undone_losers: list[int] = []
        self.page_seconds = 0.0
        self.loser_seconds = 0.0

    # ------------------------------------------------------------------
    # Installation / detachment
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Hook the registry into the buffer pool and lock manager."""
        db = self.db
        assert db.pending_recovery is None, "a recovery is already pending"
        db.pending_recovery = self
        self._orig_fetcher = db.pool.fetcher
        db.pool.fetcher = self._fetch
        db.pool.redo_on_fix = self._rec_lsn_of
        db.locks.conflict_resolver = self.resolve_loser_conflict
        self.source.install(self)
        # Loser locks: re-acquired from the per-transaction chains so
        # new transactions conflict with (and then resolve) exactly the
        # losers whose keys they touch.
        for loser in self.pending_losers.values():
            for key in loser.keys:
                db.locks.acquire(loser.txn_id, key)
        self._pending_pages.inc(len(self.pending_pages))
        self._pending_losers.inc(len(self.pending_losers))
        self._maybe_finish()

    def abandon(self) -> None:
        """Drop all pending work without resolving it (a new failure:
        the next recovery's analysis rediscovers everything from the
        durable log)."""
        self.pending_pages.clear()
        self.pending_losers.clear()
        self.source.abandoned()
        self._detach()

    def _detach(self) -> None:
        db = self.db
        if db.pool.fetcher == self._fetch:
            db.pool.fetcher = self._orig_fetcher
        if db.pool.redo_on_fix == self._rec_lsn_of:
            db.pool.redo_on_fix = None
        if db.locks.conflict_resolver == self.resolve_loser_conflict:
            db.locks.conflict_resolver = None
        if db.pending_recovery is self:
            db.pending_recovery = None

    def _maybe_finish(self) -> None:
        """Called at installation and, under the mutex, after every
        removal from the pending maps — so exactly one call ever finds
        them both empty."""
        if not self.complete:
            return
        # The completion watermark: everything the failure left behind
        # is resolved.
        setattr(self.db, f"last_{self.source.kind}_completion_lsn",
                self.db.log.end_lsn)
        self.source.completed()
        self._detach()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_page_count(self) -> int:
        return len(self.pending_pages)

    @property
    def pending_loser_count(self) -> int:
        return len(self.pending_losers)

    @property
    def complete(self) -> bool:
        return not self.pending_pages and not self.pending_losers

    def retention_bound(self) -> int | None:
        """Oldest LSN any pending page or loser may still need, or
        ``None`` when nothing is pending (the truncation gate)."""
        bounds = [loser.first_lsn if loser.first_lsn != NULL_LSN
                  else loser.last_lsn
                  for loser in self.pending_losers.values()]
        floor = self.source.page_floor(self.pending_pages)
        if floor is not None:
            bounds.append(floor)
        return min(bounds, default=None)

    # ------------------------------------------------------------------
    # Per-page recovery (the shared primitive of fix path and drain)
    # ------------------------------------------------------------------
    def _fetch(self, page_id: int) -> Page:
        """Fetcher wrapper: the first fix of a pending page *is* its
        recovery; everything else takes the normal Figure-8 path."""
        with self._mutex:
            if page_id in self.pending_pages:
                page, rec_lsn = self._resolve_locked(page_id, demand=True)
                if rec_lsn is not None:
                    self._fixed_dirty[page_id] = rec_lsn
                return page
        return self._orig_fetcher(page_id)

    def _rec_lsn_of(self, page: Page) -> int | None:
        """``redo_on_fix`` hook: the rec_lsn the frame of a page
        :meth:`_fetch` just rolled forward must start out dirty with
        (``None``: the page is clean)."""
        with self._mutex:
            return self._fixed_dirty.pop(page.page_id, None)

    def _resolve_locked(self, page_id: int, demand: bool
                        ) -> tuple[Page, int | None] | None:
        """Bring one pending page current and deliver it.

        The page stays pending until that *succeeds*: a failure
        propagates (out of the fix — no frame is installed — or out of
        the drain) and a later attempt retries, instead of a stale page
        being served.  Returns ``None`` when a drain finds the page's
        frame already claimed by a racing demand fix, which then
        resolves the page itself.
        """
        db = self.db
        counters = self.source.counters
        records = self.pending_pages[page_id]
        page = self.source.image(page_id, records)
        applied = None
        if demand:
            try:
                head = db.log_reader.chain_start_lsn(page_id, None)
                applied = replay_records(page, db.log_reader.walk_page_chain(
                    head, page.page_lsn, page_id=page_id))
            except (RecoveryError, LogError):
                # Chain truncated or not connecting to the image.  The
                # walk itself links every record to the next, so replay
                # can only fail at the first one — before anything was
                # applied; the image is still the source's.
                counters["chain_fallback"].inc()
        if applied is None:
            applied = replay_records(page, records)
        # A drain sweeps by ascending id, so its deliveries are priced
        # sequential; a demand fix's is one random write.
        rec_lsn = self.source.deliver(page, records, applied, not demand)
        if (rec_lsn is not None and not demand
                and not db.pool.adopt_dirty(page, rec_lsn)):
            # Nobody is waiting for a drained page, so one left dirty
            # enters the pool for normal write-back (and PRI
            # maintenance) — unless a racing fix holds its frame.
            return None
        del self.pending_pages[page_id]
        self.pages_resolved += 1
        self.records_applied += len(applied)
        if not applied:
            self.pages_already_current += 1
        counters["page"].inc()
        counters["records"].inc(len(applied))
        self._maybe_finish()
        return page, rec_lsn

    def discard_page(self, page_id: int) -> None:
        """A pending page was reformatted by fresh allocation before
        its first read: the formatting supersedes its recovery ("it has
        the same effect as a successful write", Section 5.1.2)."""
        with self._mutex:
            if self.pending_pages.pop(page_id, None) is not None:
                self.source.counters["superseded"].inc()
                self._maybe_finish()

    # ------------------------------------------------------------------
    # Loser undo (the lock manager's conflict_resolver hook, and drain)
    # ------------------------------------------------------------------
    def resolve_loser_conflict(self, holder_txn_id: int) -> bool:
        """A lock request hit ``holder_txn_id``: if it is a pending
        loser, roll it back now and let the requester retry."""
        if holder_txn_id not in self.pending_losers:
            return False
        self.source.counters["undo_on_conflict"].inc()
        return self.undo_pending_loser(holder_txn_id)

    def undo_pending_loser(self, txn_id: int) -> bool:
        db = self.db
        # Claim under the mutex, roll back outside it: rollback fixes
        # pages (recovering any pending one on the way, via _fetch —
        # which takes this mutex under a frame latch); holding it
        # across the rollback would invert that order.  The loser stays
        # in pending_losers until its rollback completes, so a mid-undo
        # failure neither strands its locks behind a phantom holder nor
        # lets the completion watermark lift early.
        with self._mutex:
            loser = self.pending_losers.get(txn_id)
            if loser is None or txn_id in self._undoing:
                return False
            self._undoing.add(txn_id)
        try:
            undo_loser(db, txn_id, loser.last_lsn, loser.is_system)
        except BaseException:
            with self._mutex:
                self._undoing.discard(txn_id)
            raise
        with self._mutex:
            self._undoing.discard(txn_id)
            del self.pending_losers[txn_id]
            db.locks.release_all(txn_id)
            self.source.counters["undo"].inc()
            self.undone_losers.append(txn_id)
            self._maybe_finish()
        return True

    # ------------------------------------------------------------------
    # Background drain
    # ------------------------------------------------------------------
    def drain(self, page_budget: int | None = None,
              loser_budget: int | None = None) -> tuple[int, int]:
        """Resolve pending work up to the budgets; returns
        ``(pages_resolved, losers_resolved)``.

        Every drain, budgeted or not (``drain_all``: the checkpoint
        gate, and the whole of eager recovery), takes pages by
        ascending id — a sequential sweep of the device, priced as
        sequential I/O — then losers newest-first.
        """
        db = self.db
        pages_done = 0
        with self._mutex:
            pending_now = sorted(self.pending_pages)
        with StopWatch(db.clock) as watch:
            for page_id in pending_now:
                if page_budget is not None and pages_done >= page_budget:
                    break
                with self._mutex:
                    if page_id not in self.pending_pages:
                        continue  # resolved by a racing fix
                    if self._resolve_locked(page_id, demand=False) is None:
                        continue  # claimed by a racing fix
                pages_done += 1
        self.page_seconds += watch.elapsed
        losers_done = 0
        with self._mutex:
            order = sorted(self.pending_losers.values(),
                           key=lambda loser: -loser.last_lsn)
        with StopWatch(db.clock) as watch:
            for loser in order:
                if loser_budget is not None and losers_done >= loser_budget:
                    break
                if self.undo_pending_loser(loser.txn_id):
                    losers_done += 1
        self.loser_seconds += watch.elapsed
        self._drain_pages.inc(pages_done)
        self._drain_losers.inc(losers_done)
        return pages_done, losers_done

    def drain_all(self) -> tuple[int, int]:
        """Resolve everything."""
        return self.drain()
