"""Log-shipped hot standby: replication, repair source, failover.

The paper frames single-page repair as a race to the freshest source
of a page image; a continuously applying hot standby is the freshest
source there is.  It is also Section 2's baseline, SQL Server's
mirror-based page repair: with its link held down
(:meth:`SegmentShipper.sever`), a failed page waits until
:meth:`SegmentShipper.restore` has applied the whole outstanding stream
to every page, and only then is :meth:`Standby.serve_page` current
(``benchmarks/test_sec2_mirror_baseline.py``).  This module provides:

* :class:`SegmentShipper` — an in-process shipping link hooked into
  :class:`repro.wal.log_manager.LogManager` forces.  Only *durable*
  records ever ship (the standby must never apply a record the primary
  could still lose in a crash).  Two granularities: ``"tail"`` streams
  every newly durable record; ``"segment"`` ships only sealed log
  segments — the classic log-shipping unit — so the open segment lags
  naturally.  :meth:`SegmentShipper.ship_until` flushes the durable
  tail regardless of granularity; ``replicated_durable`` commit acks
  and failover catch-up ride on it.

* :class:`Standby` — its own device and log replica, plus an in-memory
  page set rolled forward record by record through the *shared* redo
  primitive (:func:`repro.core.single_page.replay_records`), with an
  ``applied_lsn`` watermark.  It reads each shipped record's header
  only and keeps no transaction table: promotion's restart analysis
  derives the losers from the adopted log.  The standby serves three
  roles:

  1. **fifth repair source** — :meth:`Standby.serve_page` hands the
     primary's single-page recovery a page already rolled forward, so
     a warm repair needs zero backup fetches and zero chain-replay
     records (see :class:`repro.core.single_page.SinglePageRecovery`);
  2. **ack target** — ``replicated_durable`` commits block on the
     shipper's ship-ack (:meth:`repro.wal.log_manager.LogManager.
     ensure_replicated`);
  3. **failover target** — :meth:`Standby.promote` installs the
     applied pages on the standby's device and opens a new
     :class:`repro.engine.database.Database` over the adopted device +
     log replica, running the *normal* restart machinery (analysis,
     redo, loser undo via the shared primitives) to finish recovery.

Shipping is by bytes: a batch is the encoding of every record from the
ship watermark to the shipping horizon, which the standby adopts at the
same LSNs.  Durable bytes never change (a commit bit is set only in the
volatile tail), and crash safety holds because the primary only ever
re-assigns LSNs that were never durable, hence never shipped.
"""

from __future__ import annotations

from repro.core.single_page import replay_records
from repro.engine.config import check_recovery_mode
from repro.errors import ReplicationError, ReproError
from repro.page.page import Page
from repro.sim.clock import SimClock
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.wal.log_manager import LogManager
from repro.wal.lsn import LOG_PAGE_SIZE, NULL_LSN
from repro.wal.records import PAGE_UPDATE_KINDS, read_header


#: the shipping granularities :class:`SegmentShipper` knows
SHIP_MODES = ("tail", "segment")


class SegmentShipper:
    """In-process shipping link from a primary log to a standby.

    Shares the log's mutex: shipping happens inside the force path
    (the mutex is reentrant), and using one lock for log and link
    state rules out lock-order inversions between concurrent
    committers' acks and the group-commit leader's force.
    """

    def __init__(self, log: LogManager, standby: "Standby",
                 mode: str = "tail") -> None:
        self.log = log
        self.standby = standby
        self.mode = mode
        self.link_up = True
        #: everything below this LSN has been shipped (and, since the
        #: in-process standby hardens a batch before the send returns,
        #: acknowledged)
        self.shipped_lsn = (standby.applied_lsn
                            if standby.applied_lsn else log.truncated_below)
        self.ships = 0
        self._mutex = log._mutex
        counter = log.stats.counter
        self._ship_batches = counter("ship_batches")
        self._ship_bytes = counter("ship_bytes")
        self._ship_acks = counter("ship_acks")
        self._ship_link_severs = counter("ship_link_severs")
        self._ship_link_restores = counter("ship_link_restores")
        self._ship_gap_breaks = counter("ship_gap_breaks")

    @property
    def acked_lsn(self) -> int:
        """In-process shipping acks synchronously: the ship watermark
        *is* the ack watermark."""
        return self.shipped_lsn

    def on_durable(self, durable_lsn: int) -> None:
        """Force hook: stream the newly durable tail to the standby."""
        with self._mutex:
            if not self.link_up or not self.standby.running:
                return
            target = durable_lsn
            if self.mode == "segment":
                target = min(target, self.log.sealed_lsn())
            self._ship_locked(target)

    def ship_until(self, lsn: int) -> None:
        """Flush the durable tail through ``lsn`` regardless of segment
        granularity — the blocking path of ``replicated_durable`` acks
        and failover catch-up.  Charges one ack round trip."""
        with self._mutex:
            if not self.link_up or not self.standby.running:
                return
            self._ship_locked(min(lsn, self.log.durable_lsn))
            # The waiting commit pays the ack round trip; background
            # shipping (on_durable) does not block anyone on it.
            self.log.clock.advance(
                self.log.profile.write_cost(LOG_PAGE_SIZE))
            self._ship_acks.inc()

    def sever(self) -> None:
        """Take the shipping link down; forces stop streaming."""
        self.link_up = False
        self._ship_link_severs.inc()

    def restore(self) -> None:
        """Bring the link back up and catch the standby up."""
        self.link_up = True
        self._ship_link_restores.inc()
        self.on_durable(self.log.durable_lsn)

    def _ship_locked(self, target: int) -> None:
        if target <= self.shipped_lsn:
            return
        if self.shipped_lsn < self.log.truncated_below:
            # The primary truncated past the ship watermark — the gap
            # can never be filled from records.  The standby is broken
            # until re-seeded; Checkpointer.log_retention_bound pins
            # truncation at this watermark exactly so this cannot
            # happen while the standby is alive.
            self.link_up = False
            self.standby.running = False
            self._ship_gap_breaks.inc()
            return
        batch = [(lsn, encoding) for lsn, encoding
                 in self.log.encodings_from(self.shipped_lsn) if lsn < target]
        nbytes = target - self.shipped_lsn
        # One sequential send per batch: the standby's log write.
        self.log.clock.advance(
            self.log.profile.write_cost(nbytes, sequential=True))
        self.standby.apply_encodings(batch)
        self.shipped_lsn = target
        self.ships += 1
        self._ship_batches.inc()
        self._ship_bytes.inc(nbytes)


class Standby:
    """A hot standby continuously applying the primary's shipped log."""

    def __init__(self, config, clock: SimClock, stats: Stats,  # noqa: ANN001
                 name: str = "standby0") -> None:
        self.config = config
        self.clock = clock
        self.stats = stats
        counter = stats.counter
        self._standby_seeds = counter("standby_seeds")
        self._standby_seed_bytes = counter("standby_seed_bytes")
        self._standby_pages_served = counter("standby_pages_served")
        self._standby_serve_lagging = counter("standby_serve_lagging")
        self._standby_crashes = counter("standby_crashes")
        self._standby_promotions = counter("standby_promotions")
        self.name = name
        #: the standby's own device; promotion installs the applied
        #: pages here and the promoted engine adopts it
        self.device = StorageDevice(
            name, config.page_size, config.capacity_pages, clock,
            config.device_profile, stats,
            proof_read=config.proof_read_writes)
        self.log = self._fresh_log()
        #: replica "buffer pool": every page the shipped chain touched,
        #: rolled forward to ``applied_lsn``
        self.pages: dict[int, Page] = {}
        self.applied_lsn = NULL_LSN
        self.records_applied = 0
        self.max_txn_seen = 0
        self.running = True

    def _fresh_log(self) -> LogManager:
        return LogManager(self.clock, self.config.log_profile, self.stats,
                          segment_bytes=self.config.log_segment_bytes)

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def seed_from(self, db) -> None:  # noqa: ANN001
        """Initial copy of the primary's state.

        Flushes and forces the primary first, so its device holds every
        page current to the durable log end; then copies verified page
        images (``Database.trusted_image``: the fetch path's verdict, and
        the pool's fix path for an image it refuses — as
        ``take_full_backup`` does) and
        adopts the retained durable log backlog into the standby's log
        replica.  Pages whose chains were truncated on the primary are
        covered by the images; everything after the seed arrives
        through the shipper.
        """
        db.flush_everything()
        db.log.force()
        page_size = self.config.page_size
        copied_bytes = 0
        for page_id in range(db.allocated_pages()):
            raw = db.device.raw_image(page_id)
            if raw is None:
                continue
            self.pages[page_id] = Page(page_size, db.trusted_image(
                page_id, raw, db.counters.standby_seed_images_repaired))
            copied_bytes += page_size
        # One sequential transfer of the seed images.
        self.clock.advance(self.config.device_profile.read_cost(
            copied_bytes, sequential=True))
        self.clock.advance(self.config.device_profile.write_cost(
            copied_bytes, sequential=True))
        durable = db.log.durable_lsn
        for lsn, encoding in db.log.encodings_from(db.log.truncated_below):
            if lsn >= durable:
                break
            self.log.adopt(lsn, encoding)
            txn_id = read_header(encoding)[2]
            if txn_id > self.max_txn_seen:
                self.max_txn_seen = txn_id
        self.applied_lsn = self.log.end_lsn
        self._standby_seeds.inc()
        self._standby_seed_bytes.inc(copied_bytes)

    # ------------------------------------------------------------------
    # Continuous apply
    # ------------------------------------------------------------------
    def apply_encodings(self, batch: list[tuple[int, bytes]]) -> None:
        """Adopt and apply one shipped batch — ``(lsn, encoding)`` of each
        record, in log order — through the shared redo primitive, which
        applies each page update from its bytes; every record is read by
        its header alone."""
        if not self.running:
            raise ReplicationError(f"standby '{self.name}' is down")
        for lsn, encoding in batch:
            self.log.adopt(lsn, encoding)
            kind, _commits, txn_id, page_id, _prev = read_header(encoding)
            if txn_id > self.max_txn_seen:
                self.max_txn_seen = txn_id
            if kind in PAGE_UPDATE_KINDS and page_id >= 0:
                page = self.pages.get(page_id)
                if page is None:
                    page = Page.format(self.config.page_size, page_id)
                    self.pages[page_id] = page
                try:
                    replay_records(page, [(lsn, encoding)])
                except ReproError as exc:
                    # Chain mismatch: the replica diverged.  Mark the
                    # standby broken — serving pages or promoting from
                    # a diverged replica would be worse than useless.
                    self.running = False
                    raise ReplicationError(
                        f"standby apply diverged at LSN {lsn} "
                        f"(page {page_id}): {exc}") from exc
            self.records_applied += 1
        self.applied_lsn = self.log.end_lsn

    # ------------------------------------------------------------------
    # Fifth repair source
    # ------------------------------------------------------------------
    def serve_page(self, page_id: int, min_lsn: int) -> Page | None:
        """A copy of the page if the replica has applied its chain at
        least through ``min_lsn``; ``None`` on any miss (standby down,
        page unknown, replica lagging).  Charges one replica read."""
        if not self.running:
            return None
        page = self.pages.get(page_id)
        if page is None:
            return None
        if min_lsn != NULL_LSN and page.page_lsn < min_lsn:
            self._standby_serve_lagging.inc()
            return None
        self.clock.advance(
            self.config.device_profile.read_cost(self.config.page_size))
        self._standby_pages_served.inc()
        return page.copy()

    # ------------------------------------------------------------------
    # Failure and failover
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """The standby process dies; its volatile state is gone.

        Everything here is volatile by construction (the device is only
        written at promotion), so a crashed standby must be re-seeded
        (:meth:`repro.engine.database.Database.attach_standby` again).
        """
        self.running = False
        self.pages.clear()
        self.log = self._fresh_log()
        self.applied_lsn = NULL_LSN
        self._standby_crashes.inc()

    def promote(self, restart_mode: str | None = None):  # noqa: ANN201 - Database
        """Failover: open the standby as the new primary.

        Installs the applied pages on the standby's device — one device
        request, so each run of consecutive page ids is one extent —
        then opens a :class:`~repro.engine.database.Database` over a
        :class:`~repro.engine.database.DurableState` of that device, the
        log replica and a new backup store (the path a crashed engine
        reopens by) and runs the normal restart machinery: analysis
        from the shipped master checkpoint, redo (a near no-op: the
        pages are already rolled forward), and loser undo through the
        shared primitives.  In-flight transactions whose commit never
        shipped are exactly the losers analysis finds.

        The promoted node then takes a fresh full backup:
        recovery-index entries shipped from the old primary reference
        *its* backup media, which the new primary does not have —
        dereferencing them would raise
        :class:`repro.errors.BackupRetired` and escalate.  The fresh
        backup re-covers every page locally.

        The standby is consumed: it stops running and its device and
        log now belong to the promoted engine.
        """
        from repro.core.backup import BackupStore
        from repro.engine.database import Database, DurableState

        if not self.running:
            raise ReplicationError(
                f"cannot promote standby '{self.name}': it is down")
        check_recovery_mode("restart mode",
                            restart_mode or self.config.restart_mode)
        with self.device.request():
            for page_id in sorted(self.pages):
                copy = self.pages[page_id].copy()
                copy.seal()
                self.device.write(page_id, copy.data)
        self._standby_promotions.inc()
        cfg = self.config
        # The adopted log names the old primary's full backups: number
        # the new store's past them.  Database.crash keeps a stored
        # backup only while the log names its id, so a reused id would
        # keep a backup whose own record was cut.
        backups = BackupStore(self.clock, cfg.backup_profile, self.stats,
                              cfg.page_size,
                              self.log.highest_full_backup_id() + 1)
        db = Database(cfg, clock=self.clock, stats=self.stats,
                      durable=DurableState(self.device, self.log, backups))
        db.tm.restore_txn_id_floor(self.max_txn_seen)
        db.restart(mode=restart_mode)
        db.take_full_backup()
        self.running = False
        return db
