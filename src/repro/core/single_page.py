"""Single-page recovery — Section 5.2.3, Figure 10.

The procedure, for one failed page:

1. look up the page in the page recovery index (backup location +
   LSN of the most recent log record for the page);
2. fetch the backup image into the buffer pool;
3. follow the per-page log chain backwards from the PRI's LSN to the
   time the backup was taken, pushing pointers onto a last-in-first-out
   stack;
4. pop the stack and apply the "redo" actions oldest-first;
5. move the recovered page to a new location; quarantine the failed
   location on the bad-block list ("the failed page must not be
   recorded as a backup page in the page recovery index");
6. log a PRI update for the fresh write, exactly like any completed
   page write.

If any step fails, the caller escalates to a media failure (Figure 8) —
"it is always possible to treat the failure as a media failure".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backup import BackupStore, fetch_backup_image
from repro.core.recovery_index import PartitionedRecoveryIndex, PageRecoveryIndex
from repro.errors import RecoveryError, SinglePageFailure
from repro.page.page import Page
from repro.sim.clock import SimClock
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.wal.log_reader import LogReader
from repro.wal.records import LogRecord, LogRecordKind


@dataclass
class RecoveryResult:
    """Telemetry of one single-page recovery (Section 6 quantities)."""

    page_id: int
    new_sector: int
    records_applied: int = 0
    log_pages_read: int = 0
    backup_fetches: int = 1
    elapsed_simulated: float = 0.0
    applied_lsns: list[int] = field(default_factory=list)
    #: which source produced the image: ``"backup_chain"`` (one of the
    #: four backup sources plus per-page chain replay) or ``"replica"``
    #: (the hot standby served the page already rolled forward)
    source: str = "backup_chain"

    @property
    def total_random_ios(self) -> int:
        """The paper's 'dozens of I/Os ... plus one I/O for the backup
        page' count."""
        return self.log_pages_read + self.backup_fetches


class SinglePageRecovery:
    """Executes Figure 10 against the engine's components."""

    def __init__(self, pri: PageRecoveryIndex | PartitionedRecoveryIndex,
                 backup_store: BackupStore, log_reader: LogReader,
                 device: StorageDevice, clock: SimClock, stats: Stats,
                 standby=None) -> None:
        self.pri = pri
        self.backup_store = backup_store
        self.log_reader = log_reader
        self.device = device
        self.clock = clock
        self.stats = stats
        #: fifth repair source (PR 7): a hot standby tried *before* the
        #: four backup sources — it holds the page already rolled
        #: forward, so a hit needs zero chain-replay records
        self.standby = standby
        self.history: list[RecoveryResult] = []

    def recover(self, failure: SinglePageFailure) -> tuple[Page, RecoveryResult]:
        """Recover one failed page; returns the up-to-date page.

        Raises :class:`RecoveryError` if recovery is impossible (no PRI
        entry, missing backup, broken chain); the recovery manager then
        escalates per Figure 8.
        """
        page_id = failure.page_id
        start_time = self.clock.now
        pages_before = self.log_reader.pages_read
        self.stats.bump("single_page_recoveries")
        self.stats.bump(f"spf[{failure.kind.value}]")

        # Step 1: the page recovery index.
        if not self.pri.covers(page_id):
            raise RecoveryError(
                f"page {page_id} not covered by the page recovery index")
        entry = self.pri.lookup(page_id)

        # Fifth source, tried first (PR 7): a hot standby that has
        # applied the page's chain at least up to the LSN the repair
        # needs serves the page whole — zero backup fetch, zero chain
        # replay.  A miss (no standby, standby down, page absent or
        # lagging) falls through to the four backup sources below.
        needed_lsn = self.log_reader.chain_start_lsn(page_id, entry.last_lsn)
        if self.standby is not None:
            served = self.standby.serve_page(page_id, needed_lsn)
            if served is not None:
                new_sector = self.device.remap(
                    page_id, f"single-page failure: {failure.kind.value}")
                served.seal()
                self.device.write(page_id, served.data)
                result = RecoveryResult(
                    page_id=page_id,
                    new_sector=new_sector,
                    records_applied=0,
                    log_pages_read=self.log_reader.pages_read - pages_before,
                    backup_fetches=0,
                    elapsed_simulated=self.clock.now - start_time,
                    source="replica",
                )
                self.history.append(result)
                self.stats.bump("spf_from_replica")
                return served, result

        if not entry.has_backup:
            raise RecoveryError(f"page {page_id} has no backup image")

        # Step 2: restore the backup copy into the buffer pool.
        page, backup_lsn = fetch_backup_image(
            entry.backup_ref, page_id, self.device.page_size,
            self.backup_store, self.log_reader)
        if page.page_id != page_id:
            raise RecoveryError(
                f"backup image for page {page_id} claims id {page.page_id}")

        # Steps 3-4: walk the per-page chain back to the backup, then
        # apply the records oldest-first (the LIFO stack of Figure 10).
        # The start comes from the chain-head index where the PRI has
        # fallen behind, so updates logged since the last write-back
        # are replayed too instead of being lost with the dropped frame.
        records = self.log_reader.walk_page_chain(needed_lsn, backup_lsn,
                                                  page_id=page_id)
        applied = self._replay(page, records, backup_lsn)

        # Step 5: move the page to a new location; the failed location
        # goes to the bad-block list and is never used as a backup.
        new_sector = self.device.remap(page_id, f"single-page failure: "
                                                f"{failure.kind.value}")
        page.seal()
        self.device.write(page_id, page.data)

        result = RecoveryResult(
            page_id=page_id,
            new_sector=new_sector,
            records_applied=len(applied),
            log_pages_read=self.log_reader.pages_read - pages_before,
            elapsed_simulated=self.clock.now - start_time,
            applied_lsns=[record.lsn for record in applied],
        )
        self.history.append(result)
        self.stats.bump("spf_records_applied", len(applied))
        return page, result

    def roll_forward(self, page: Page) -> list[LogRecord]:
        """Chain-forward redo of a *stale but valid* page.

        The instant-restart variant of Figure 10: a page whose PageLSN
        trails its chain head is treated as an incipient single-page
        failure, except that the device copy itself serves as the
        backup image — no backup fetch, no remap, the device location
        is fine.  The per-page chain is walked back from its head to
        the page's current PageLSN and the missing updates are applied
        oldest-first.

        Raises :class:`RecoveryError` if the chain does not connect to
        the page's current state (the caller falls back to full
        recovery or to the analysis-pass record list).
        """
        page_id = page.page_id
        start_lsn = self.log_reader.chain_start_lsn(page_id, None)
        if start_lsn <= page.page_lsn:
            return []
        records = self.log_reader.walk_page_chain(start_lsn, page.page_lsn,
                                                  page_id=page_id)
        if (records and records[0].kind != LogRecordKind.FORMAT_PAGE
                and records[0].page_prev_lsn != page.page_lsn):
            raise RecoveryError(
                f"page {page_id} chain does not connect: oldest record "
                f"{records[0].lsn} expects PageLSN "
                f"{records[0].page_prev_lsn}, page has {page.page_lsn}")
        applied = self._replay(page, records, page.page_lsn)
        self.stats.bump("chain_forward_redos")
        self.stats.bump("chain_forward_records", len(applied))
        return applied

    @staticmethod
    def _replay(page: Page, records: list[LogRecord],
                backup_lsn: int) -> list[LogRecord]:
        """Apply redo actions oldest-first; defensive-programming checks
        on the chain ordering (Section 5.1.4: the per-page chain "can
        be exploited to verify the correct sequence of 'redo' actions")."""
        applied = []
        expected_prev = None
        for record in records:
            if expected_prev is not None and record.page_prev_lsn != expected_prev:
                raise RecoveryError(
                    f"per-page chain broken at LSN {record.lsn}: "
                    f"prev {record.page_prev_lsn} != expected {expected_prev}")
            expected_prev = record.lsn
            if record.lsn <= page.page_lsn:
                # Already reflected in the backup image.
                continue
            if record.kind == LogRecordKind.FULL_PAGE_IMAGE:
                from repro.wal.records import decompress_image
                page.load_image(decompress_image(record.image or b""))
                page.page_lsn = record.lsn
            elif record.op is not None:
                record.op.apply_redo(page)
                page.page_lsn = record.lsn
            else:
                continue
            applied.append(record)
        return applied
