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

Section 5.2's coordinated recovery of many failed pages is the same
procedure (:meth:`SinglePageRecovery.recover_many`): fetch every backup
image, walk every chain over one shared log-page cache, replay, then
write back in page-id order — as the victims approach the whole device,
media recovery's access pattern, as the paper predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backup import BackupStore, fetch_backup_image
from repro.core.recovery_index import PartitionedRecoveryIndex, PriEntry
from repro.errors import PageFailureKind, RecoveryError, SinglePageFailure
from repro.page.page import Page
from repro.sim.clock import SimClock
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.wal.log_reader import LogReader
from repro.wal.ops import redo
from repro.wal.records import (CHAIN_KINDS, LogRecordKind, decompress_image,
                               op_span, page_image, read_header)


def replay_records(page: Page, records: list[tuple[int, bytes]]) -> list[int]:
    """Bring ``page`` current: apply the updates it is missing from
    ``records`` — ``(lsn, encoding)`` of each, oldest first — and return
    the LSNs applied.

    The one replay loop behind every recovery — steps 3-4 of Figure 10,
    restart redo, media restore, standby apply.  ``records`` is the
    page's chain or the analysis pass's log-order list for it; the two
    orders coincide per page.  Each record's header is read in place and
    its page op applied from its bytes by the op kind's kernel
    (:func:`repro.wal.ops.redo`), as the write that logged it applied
    them; no record object is built.  Records the image already reflects
    (decided by the PageLSN) are skipped, and every applied record must
    find exactly the PageLSN its ``page_prev_lsn`` predicts — the
    defensive check of Section 5.1.4, raised as :class:`RecoveryError`.
    A formatting record is a chain root: it resets the page whatever
    the old incarnation holds, its update counter included
    (:meth:`repro.txn.manager.TransactionManager.log_format`).  A
    full-page image is current as of its recorded PageLSN (or, when
    that could only be assigned after the record was appended, as of
    its own LSN), exactly as
    :func:`repro.core.backup.fetch_backup_image` reads it.

    Bytes that are no record, or no op, are :class:`LogError`; a page
    whose replay raised may hold part of a record, and its caller drops
    it.
    """
    applied: list[int] = []
    for lsn, data in records:
        kind, _commits, _txn_id, _page_id, page_prev_lsn = read_header(data)
        if kind == LogRecordKind.FULL_PAGE_IMAGE:
            page_lsn, image = page_image(data)
            as_of = page_lsn if page_lsn else lsn
            if page.page_lsn < as_of:
                page.load_image(decompress_image(image, page.size))
                if page.page_lsn != as_of:  # the setter counts an update
                    page.page_lsn = as_of
                applied.append(lsn)
            continue
        if kind not in CHAIN_KINDS or page.page_lsn >= lsn:
            continue
        start, end, run_rows = op_span(data, kind)
        if start == end:
            continue
        formats = kind == LogRecordKind.FORMAT_PAGE
        if not formats and page_prev_lsn != page.page_lsn:
            raise RecoveryError(
                f"redo chain mismatch on page {page.page_id}: record "
                f"{lsn} expects PageLSN {page_prev_lsn}, "
                f"page has {page.page_lsn}")
        redo(page, data, start, end)
        page.page_lsn = lsn
        if formats:
            page.reset_update_count()  # as formatting it in place does
        if run_rows:
            page.count_updates(run_rows)  # a leaf run's rows
        applied.append(lsn)
    return applied


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


@dataclass
class CoordinatedResult:
    """Telemetry of one coordinated multi-page recovery."""

    pages_recovered: int = 0
    records_applied: int = 0
    log_pages_read: int = 0
    backup_fetches: int = 0
    elapsed_simulated: float = 0.0
    per_page_records: dict[int, int] = field(default_factory=dict)


class SinglePageRecovery:
    """Executes Figure 10 against the engine's components."""

    def __init__(self, pri: PartitionedRecoveryIndex,
                 backup_store: BackupStore, log_reader: LogReader,
                 device: StorageDevice, clock: SimClock, stats: Stats,
                 standby=None) -> None:
        self.pri = pri
        self.backup_store = backup_store
        self.log_reader = log_reader
        self.device = device
        self.clock = clock
        self.stats = stats
        counter = stats.counter
        self._single_page_recoveries = counter("single_page_recoveries")
        self._spf_by_kind = {kind: counter(f"spf[{kind.value}]")
                             for kind in PageFailureKind}
        self._spf_from_replica = counter("spf_from_replica")
        self._spf_records_applied = counter("spf_records_applied")
        self._coordinated_recoveries = counter("coordinated_recoveries")
        self._coordinated_pages_recovered = counter(
            "coordinated_pages_recovered")
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
        self._single_page_recoveries.inc()
        self._spf_by_kind[failure.kind].inc()

        entry = self._entry(page_id)

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
                self._spf_from_replica.inc()
                return served, result

        page, backup_lsn = self._backup_image(page_id, entry)

        # Steps 3-4: walk the per-page chain back to the backup, then
        # apply the records oldest-first (the LIFO stack of Figure 10).
        # The start comes from the chain-head index where the PRI has
        # fallen behind, so updates logged since the last write-back
        # are replayed too instead of being lost with the dropped frame.
        records = self.log_reader.walk_page_chain(needed_lsn, backup_lsn,
                                                  page_id=page_id)
        applied = replay_records(page, records)

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
            applied_lsns=applied,
        )
        self.history.append(result)
        self._spf_records_applied.inc(len(applied))
        return page, result

    def recover_many(self, page_ids: list[int]) -> CoordinatedResult:
        """Recover all of ``page_ids`` with shared log access; raises
        :class:`RecoveryError` as :meth:`recover` does."""
        start_time = self.clock.now
        pages_before = self.log_reader.pages_read
        result = CoordinatedResult()
        fetched = []
        for page_id in sorted(set(page_ids)):
            entry = self._entry(page_id)
            fetched.append((page_id, entry, *self._backup_image(page_id, entry)))
            result.backup_fetches += 1
        # The walks share the log reader's page cache: each distinct log
        # page is fetched once for the whole batch.
        restored = []
        for page_id, entry, page, backup_lsn in fetched:
            start_lsn = self.log_reader.chain_start_lsn(page_id, entry.last_lsn)
            restored.append((page_id, page, self.log_reader.walk_page_chain(
                start_lsn, backup_lsn, page_id=page_id)))
        for page_id, page, records in restored:
            applied = len(replay_records(page, records))
            result.records_applied += applied
            result.per_page_records[page_id] = applied
        # Write back in page-id order: media recovery's sequential pattern.
        for page_id, page, _records in restored:
            self.device.remap(page_id, "coordinated single-page recovery")
            page.seal()
            self.device.write(page_id, page.data, sequential=True)
            self.pri.record_write(page_id, page.page_lsn)
            result.pages_recovered += 1
        result.log_pages_read = self.log_reader.pages_read - pages_before
        result.elapsed_simulated = self.clock.now - start_time
        self._coordinated_recoveries.inc()
        self._coordinated_pages_recovered.inc(result.pages_recovered)
        return result

    def _entry(self, page_id: int) -> PriEntry:
        """Step 1: the page's entry in the page recovery index."""
        if not self.pri.covers(page_id):
            raise RecoveryError(
                f"page {page_id} not covered by the page recovery index")
        return self.pri.lookup(page_id)

    def _backup_image(self, page_id: int, entry: PriEntry) -> tuple[Page, int]:
        """Step 2: the backup image and the PageLSN it is current as of."""
        if not entry.has_backup:
            raise RecoveryError(f"page {page_id} has no backup image")
        return fetch_backup_image(entry.backup_ref, page_id,
                                  self.device.page_size, self.backup_store,
                                  self.log_reader)
