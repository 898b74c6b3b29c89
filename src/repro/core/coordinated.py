"""Coordinated recovery of multiple single-page failures.

Section 5.2: "it is perfectly possible that multiple pages fail and
that they be recovered at the same time. ... In the case of multiple
single-page failures, their recovery might be coordinated, e.g., with
respect to access to the recovery log ... if all pages on a storage
device require recovery at the same time, and if their recovery is
coordinated, then access patterns and performance of the recovery
process resemble those of traditional media recovery."

The paper leaves the variant open; this module implements the natural
design: walk every victim's per-page chain first (collecting the
records each page needs), *sharing* the log reader's page cache across
the walks so each distinct log page is fetched once; then fetch all
backup images; then replay; then write the recovered pages back in
page-id order (sequential).  As the victim set approaches the whole
device, the log access pattern degenerates into a full scan and the
write pattern into a sequential restore — media recovery's shape,
exactly as predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backup import BackupStore, fetch_backup_image
from repro.core.recovery_index import PartitionedRecoveryIndex, PageRecoveryIndex
from repro.core.single_page import replay_records
from repro.errors import RecoveryError
from repro.page.page import Page
from repro.sim.clock import SimClock
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.wal.log_reader import LogReader
from repro.wal.records import LogRecord


@dataclass
class CoordinatedResult:
    """Telemetry of one coordinated multi-page recovery."""

    pages_recovered: int = 0
    records_applied: int = 0
    log_pages_read: int = 0
    backup_fetches: int = 0
    elapsed_simulated: float = 0.0
    per_page_records: dict[int, int] = field(default_factory=dict)


class CoordinatedRecovery:
    """Batch variant of :class:`SinglePageRecovery`."""

    def __init__(self, pri: PageRecoveryIndex | PartitionedRecoveryIndex,
                 backup_store: BackupStore, log_reader: LogReader,
                 device: StorageDevice, clock: SimClock, stats: Stats) -> None:
        self.pri = pri
        self.backup_store = backup_store
        self.log_reader = log_reader
        self.device = device
        self.clock = clock
        self.stats = stats
        self._coordinated_recoveries = stats.counter("coordinated_recoveries")
        self._coordinated_pages_recovered = stats.counter(
            "coordinated_pages_recovered")

    def recover_many(self, page_ids: list[int]) -> CoordinatedResult:
        """Recover all of ``page_ids`` with shared log access.

        Raises :class:`RecoveryError` if any page lacks coverage — the
        caller escalates, as with the single-page variant.
        """
        start_time = self.clock.now
        pages_before = self.log_reader.pages_read
        result = CoordinatedResult()
        victims = sorted(set(page_ids))

        # Phase 1: look up every victim and fetch its backup image
        # (the image's own LSN, not the range entry's, bounds the walk).
        fetched: list[tuple[int, object, Page, int]] = []
        for page_id in victims:
            if not self.pri.covers(page_id):
                raise RecoveryError(
                    f"page {page_id} not covered by the page recovery index")
            entry = self.pri.lookup(page_id)
            if not entry.has_backup:
                raise RecoveryError(f"page {page_id} has no backup image")
            page, backup_lsn = fetch_backup_image(
                entry.backup_ref, page_id, self.device.page_size,
                self.backup_store, self.log_reader)
            result.backup_fetches += 1
            fetched.append((page_id, entry, page, backup_lsn))

        # Phase 2: walk all chains, sharing the log reader's page cache
        # so each distinct log page is fetched once for the whole batch.
        restored: list[tuple[int, Page, list[LogRecord]]] = []
        for page_id, entry, page, backup_lsn in fetched:
            start_lsn = self.log_reader.chain_start_lsn(page_id,
                                                        entry.last_lsn)
            records = self.log_reader.walk_page_chain(
                start_lsn, backup_lsn, page_id=page_id)
            restored.append((page_id, page, records))

        # Phase 3: replay, in memory, per page.
        for page_id, page, records in restored:
            applied = replay_records(page, records)
            result.records_applied += len(applied)
            result.per_page_records[page_id] = len(applied)

        # Phase 4: relocate and write back in page-id order (the
        # sequential access pattern of media recovery).
        for page_id, page, _records in restored:
            self.device.remap(page_id, "coordinated single-page recovery")
            page.seal()
            self.device.write(page_id, page.data, sequential=True)
            if hasattr(self.pri, "record_write"):
                self.pri.record_write(page_id, page.page_lsn)
            result.pages_recovered += 1

        result.log_pages_read = self.log_reader.pages_read - pages_before
        result.elapsed_simulated = self.clock.now - start_time
        self._coordinated_recoveries.inc()
        self._coordinated_pages_recovered.inc(result.pages_recovered)
        return result
