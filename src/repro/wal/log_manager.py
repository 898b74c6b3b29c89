"""The append-only recovery log with stable-storage semantics.

The log manager owns:

* LSN assignment (byte offsets);
* the in-memory log buffer, held as fixed-size **segments** behind a
  :class:`repro.wal.segments.SegmentDirectory` — ``record_at`` and
  ``records_from`` cost one bisect over segments plus dict hits, never
  a scan of the whole log;
* the **per-page chain head index**: for every page, the LSN of its
  most recent chain record (UPDATE / COMPENSATION / FORMAT), kept
  current on append — this is what makes the per-page chain of the
  paper *addressable* without knowing the page's current PageLSN;
* an index of full-backup records so media recovery can locate a
  backup's log position without materializing the log;
* the *durable* prefix (``durable_lsn``) and force semantics:
  user-transaction commits force the log, system transactions do not
  (Figure 5) — their commits ride along with the next force;
* the **commit bit** (:meth:`LogManager.commit`): a record still in
  the volatile tail can be told it is its transaction's last, so a
  commit costs a force but no record of its own; a redo-only record,
  its transaction's only one, takes the bit as :meth:`append` places
  it;
* **group commit**: a commit-triggered force hardens the whole buffered
  tail in one sequential write, so ride-along records (system-txn
  commits, PRI updates, and — under ``TransactionManager.
  group_commit()`` — other transactions' commits) share the
  force they would otherwise each pay for;
* crash semantics: :meth:`crash` discards everything after the durable
  prefix, which is how experiments create torn states (e.g. a data
  page written but its PRI-update record lost, Figure 12).

The recovery log is stable storage (Section 5): forced records are
never lost and are not subject to fault injection.  Forces charge
sequential-write cost to the simulated clock.
"""

from __future__ import annotations

import threading
import time

from repro.errors import LogError, ReplicationLagError
from repro.sim.clock import SimClock
from repro.sim.iomodel import IOProfile
from repro.sim.stats import Stats
from repro.sync import ConditionMutex
from repro.wal.lsn import LOG_START, NULL_LSN
from repro.wal.records import CHAIN_KINDS as _CHAIN_KINDS
from repro.wal.records import LogRecord, LogRecordKind
from repro.wal.segments import DEFAULT_SEGMENT_BYTES, SegmentDirectory


class LogManager:
    """Segmented append-only log with an explicit durable prefix."""

    def __init__(self, clock: SimClock, profile: IOProfile, stats: Stats,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 group_commit: bool = True) -> None:
        self.clock = clock
        self.profile = profile
        #: a force is one sequential write, ``profile.write_cost(pending,
        #: sequential=True)``: its two terms read in place
        self._force_latency = profile.sequential_write_latency
        self._bandwidth = profile.bandwidth
        self.stats = stats
        counter = stats.counter
        self._log_records = counter("log_records")
        self._log_bytes = counter("log_bytes")
        self._log_forces = counter("log_forces")
        self._log_forced_bytes = counter("log_forced_bytes")
        self._group_commit_rider_bytes = counter("group_commit_rider_bytes")
        self._group_commit_leads = counter("group_commit_leads")
        self._group_commit_riders = counter("group_commit_riders")
        self._log_truncations = counter("log_truncations")
        self._log_bytes_truncated = counter("log_bytes_truncated")
        self._log_crashes = counter("log_crashes")
        self._standby_log_records = counter("standby_log_records")
        self._standby_log_bytes = counter("standby_log_bytes")
        self.group_commit = group_commit
        self._dir = SegmentDirectory(segment_bytes)
        self._chain_heads: dict[int, int] = {}
        #: FORMAT record LSN -> the chain head it displaced (page
        #: reuse); lets a crash that loses the FORMAT restore the old
        #: incarnation's head exactly, without rescanning the log.
        self._format_displaced: dict[int, int] = {}
        self._backup_full_lsns: dict[int, int] = {}
        self._next_lsn = LOG_START
        self._durable_lsn = NULL_LSN
        #: the record :meth:`append` placed last, where a commit's bit goes
        self._tail: LogRecord | None = None
        #: LSN of the most recent CHECKPOINT_END record; modelled as the
        #: log's "master record", which survives crashes.
        self.master_checkpoint_lsn = NULL_LSN
        #: log shipping (PR 7): when a ``SegmentShipper`` is attached,
        #: every force notifies it so the newly durable tail streams to
        #: the standby.  Only *durable* records ever ship — the standby
        #: must never apply a record the primary could still lose.
        self.shipper = None
        #: bumped whenever the log's content changes out from under its
        #: readers (crash discards the unforced tail and re-assigns the
        #: freed LSNs to different records).  :class:`LogReader` checks
        #: this before trusting its LRU cache, so a reader that
        #: survives a crash never treats a re-assigned log page as
        #: already read.
        self.invalidation_epoch = 0
        #: one mutex guards every append/force/truncate/crash mutation;
        #: it doubles as the cross-thread commit barrier's condition
        self._mutex = ConditionMutex()
        #: cross-thread group commit (enabled by ``Database.session()``):
        #: a committing thread becomes the *group leader* — it opens a
        #: short commit window, then forces the whole buffered tail in
        #: one write; concurrent committers become *riders*, blocking on
        #: the barrier until a force covers their commit LSN.  Off (the
        #: default), :meth:`commit_force` is the single-threaded path,
        #: byte-identical to the pre-concurrency engine.
        self.cross_thread_commit = False
        #: real seconds a group leader waits for riders to enqueue
        self.commit_window_seconds = 0.0
        self._force_leader_active = False
        #: window gating: the commit window only pays off once a second
        #: thread has ever committed — a strictly single-threaded phase
        #: (maintenance, recovery drains, benchmarks' 1-thread point)
        #: must never sleep per commit
        self._commit_thread_ident: int | None = None
        self._multi_committer = False

    # ------------------------------------------------------------------
    # Appending and forcing
    # ------------------------------------------------------------------
    @property
    def end_lsn(self) -> int:
        """LSN one past the last appended record."""
        return self._next_lsn

    @property
    def durable_lsn(self) -> int:
        """All records with lsn < durable_lsn survive a crash...

        More precisely: a record survives iff its *entire* encoding lies
        within the durable prefix, i.e. ``record.lsn + len <= durable``.
        Since forces always land on record boundaries here (a write-back
        forces through its PageLSN's record, :meth:`force_through`), the
        simpler ``lsn < durable_lsn`` test is equivalent.
        """
        return self._durable_lsn

    @property
    def segment_count(self) -> int:
        return self._dir.segment_count

    def append(self, record: LogRecord) -> int:
        """Assign an LSN, buffer the record, and return the LSN.

        Only the record's *size* is needed here (LSNs are byte
        offsets); the buffered tail holds decoded records, so the
        append path never materializes the serialized bytes.  A
        redo-only record (its transaction's only one) takes its
        commit bit here, in the hold that places it: no force can
        harden it without the bit.
        """
        size = record.encoded_size()
        with self._mutex:
            lsn = self._next_lsn
            record.lsn = lsn
            if record.redo_only:
                record.commits = True
            self._dir.append(lsn, record, size)
            self._next_lsn = lsn + size
            self._tail = record
            if record.page_id >= 0 and record.kind in _CHAIN_KINDS:
                if record.kind == LogRecordKind.FORMAT_PAGE:
                    self._format_displaced[lsn] = self._chain_heads.get(
                        record.page_id, NULL_LSN)
                self._chain_heads[record.page_id] = lsn
            elif record.kind == LogRecordKind.BACKUP_FULL:
                self._backup_full_lsns[record.backup_id] = lsn
        self._log_records.inc()
        self._log_bytes.inc(size)
        return lsn

    def commit(self, txn_id: int, last_lsn: int, system: bool = False,
               force: bool = True) -> int:
        """Log transaction ``txn_id``'s commit and, with ``force``, make
        it durable; returns the LSN of the record that carries it.

        The commit is a bit on the transaction's last record,
        ``last_lsn``, while that record is volatile: it hardens with the
        record, and a crash before the force loses both, as it would an
        unforced COMMIT record.  A redo-only record took its bit at
        append, so its commit is the force alone, hardened or not.  A
        hardened record (a rider's commit, a
        checkpoint, a PREPARE, a write-back's WAL force) is immutable and
        ``NULL_LSN`` names none: then a COMMIT (``system``: SYS_COMMIT)
        record is appended.  Bit and force are one log-mutex hold; the
        cross-thread barrier waits after it, with no lock held.
        """
        with self._mutex:
            record = self._tail
            if record is not None and record.lsn == last_lsn:
                end = self._next_lsn
            else:  # behind a later record (or none): look it up
                record, size = self._dir.entry(last_lsn) or (None, 0)
                end = last_lsn + size
            if (record is not None and record.txn_id == txn_id
                    and (record.redo_only or last_lsn >= self._durable_lsn
                         and record.kind in _CHAIN_KINDS)):
                record.commits = True
                lsn = last_lsn
            else:
                lsn = self.append(LogRecord(
                    LogRecordKind.SYS_COMMIT if system else LogRecordKind.COMMIT,
                    txn_id, last_lsn))
                end = self._next_lsn
            if force and not self.cross_thread_commit:
                self.commit_force(lsn, end)
                force = False
        if force:
            self.commit_force(lsn, end)
        return lsn

    def force(self, up_to_lsn: int | None = None) -> None:
        """Flush the log buffer to stable storage up to ``up_to_lsn``.

        A no-op if the prefix is already durable (group commit).  The
        cost model charges one sequential write for the pending bytes.
        """
        with self._mutex:
            target = self._next_lsn if up_to_lsn is None else min(
                max(up_to_lsn, self._durable_lsn), self._next_lsn)
            if target <= self._durable_lsn:
                return
            pending = target - self._durable_lsn
            self.clock.advance(self._force_latency + pending / self._bandwidth)
            self._log_forces.inc()
            self._log_forced_bytes.inc(pending)
            self._durable_lsn = target
        shipper = self.shipper
        if shipper is not None:
            shipper.on_durable(target)

    def force_through(self, lsn: int) -> None:
        """Force the log through the *end* of the record at ``lsn`` — the
        WAL rule for a page whose PageLSN is ``lsn``.  No record there
        (``NULL_LSN``, or one truncated away) means nothing to force:
        truncation never passes the durable prefix."""
        self.force(self._record_end(lsn))

    def _record_end(self, lsn: int) -> int:
        """The end of the record at ``lsn``: ``lsn`` itself when no
        record is retained there."""
        with self._mutex:
            entry = self._dir.entry(lsn)
        return lsn + (entry[1] if entry else 0)

    def commit_force(self, commit_lsn: int,
                     record_end: int | None = None) -> None:
        """Force on behalf of a commit carried by the record at
        ``commit_lsn`` (``record_end``: its end, when the caller knows).

        With group commit (the default) the force extends to the end of
        the buffer: every buffered record — ride-along system-txn
        commits, PRI updates, other batched commits — hardens in the
        same sequential write.  A commit whose record is already
        durable costs nothing.

        With :attr:`cross_thread_commit` enabled, concurrent committers
        share forces through the leader/rider barrier instead (see
        :meth:`_barrier_commit`); callers must not hold any other
        engine lock, as riders block until a leader's force covers them.
        """
        if record_end is None:
            record_end = self._record_end(commit_lsn)
        if self.cross_thread_commit:
            self._barrier_commit(record_end)
            return
        if record_end <= self._durable_lsn:
            return
        if self.group_commit:
            rider_bytes = self._next_lsn - record_end
            if rider_bytes > 0:
                self._group_commit_rider_bytes.inc(rider_bytes)
            self.force()
        else:
            self.force(record_end)

    def enable_cross_thread_commit(self, window_seconds: float = 0.0) -> None:
        """Switch :meth:`commit_force` to the leader/rider barrier.

        Called once per session creation; a second *thread* creating a
        session arms the commit window up front.  Arming it before the
        first contended commit matters: if early commits force without
        a window, the committers phase-lock into alternating cohorts
        and steady-state amortization permanently halves.
        """
        self.cross_thread_commit = True
        self.commit_window_seconds = window_seconds
        ident = threading.get_ident()
        with self._mutex:
            if self._commit_thread_ident is None:
                self._commit_thread_ident = ident
            elif ident != self._commit_thread_ident:
                self._multi_committer = True

    def _barrier_commit(self, record_end: int) -> None:
        """The cross-thread group-commit barrier.

        The first committer to find no force in progress becomes the
        *group leader*: it opens a commit window (riders append their
        commit records and join the barrier meanwhile), then forces the
        whole buffered tail in one sequential write.  A *rider* blocks
        until a force covers its record, then returns without forcing —
        its durability rode along.  A rider woken by a force that does
        not cover it (it appended during the force) takes over as the
        next leader, so forces-per-commit collapses as the number of
        committing threads grows.
        """
        ident = threading.get_ident()
        with self._mutex:
            if self._commit_thread_ident is None:
                self._commit_thread_ident = ident
            elif ident != self._commit_thread_ident:
                self._multi_committer = True
            rode_along = False
            while True:
                if record_end <= self._durable_lsn:
                    if rode_along:
                        self._group_commit_riders.inc()
                    return
                if not self._force_leader_active:
                    break
                rode_along = True
                self._mutex.wait()
            self._force_leader_active = True
            self._group_commit_leads.inc()
        try:
            # The window is skipped until a second committing thread
            # has ever been seen: strictly single-threaded phases
            # (maintenance, recovery drains) pay no wall-clock tax.
            if self.commit_window_seconds > 0 and self._multi_committer:
                time.sleep(self.commit_window_seconds)
        finally:
            with self._mutex:
                try:
                    rider_bytes = self._next_lsn - record_end
                    if rider_bytes > 0:
                        self._group_commit_rider_bytes.inc(rider_bytes)
                    if self.group_commit:
                        self.force()
                    else:
                        self.force(record_end)
                finally:
                    # Even a failed force must hand off leadership, or
                    # every later committer blocks forever.
                    self._force_leader_active = False
                    self._mutex.notify_all()

    def append_and_force(self, record: LogRecord) -> int:
        lsn = self.append(record)
        self.force()
        return lsn

    def ensure_replicated(self, commit_lsn: int) -> None:
        """Block a ``replicated_durable`` commit on its ship-ack.

        Called *after* the commit's force, so the ack rides the group-
        commit window: the leader's force already shipped the whole
        buffered tail in one batch and riders find their record acked.
        Raises :class:`ReplicationLagError` when the ack cannot be
        obtained (no standby attached, link severed, standby down);
        the commit remains locally durable either way.
        """
        shipper = self.shipper
        if shipper is None:
            raise ReplicationLagError(
                f"commit {commit_lsn}: replicated_durable requires an "
                f"attached standby")
        with self._mutex:
            entry = self._dir.entry(commit_lsn)
        record_end = commit_lsn + (entry[1] if entry else 0)
        shipper.ship_until(record_end)
        if shipper.acked_lsn < record_end:
            raise ReplicationLagError(
                f"commit {commit_lsn}: ship-ack stuck at "
                f"{shipper.acked_lsn} < {record_end} "
                f"(link severed or standby down)")

    def sealed_lsn(self) -> int:
        """Shipping horizon for segment-granular log shipping: the LSN
        below which every log segment has sealed (exhausted its
        encoded-byte budget)."""
        with self._mutex:
            return self._dir.sealed_below()

    def adopt(self, record: LogRecord) -> int:
        """Install a *shipped* record at its pre-assigned LSN.

        The standby's log replica never assigns LSNs — the primary
        already did.  Records must arrive gaplessly in LSN order (the
        first adopted record may sit above ``LOG_START``; the gap is
        the primary's truncated prefix, which the standby covers with
        seeded page images instead of records).  Adopted records are
        immediately durable: the ship-ack means the standby hardened
        them.  Maintains the same derived indexes as :meth:`append`.
        """
        lsn = record.lsn
        size = record.encoded_size()
        with self._mutex:
            if len(self._dir) == 0 and lsn >= self._next_lsn:
                if lsn > self._dir.truncated_below:
                    self._dir.truncate_below(lsn)
            elif lsn != self._next_lsn:
                raise LogError(
                    f"adoption gap: expected LSN {self._next_lsn}, "
                    f"got {lsn}")
            self._dir.append(lsn, record, size)
            self._next_lsn = lsn + size
            self._tail = record
            self._durable_lsn = self._next_lsn
            if record.page_id >= 0 and record.kind in _CHAIN_KINDS:
                if record.kind == LogRecordKind.FORMAT_PAGE:
                    self._format_displaced[lsn] = self._chain_heads.get(
                        record.page_id, NULL_LSN)
                self._chain_heads[record.page_id] = lsn
            elif record.kind == LogRecordKind.BACKUP_FULL:
                self._backup_full_lsns[record.backup_id] = lsn
            elif record.kind == LogRecordKind.CHECKPOINT_END:
                self.master_checkpoint_lsn = lsn
        self._standby_log_records.inc()
        self._standby_log_bytes.inc(size)
        return lsn

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def record_at(self, lsn: int) -> LogRecord:
        """The record at ``lsn`` (no cost accounting; see LogReader)."""
        with self._mutex:
            entry = self._dir.entry(lsn)
        if entry is None:
            raise LogError(f"no log record at LSN {lsn}")
        return entry[0]

    def has_record(self, lsn: int) -> bool:
        with self._mutex:
            return self._dir.entry(lsn) is not None

    def records_from(self, start_lsn: int) -> list[LogRecord]:
        """All records with ``lsn >= start_lsn`` in log order."""
        with self._mutex:
            return list(self._dir.iter_from(start_lsn))

    def all_records(self) -> list[LogRecord]:
        with self._mutex:
            return list(self._dir.iter_all())

    def encoded_size(self) -> int:
        """Total log volume in bytes."""
        return self._next_lsn - LOG_START

    # ------------------------------------------------------------------
    # Derived indexes
    # ------------------------------------------------------------------
    def page_chain_head(self, page_id: int) -> int:
        """LSN of the newest retained chain record for ``page_id``.

        ``NULL_LSN`` if the page has no retained chain — never updated,
        or its whole chain was truncated away behind a fresh backup.
        """
        with self._mutex:
            return self._chain_heads.get(page_id, NULL_LSN)

    def backup_full_lsn(self, backup_id: int) -> int | None:
        """Log position of the BACKUP_FULL record for ``backup_id``."""
        return self._backup_full_lsns.get(backup_id)

    # ------------------------------------------------------------------
    # Truncation (log head reclamation)
    # ------------------------------------------------------------------
    def truncate(self, before_lsn: int) -> int:
        """Discard records with ``lsn < before_lsn``; returns bytes freed.

        The caller must guarantee no retained structure needs the
        discarded records: the engine computes the bound from the page
        recovery index (no per-page chain may reach below the oldest
        backup of any covered page) and the oldest active transaction.
        Truncation never crosses the durable boundary backwards and
        keeps the master checkpoint record.
        """
        with self._mutex:
            limit = min(before_lsn, self._durable_lsn or before_lsn)
            if self.master_checkpoint_lsn:
                limit = min(limit, self.master_checkpoint_lsn)
            removed = self._dir.truncate_below(limit)
            if removed:
                self._chain_heads = {
                    pid: lsn for pid, lsn
                    in self._chain_heads.items() if lsn >= limit}
                self._format_displaced = {
                    lsn: (head if head >= limit else NULL_LSN)
                    for lsn, head in self._format_displaced.items()
                    if lsn >= limit}
                self._backup_full_lsns = {
                    bid: lsn for bid, lsn in self._backup_full_lsns.items()
                    if lsn >= limit}
        self._log_truncations.inc()
        self._log_bytes_truncated.inc(removed)
        return removed

    @property
    def truncated_below(self) -> int:
        """Records below this LSN have been reclaimed."""
        return self._dir.truncated_below

    def retained_bytes(self) -> int:
        """Log volume currently held (after truncation)."""
        return self._dir.total_bytes

    # ------------------------------------------------------------------
    # Crash semantics
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Discard all records beyond the durable prefix.

        Models a system failure: the log buffer vanishes; stable
        storage (the durable prefix and the master checkpoint pointer)
        survives.  Derived indexes are unwound against the lost tail —
        a page's chain head retreats along ``page_prev_lsn`` until it
        lands on a surviving record.
        """
        self._mutex.acquire()
        try:
            self._crash_locked()
        finally:
            self._mutex.release()
        self._log_crashes.inc()

    def _crash_locked(self) -> None:
        floor = self._durable_lsn if self._durable_lsn else LOG_START
        lost = self._dir.discard_from(floor)
        for record in lost:  # newest-first: heads retreat one hop at a time
            if record.page_id >= 0 and record.kind in _CHAIN_KINDS:
                is_format = record.kind == LogRecordKind.FORMAT_PAGE
                displaced = (self._format_displaced.pop(record.lsn, NULL_LSN)
                             if is_format else NULL_LSN)
                if self._chain_heads.get(record.page_id) == record.lsn:
                    # A lost FORMAT (page reuse) restores the displaced
                    # incarnation's head; other records retreat along
                    # their prev pointer.
                    prev = displaced if is_format else record.page_prev_lsn
                    if prev != NULL_LSN and prev >= self._dir.truncated_below:
                        self._chain_heads[record.page_id] = prev
                    else:
                        self._chain_heads.pop(record.page_id, None)
            elif record.kind == LogRecordKind.BACKUP_FULL:
                if self._backup_full_lsns.get(record.backup_id) == record.lsn:
                    self._backup_full_lsns.pop(record.backup_id, None)
        self._next_lsn = floor
        self._tail = None
        if self.master_checkpoint_lsn >= self._next_lsn:
            # The checkpoint record itself was never forced; fall back.
            self.master_checkpoint_lsn = NULL_LSN
        if lost:
            # The discarded LSNs will be re-assigned to *different*
            # records; any surviving LogReader must drop its LRU cache
            # or a post-crash (or post-failover) repair would treat a
            # re-written log page as already read.
            self.invalidation_epoch += 1

    # ------------------------------------------------------------------
    # Convenience constructors used across the engine
    # ------------------------------------------------------------------
    def log_checkpoint_end(self, checkpoint) -> int:  # noqa: ANN001
        lsn = self.append(LogRecord(LogRecordKind.CHECKPOINT_END,
                                    checkpoint=checkpoint))
        self.force()
        self.master_checkpoint_lsn = lsn
        return lsn
