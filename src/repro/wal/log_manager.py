"""The append-only recovery log with stable-storage semantics.

The log manager owns:

* LSN assignment (byte offsets);
* the in-memory log buffer: every record's encoding, written once by
  :meth:`LogManager.append` into fixed-size **segments** behind a
  :class:`repro.wal.segments.SegmentDirectory`.  The log keeps bytes,
  never record objects: ``encoding_at`` and ``encodings_from`` find a
  record's bytes (one bisect over segments and one within a segment,
  never a scan of the whole log), and the readers of
  :mod:`repro.wal.records` read each field in place, a
  :class:`repro.errors.LogError` for bytes that encode no record;
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
  the volatile tail can be told it is its transaction's last — the high
  bit of its buffered kind byte, flipped in place — so a commit costs a
  force but no record of its own; a redo-only record, its transaction's
  only one, is encoded with the bit;
* **group commit**: a commit-triggered force hardens the whole buffered
  tail in one sequential write, so ride-along records (system-txn
  commits, PRI updates, and — under ``TransactionManager.
  group_commit()`` — other transactions' commits) share the
  force they would otherwise each pay for;
* crash semantics: :meth:`crash` discards everything after the durable
  prefix, which is how experiments create torn states (e.g. a data
  page written but its PRI-update record lost, Figure 12), and rebuilds
  both indexes from the headers of the records it keeps — what a crash
  leaves is the log's bytes, and the indexes are a function of them.

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
from repro.wal.records import (COMMITS_BIT, KIND_BITS, NARROW_HEADER, NO_PAGE,
                               WIDE_BIT, WIDE_HEADER, LogRecordKind,
                               checkpoint_end, full_backup_id, read_header,
                               txn_end)
from repro.wal.segments import DEFAULT_SEGMENT_BYTES, SegmentDirectory

_UPDATE = LogRecordKind.UPDATE


class LogManager:
    """Segmented append-only log with an explicit durable prefix."""

    def __init__(self, clock: SimClock, profile: IOProfile, stats: Stats,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
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
        self._dir = SegmentDirectory(segment_bytes)
        self._chain_heads: dict[int, int] = {}
        self._backup_full_lsns: dict[int, int] = {}
        self._next_lsn = LOG_START
        self._durable_lsn = NULL_LSN
        #: ``(lsn, txn_id, segment)`` of the last record: a commit's bit
        self._tail: tuple | None = None
        #: LSN of the most recent CHECKPOINT_END record; modelled as the
        #: log's "master record", which survives crashes.
        self.master_checkpoint_lsn = NULL_LSN
        #: log shipping (PR 7): when a ``SegmentShipper`` is attached,
        #: every force notifies it so the newly durable tail streams to
        #: the standby.  Only *durable* records ever ship — the standby
        #: must never apply a record the primary could still lose.
        self.shipper = None
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

    def append(self, data: bytes) -> int:
        """Assign an LSN, write ``data`` — a record's bytes, as its
        kind's builder in :mod:`repro.wal.records` wrote them — once into
        the buffered tail, and return the LSN.  A redo-only record
        carries its commit bit in those bytes: no force hardens it
        without."""
        # The header, read in place: its builder wrote it a moment ago.
        kind = data[0]
        _, _, txn_id, _, page_id, _, _ = (
            WIDE_HEADER if kind & WIDE_BIT else NARROW_HEADER).unpack_from(data)
        if page_id == NO_PAGE and not kind & WIDE_BIT:
            page_id = -1
        kind &= KIND_BITS
        size = len(data)
        with self._mutex:
            lsn = self._next_lsn
            self._tail = (lsn, txn_id, self._dir.append(lsn, data))
            self._next_lsn = lsn + size
            if kind == _UPDATE and page_id >= 0:
                self._chain_heads[page_id] = lsn  # every put: inline
            else:
                self._index_locked(lsn, kind, page_id)
        self._log_records.inc()
        self._log_bytes.inc(size)
        return lsn

    def _index_locked(self, lsn: int, kind: int, page_id: int) -> None:
        """Index the record at ``lsn``, newer than every record indexed
        before it: its page's chain head, or a full backup's position."""
        if kind in _CHAIN_KINDS:
            if page_id >= 0:
                self._chain_heads[page_id] = lsn
        elif kind == LogRecordKind.BACKUP_FULL:
            self._backup_full_lsns[full_backup_id(*self._dir.locate(lsn))] = lsn

    def commit(self, txn_id: int, last_lsn: int, system: bool = False,
               force: bool = True) -> int:
        """Log transaction ``txn_id``'s commit and, with ``force``, make
        it durable; returns the LSN of the record that carries it.

        The commit is a bit on the transaction's last record,
        ``last_lsn``, while that record is volatile: it hardens with the
        record, and a crash before the force loses both, as it would an
        unforced COMMIT record.  A redo-only record was encoded with its
        bit, so its commit is the force alone, hardened or not.  A
        hardened record (a rider's commit, a
        checkpoint, a PREPARE, a write-back's WAL force) is immutable and
        ``NULL_LSN`` names none: then a COMMIT (``system``: SYS_COMMIT)
        record is appended.  Bit and force are one log-mutex hold; the
        cross-thread barrier waits after it, with no lock held.
        """
        with self._mutex:
            tail = self._tail
            if tail is not None and tail[0] == last_lsn:
                _lsn, owner, segment = tail
                buffer, start = segment.data, last_lsn - segment.base_lsn
                end = self._next_lsn
            else:  # behind a later record (or none): look it up
                located = self._dir.locate(last_lsn)
                owner = None
                if located is not None:
                    buffer, start, stop = located
                    owner = read_header(buffer, start, stop)[2]
                    end = last_lsn + stop - start
            kind_byte = buffer[start] if owner == txn_id else 0
            if kind_byte & COMMITS_BIT or (
                    last_lsn >= self._durable_lsn
                    and kind_byte & KIND_BITS in _CHAIN_KINDS):
                # The bit: the high bit of the buffered kind byte.  A
                # redo-only record was encoded with it.
                buffer[start] = kind_byte | COMMITS_BIT
                lsn = last_lsn
            else:
                lsn = self.append(txn_end(
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
        record is retained there and ``lsn`` lies within the durable
        prefix.  Past it, an LSN where no record starts is a
        :class:`LogError`: forcing through it would harden part of a
        record."""
        with self._mutex:
            located = self._dir.locate(lsn)
            if located is None and lsn > self._durable_lsn:
                raise LogError(f"no log record starts at LSN {lsn}, past "
                               f"the durable prefix {self._durable_lsn}")
        return lsn + (located[2] - located[1] if located else 0)

    def commit_force(self, commit_lsn: int,
                     record_end: int | None = None) -> None:
        """Force on behalf of a commit carried by the record at
        ``commit_lsn`` (``record_end``: its end, when the caller knows).

        The force extends to the end of the buffer (group commit): every
        buffered record — ride-along system-txn commits, PRI updates,
        other batched commits — hardens in the same sequential write.
        A commit whose record is already durable costs nothing.

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
        rider_bytes = self._next_lsn - record_end
        if rider_bytes > 0:
            self._group_commit_rider_bytes.inc(rider_bytes)
        self.force()

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
                    self.force()
                finally:
                    # Even a failed force must hand off leadership, or
                    # every later committer blocks forever.
                    self._force_leader_active = False
                    self._mutex.notify_all()

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
        record_end = self._record_end(commit_lsn)
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

    def adopt(self, lsn: int, encoding: bytes) -> int:
        """Install a *shipped* record's bytes at its pre-assigned LSN.

        The standby's log replica never assigns LSNs — the primary
        already did.  Records must arrive gaplessly in LSN order (the
        first adopted record may sit above ``LOG_START``; the gap is
        the primary's truncated prefix, which the standby covers with
        seeded page images instead of records).  Adopted records are
        immediately durable: the ship-ack means the standby hardened
        them.  Maintains the same derived indexes as :meth:`append`;
        bytes whose header encodes no record are a :class:`LogError`.
        """
        kind, _commits, _txn_id, page_id, _prev = read_header(encoding)
        size = len(encoding)
        with self._mutex:
            if len(self._dir) == 0 and lsn >= self._next_lsn:
                if lsn > self._dir.truncated_below:
                    self._dir.truncate_below(lsn)
            elif lsn != self._next_lsn:
                raise LogError(
                    f"adoption gap: expected LSN {self._next_lsn}, "
                    f"got {lsn}")
            self._dir.append(lsn, encoding)
            self._next_lsn = lsn + size
            self._durable_lsn = self._next_lsn
            self._index_locked(lsn, kind, page_id)
            if kind == LogRecordKind.CHECKPOINT_END:
                self.master_checkpoint_lsn = lsn
        self._standby_log_records.inc()
        self._standby_log_bytes.inc(size)
        return lsn

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def encoding_at(self, lsn: int) -> bytes:
        """The bytes of the record at ``lsn``, undecoded (no cost
        accounting; see LogReader)."""
        with self._mutex:
            located = self._dir.locate(lsn)
            if located is not None:
                data, start, end = located
                return bytes(data[start:end])
        raise LogError(f"no log record at LSN {lsn}")

    def has_record(self, lsn: int) -> bool:
        with self._mutex:
            return self._dir.locate(lsn) is not None

    def encodings_from(self, start_lsn: int) -> list[tuple[int, bytearray]]:
        """``(lsn, encoding)`` of every record with ``lsn >= start_lsn``,
        in log order, undecoded (:func:`repro.wal.records.read_header`
        reads one's header in place)."""
        with self._mutex:
            return self._dir.encodings_from(start_lsn)

    def headers_from(self, start_lsn: int) -> list[tuple]:
        """``(lsn, kind, commits, txn_id, page_id)`` of every record with
        ``lsn >= start_lsn``, in log order: the log's one header walk,
        each header read in place in its segment
        (:func:`repro.wal.records.read_header`: bytes that are no record
        are a :class:`LogError`), no record sliced or decoded."""
        with self._mutex:
            return self._headers_locked(start_lsn)

    def _headers_locked(self, start_lsn: int) -> list[tuple]:
        headers = []
        for segment, first in self._dir.runs_from(start_lsn):
            data, base, starts = segment.data, segment.base_lsn, segment.starts
            ends = starts[first + 1:]
            ends.append(base + len(data))
            headers += [(lsn, *read_header(data, lsn - base, end - base)[:4])
                        for lsn, end in zip(starts[first:], ends)]
        return headers

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

    def highest_full_backup_id(self) -> int:
        """The highest backup id a retained BACKUP_FULL record names
        (0: none)."""
        return max(self._backup_full_lsns, default=0)

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
            limit = min(before_lsn, self._durable_lsn)
            if self.master_checkpoint_lsn:
                limit = min(limit, self.master_checkpoint_lsn)
            removed = self._dir.truncate_below(limit)
            self._tail = None
            if removed:
                self._chain_heads = {
                    pid: lsn for pid, lsn
                    in self._chain_heads.items() if lsn >= limit}
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
        survives.  The derived indexes are rebuilt from the headers of
        the records kept, oldest first, through :meth:`_index_locked`
        as :meth:`append` built them; a kept header that encodes no
        record is a :class:`LogError`.
        """
        with self._mutex:
            floor = self._durable_lsn if self._durable_lsn else LOG_START
            self._dir.discard_from(floor)
            self._next_lsn = floor
            self._tail = None
            if self.master_checkpoint_lsn >= floor:
                # The checkpoint record itself was never forced; fall back.
                self.master_checkpoint_lsn = NULL_LSN
            self._chain_heads = {}
            self._backup_full_lsns = {}
            for lsn, kind, _commits, _txn_id, page_id in (
                    self._headers_locked(NULL_LSN)):
                self._index_locked(lsn, kind, page_id)
        self._log_crashes.inc()

    # ------------------------------------------------------------------
    # Convenience constructors used across the engine
    # ------------------------------------------------------------------
    def log_checkpoint_end(self, checkpoint) -> int:  # noqa: ANN001
        lsn = self.append(checkpoint_end(checkpoint))
        self.force()
        self.master_checkpoint_lsn = lsn
        return lsn
