"""Cost-accounted log reading, including per-page chain walks.

Reading the log during recovery is not free: the paper estimates that
single-page recovery "may take dozens of I/Os in order to read the
required log records" (Section 6).  :class:`LogReader` charges one
random read per *distinct log page* (8 KiB) it touches, with a small
LRU cache so that clustered records cost a single I/O — the same
accounting a real implementation with a log-page buffer would see.

Chain walks are defensive (Section 5.1.4): a record reached by
following ``page_prev_lsn`` pointers must belong to the same page and
strictly precede its successor, otherwise the chain is declared broken
and the caller escalates per Figure 8.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import RecoveryError
from repro.sim.clock import SimClock
from repro.sim.iomodel import IOProfile
from repro.sim.stats import Stats
from repro.sync import Mutex
from repro.wal.lsn import LOG_PAGE_SIZE, NULL_LSN, log_page_of
from repro.wal.log_manager import LogManager
from repro.wal.records import read_header


class LogReader:
    """Reads records from a :class:`LogManager`, charging I/O cost."""

    def __init__(self, log: LogManager, clock: SimClock, profile: IOProfile,
                 stats: Stats, cache_pages: int = 64) -> None:
        self.log = log
        self.clock = clock
        self.profile = profile
        self.stats = stats
        self._log_page_reads = stats.counter("log_page_reads")
        self._log_scans = stats.counter("log_scans")
        self.cache_pages = cache_pages
        self._cached: OrderedDict[int, None] = OrderedDict()  # LRU, O(1) touch
        self.pages_read = 0
        self.records_read = 0
        # Concurrent readers repairing different pages share this cache.
        self._mutex = Mutex()
        #: cache-coherence watermark against the log: truncation
        #: reclaims the head, so cached log pages below it no longer
        #: describe what a read would return and must be purged before
        #: they suppress a charge.  (A crash needs no watermark: the
        #: reader dies with the process, and the engine reopens over
        #: the log with a new one.)
        self._seen_truncated = log.truncated_below

    def _sync_cache_locked(self) -> None:
        truncated = self.log.truncated_below
        if truncated > self._seen_truncated:
            limit_page = log_page_of(truncated)
            for page in [p for p in self._cached if p < limit_page]:
                del self._cached[page]
            self._seen_truncated = truncated

    def _charge(self, lsn: int) -> None:
        with self._mutex:
            self._sync_cache_locked()
            page = log_page_of(lsn)
            if page in self._cached:
                self._cached.move_to_end(page)
                return
            self.clock.advance(self.profile.read_cost(LOG_PAGE_SIZE))
            self._log_page_reads.inc()
            self.pages_read += 1
            self._cached[page] = None
            if len(self._cached) > self.cache_pages:
                self._cached.popitem(last=False)

    def encoding(self, lsn: int) -> bytes:
        """Read one record's bytes, charging for its log page if
        uncached."""
        self._charge(lsn)
        self.records_read += 1
        return self.log.encoding_at(lsn)

    def chain_start_lsn(self, page_id: int, recorded_lsn: int | None) -> int:
        """Where the chain walk for ``page_id`` starts (Figure 9).

        The newer of the PRI's recorded LSN for the page — which "may
        fall behind" while the page is buffered (Figure 6) — and the
        log's chain-head index, which is exact for retained records.
        With neither (backup current, chain truncated) returns
        ``NULL_LSN`` and the walk is empty.
        """
        start = self.log.page_chain_head(page_id)
        if recorded_lsn is not None:
            start = max(start, recorded_lsn)
        return start

    def walk_page_chain(self, start_lsn: int, stop_after_lsn: int,
                        page_id: int | None = None
                        ) -> list[tuple[int, bytes]]:
        """Walk the per-page chain backwards and return ``(lsn,
        encoding)`` of its records oldest-first, each header read in
        place and each payload left encoded for
        :func:`repro.core.single_page.replay_records`.

        Follows ``page_prev_lsn`` pointers from ``start_lsn`` back while
        record LSNs are greater than ``stop_after_lsn`` (the PageLSN of
        the backup image).  Records are pushed on a stack and popped in
        apply order, implementing the LIFO step of Figure 10.

        The walk verifies chain integrity as it goes: every hop must
        stay on one page — the page being recovered, when the caller
        names it via ``page_id`` — and strictly decrease the LSN.  A
        violation raises :class:`RecoveryError`, which the recovery
        manager escalates to a media failure (Figure 8).
        """
        stack: list[tuple[int, bytes]] = []
        lsn = start_lsn
        chain_page: int | None = page_id
        while lsn != NULL_LSN and lsn > stop_after_lsn:
            encoding = self.encoding(lsn)
            _kind, _commits, _txn_id, record_page, prev_lsn = read_header(
                encoding)
            if chain_page is None:
                chain_page = record_page
            elif record_page != chain_page:
                raise RecoveryError(
                    f"per-page chain broken at LSN {lsn}: record belongs to "
                    f"page {record_page}, chain is for page {chain_page}")
            if prev_lsn >= lsn:
                raise RecoveryError(
                    f"per-page chain broken at LSN {lsn}: prev pointer "
                    f"{prev_lsn} does not decrease")
            stack.append((lsn, encoding))
            lsn = prev_lsn
        # Pop the stack: oldest record first.
        return list(reversed(stack))

    def scan_from(self, start_lsn: int) -> list[tuple]:
        """Sequential forward scan (analysis passes): ``(lsn, kind,
        commits, txn_id, page_id)`` of every record from ``start_lsn``
        on, in log order — the log's header walk
        (:meth:`LogManager.headers_from`), every body left in its
        segment for a pass to read in place where it applies it.  Charged at streaming cost for the byte range; an
        indexed range read, not a filter.
        """
        span = max(0, self.log.end_lsn - start_lsn)
        self.clock.advance(self.profile.read_cost(span, sequential=True))
        self._log_scans.inc()
        scanned = self.log.headers_from(start_lsn)
        self.records_read += len(scanned)
        return scanned
