"""The page-retrieval logic of Figure 8.

Reading a page after a buffer fault:

1. read the page from the device — an explicit device error is a
   single-page failure;
2. run the in-page tests (magic, checksum, header and indirection
   vector plausibility, embedded page id) — the single inspection
   :func:`repro.page.slotted.inspect_page`, in its fixed precedence,
   on the buffer the device handed over, which the page then adopts;
3. cross-check the PageLSN against the page recovery index (the
   "Gary Smith" check: a valid-looking but *stale* page — a lost
   write — fails here);
4. on any failure: if single-page failures are a supported class, run
   single-page recovery and hand the repaired page to the caller, who
   never learns anything happened beyond a short delay;
5. if recovery is unsupported or itself fails, escalate: "a
   traditional system offers no choice but declare a media failure" —
   and on a single-device node, a media failure *is* a system failure
   (Figure 1).

Steps 1-3 are :meth:`RecoveryManager.read` (2-3 alone, on bytes already
in hand: :meth:`RecoveryManager.inspect`), 4-5
:meth:`RecoveryManager.handle_failure`.  Whoever else consumes a device
image — restart redo, the scrubber, the full backup, the standby seed —
calls these; a weaker private verdict does not miss a failure, it
launders it into a dirty frame, a backup or a replica.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.core.failure_classes import FailureEvent, FailureOutcome
from repro.core.recovery_index import PartitionedRecoveryIndex
from repro.core.single_page import SinglePageRecovery
from repro.errors import (
    FailureClass,
    LogError,
    MediaFailure,
    PageFailureKind,
    RecoveryError,
    SinglePageFailure,
    SystemFailure,
)
from repro.page.page import Page
from repro.page.slotted import inspect_page
from repro.sim.clock import SimClock
from repro.sim.stats import Stats
from repro.storage.device import DeviceReadError, StorageDevice

#: how many :class:`FailureEvent` entries :attr:`RecoveryManager.events`
#: keeps
FAILURE_RING = 256


class RecoveryManager:
    """Implements Figure 8; used as the buffer pool's page fetcher."""

    def __init__(self, device: StorageDevice,
                 pri: PartitionedRecoveryIndex,
                 single_page: SinglePageRecovery | None,
                 clock: SimClock, stats: Stats,
                 events: deque[FailureEvent],
                 single_device_node: bool = False,
                 on_media_failure: Callable[[MediaFailure], None] | None = None,
                 pri_lsn_check: bool = True) -> None:
        self.device = device
        self.pri = pri
        self.single_page = single_page
        self.clock = clock
        self.stats = stats
        counter = stats.counter
        self._pages_fetched_clean = counter("pages_fetched_clean")
        self._pri_repaired_on_read = counter("pri_repaired_on_read")
        self._page_failures_detected = counter("page_failures_detected")
        self._spf_recovery_failures = counter("spf_recovery_failures")
        self._escalations_to_media = counter("escalations_to_media")
        self._escalations_to_system = counter("escalations_to_system")
        self.single_device_node = single_device_node
        self.on_media_failure = on_media_failure
        self.pri_lsn_check = pri_lsn_check
        #: the most recent repairs and escalations, oldest first: the
        #: engine's ring, which outlives this object across a crash (so
        #: an engine that repairs a page every few operations for days
        #: keeps only the last :data:`FAILURE_RING` of them)
        self.events = events

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------
    def fetch_page(self, page_id: int) -> Page:
        """:meth:`read`; recover or escalate on failure."""
        try:
            page = self.read(page_id)
            self._pages_fetched_clean.inc()
            return page
        except SinglePageFailure as failure:
            return self.handle_failure(failure)

    def read(self, page_id: int) -> Page:
        """Steps 1-3: the device's copy of the page, or the
        :class:`SinglePageFailure` that says why it cannot be trusted."""
        try:
            raw = self.device.read(page_id)
        except DeviceReadError as exc:
            raise SinglePageFailure(
                page_id, PageFailureKind.DEVICE_READ_ERROR, str(exc)) from exc
        self.inspect(page_id, raw)
        return Page.adopt(raw)

    def inspect(self, page_id: int, raw: bytes | bytearray) -> int:
        """Steps 2-3 on an image already in hand: every in-page test,
        then the PageLSN cross-check against the page recovery index.
        Returns the PageLSN."""
        actual = inspect_page(raw, page_id)
        expected = (self.pri.expected_page_lsn(page_id)
                    if self.pri_lsn_check else None)
        if expected is None or actual == expected:
            return actual
        if actual < expected:
            # The device returned an older version: a lost write that
            # every in-page test is structurally unable to catch.
            raise SinglePageFailure(
                page_id, PageFailureKind.STALE_LSN,
                f"PageLSN {actual} older than recovery index's {expected}")
        # The page is newer than the index believes — a PRI update was
        # lost (e.g. in a crash).  The page itself is fine; repair the
        # index (Figure 12's reconciliation, applied on the read path).
        self.pri.record_write(page_id, actual)
        self._pri_repaired_on_read.inc()
        return actual

    # ------------------------------------------------------------------
    # Failure handling and escalation (Figures 1 and 8)
    # ------------------------------------------------------------------
    def handle_failure(self, failure: SinglePageFailure) -> Page:
        """Dispatch a detected single-page failure.

        Returns the recovered page, or raises :class:`MediaFailure` /
        :class:`SystemFailure` after recording the escalation.
        """
        self._page_failures_detected.inc()
        if self.single_page is not None:
            try:
                start = self.clock.now
                page, result = self.single_page.recover(failure)
                self.events.append(FailureEvent(
                    page_id=failure.page_id,
                    detected_by=failure.kind.value,
                    outcome=FailureOutcome.RECOVERED_IN_PLACE,
                    failure_class=FailureClass.SINGLE_PAGE,
                    transactions_aborted=0,
                    pages_unavailable=0,
                    downtime_seconds=self.clock.now - start,
                    source=result.source,
                    records_replayed=result.records_applied,
                    log_pages_read=result.log_pages_read,
                    backup_fetches=result.backup_fetches,
                ))
                return page
            except (RecoveryError, LogError) as exc:
                # A chain record whose bytes encode nothing fails the
                # repair like a chain that does not connect.
                self._spf_recovery_failures.inc()
                self._escalate(failure, f"single-page recovery failed: {exc}")
        else:
            self._escalate(failure, "single-page failures unsupported")
        raise AssertionError("unreachable")  # pragma: no cover

    def _escalate(self, failure: SinglePageFailure, reason: str) -> None:
        """Figure 1: page failure -> media failure -> system failure."""
        media = MediaFailure(self.device.name,
                             f"page {failure.page_id}: {reason}")
        self._escalations_to_media.inc()
        if self.on_media_failure is not None:
            self.on_media_failure(media)
        if self.single_device_node:
            self._escalations_to_system.inc()
            self.events.append(FailureEvent(
                page_id=failure.page_id,
                detected_by=failure.kind.value,
                outcome=FailureOutcome.ESCALATED_TO_SYSTEM,
                failure_class=FailureClass.SYSTEM,
                pages_unavailable=self.device.capacity_pages,
                detail=reason,
            ))
            raise SystemFailure(
                f"media failure on only device '{self.device.name}': "
                f"{reason}") from media
        self.events.append(FailureEvent(
            page_id=failure.page_id,
            detected_by=failure.kind.value,
            outcome=FailureOutcome.ESCALATED_TO_MEDIA,
            failure_class=FailureClass.MEDIA,
            pages_unavailable=self.device.capacity_pages,
            detail=reason,
        ))
        raise media
