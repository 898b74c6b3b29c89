"""Disk scrubbing: proactive verification of stored pages.

Bairavasundaram et al. (the paper's motivation) found that a majority
of latent sector errors are discovered "during 'disk scrubbing', i.e.,
occasional re-reading of all disk pages to verify their contents by
their checksums".  The scrubber does exactly that — and, unlike the
offline utilities of Section 2, it can hand every failed page straight
to single-page recovery, so damage is repaired the moment it is found
rather than reported to an administrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.recovery_manager import RecoveryManager
from repro.errors import MediaFailure, PageFailureKind, SinglePageFailure, SystemFailure
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice


@dataclass
class ScrubReport:
    """Outcome of one scrubbing pass."""

    pages_scanned: int = 0
    pages_skipped: int = 0
    failures_found: int = 0
    failures_repaired: int = 0
    failures_by_kind: dict[str, int] = field(default_factory=dict)
    unrepairable: list[int] = field(default_factory=list)

    def note_failure(self, kind: PageFailureKind) -> None:
        self.failures_found += 1
        self.failures_by_kind[kind.value] = (
            self.failures_by_kind.get(kind.value, 0) + 1)


class Scrubber:
    """Scans a page range, verifying and optionally repairing."""

    def __init__(self, device: StorageDevice, manager: RecoveryManager,
                 stats: Stats,
                 skip: Callable[[int], bool] | None = None) -> None:
        self.device = device
        self.manager = manager
        self.stats = stats
        self._scrub_passes = stats.counter("scrub_passes")
        self._scrub_failures_found = stats.counter("scrub_failures_found")
        self.skip = skip or (lambda page_id: False)

    def scrub(self, first_page: int, last_page: int,
              repair: bool = True) -> ScrubReport:
        """Verify pages in ``[first_page, last_page)``.

        With ``repair``, failed pages go through single-page recovery
        immediately; without it, the pass only reports (like a classic
        verification utility).
        """
        report = ScrubReport()
        for page_id in range(first_page, last_page):
            if self.skip(page_id):
                report.pages_skipped += 1
                continue
            if self.device.raw_image(page_id) is None:
                # Never written: nothing on the medium to verify.
                report.pages_skipped += 1
                continue
            report.pages_scanned += 1
            failure = self._verify_one(page_id)
            if failure is None:
                continue
            report.note_failure(failure.kind)
            self._scrub_failures_found.inc()
            if not repair:
                continue
            try:
                self.manager.handle_failure(failure)
                report.failures_repaired += 1
            except (MediaFailure, SystemFailure):
                report.unrepairable.append(page_id)
                raise
        self._scrub_passes.inc()
        return report

    def scrub_incremental(self, cursor: int, budget_pages: int,
                          last_page: int, repair: bool = True
                          ) -> tuple[int, ScrubReport]:
        """Continuous scrubbing with a per-call page budget.

        Borisov et al. (cited in Section 2) advocate running integrity
        checks "proactively and continuously" at bounded cost; this is
        the scrubbing variant of that idea: each call verifies at most
        ``budget_pages`` starting at ``cursor`` and returns the next
        cursor (wrapping at ``last_page``), so a background loop can
        amortize a full device pass over many idle slices.
        """
        if last_page <= 0:
            return 0, ScrubReport()
        cursor %= last_page
        end = min(cursor + budget_pages, last_page)
        report = self.scrub(cursor, end, repair=repair)
        next_cursor = end % last_page
        return next_cursor, report

    def _verify_one(self, page_id: int) -> SinglePageFailure | None:
        """The fetch path's verdict, reported instead of acted on."""
        try:
            self.manager.read(page_id)
        except SinglePageFailure as failure:
            return failure
        return None
