"""SQL Server-style automatic page repair via database mirroring.

Section 2: "If a page within a mirror is found to be inconsistent, it
is automatically replaced by the corresponding page in the primary
copy.  If a page in the primary copy is inconsistent, it is frozen
until the mirror has applied the entire stream of log records,
whereupon the page is replaced by an up-to-date copy of the page from
the mirror.  Note that the recovery log is applied to the entire
mirror database, not just the individual page that requires repair,
and that the recovery process completely fails to exploit the per-page
log chain already present in the ... recovery log."

:class:`LogShippingMirror` models the mirror: a full second copy of
the database kept (lazily) current by replaying the shipped log.  Its
:meth:`repair_page` first forces the mirror to catch up on the *whole*
outstanding log stream — every record for every page, not just the
failed one — and only then serves the replacement page.  Contrast with
:class:`repro.core.single_page.SinglePageRecovery`, which reads only
the failed page's chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.single_page import replay_records
from repro.errors import RecoveryError
from repro.page.page import Page
from repro.sim.clock import SimClock
from repro.sim.iomodel import IOProfile
from repro.sim.stats import Stats
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecordKind


@dataclass
class MirrorRepairResult:
    """Cost of one mirror-based page repair."""

    page_id: int
    records_applied_to_mirror: int
    mirror_pages_written: int
    elapsed_simulated: float


class LogShippingMirror:
    """A full mirror database maintained by log shipping."""

    def __init__(self, log: LogManager, clock: SimClock, profile: IOProfile,
                 stats: Stats, page_size: int) -> None:
        self.log = log
        self.clock = clock
        self.profile = profile
        self.stats = stats
        self._mirror_page_repairs = stats.counter("mirror_page_repairs")
        self._mirror_records_applied = stats.counter("mirror_records_applied")
        self.page_size = page_size
        self._pages: dict[int, Page] = {}
        self._applied_up_to = 0
        self.total_records_applied = 0

    def seed_from_images(self, images: dict[int, bytes], up_to_lsn: int) -> None:
        """Initialize the mirror from a database snapshot."""
        total = 0
        for page_id, image in images.items():
            self._pages[page_id] = Page(self.page_size, image)
            total += len(image)
        self.clock.advance(self.profile.write_cost(total, sequential=True))
        self._applied_up_to = up_to_lsn

    # ------------------------------------------------------------------
    # Log shipping
    # ------------------------------------------------------------------
    def catch_up(self, up_to_lsn: int | None = None) -> tuple[int, int]:
        """Apply the outstanding log stream to the mirror.

        Returns (records applied, pages written).  Charges a
        sequential log read for the span plus one random write per
        mirror page touched — the whole-database replay the paper
        contrasts with per-page recovery.
        """
        target = self.log.end_lsn if up_to_lsn is None else up_to_lsn
        if target <= self._applied_up_to:
            return 0, 0
        span = target - self._applied_up_to
        self.clock.advance(self.profile.read_cost(span, sequential=True))
        applied = 0
        touched: set[int] = set()
        for record in self.log.records_from(self._applied_up_to):
            if record.lsn >= target:
                break
            if not record.is_page_update or record.page_id < 0:
                continue
            page = self._pages.get(record.page_id)
            if record.kind == LogRecordKind.FORMAT_PAGE:
                page = Page.format(self.page_size, record.page_id)
                self._pages[record.page_id] = page
            if page is None:
                continue  # page outside the mirrored snapshot
            if replay_records(page, [record]):
                applied += 1
                touched.add(record.page_id)
        for _page_id in touched:
            self.clock.advance(self.profile.write_cost(self.page_size))
        self._applied_up_to = target
        self.total_records_applied += applied
        self._mirror_records_applied.inc(applied)
        return applied, len(touched)

    # ------------------------------------------------------------------
    # Page repair
    # ------------------------------------------------------------------
    def repair_page(self, page_id: int) -> tuple[Page, MirrorRepairResult]:
        """Serve a replacement page — after full catch-up.

        The failed page "is frozen until the mirror has applied the
        entire stream of log records".
        """
        start = self.clock.now
        applied, written = self.catch_up()
        page = self._pages.get(page_id)
        if page is None:
            raise RecoveryError(f"page {page_id} not present in the mirror")
        # Ship the page back to the primary (one read + transfer).
        self.clock.advance(self.profile.read_cost(self.page_size))
        self._mirror_page_repairs.inc()
        result = MirrorRepairResult(
            page_id=page_id,
            records_applied_to_mirror=applied,
            mirror_pages_written=written,
            elapsed_simulated=self.clock.now - start,
        )
        return page.copy(), result
