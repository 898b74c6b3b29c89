"""The in-page inspection as a reported outcome, not an exception.

There is one inspection, :func:`repro.page.slotted.inspect_page`; the
read path lets its :class:`SinglePageFailure` propagate into repair,
and this module returns it as a :class:`CheckOutcome` so a caller can
enumerate *all* damage instead of stopping at the first failed page.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PageFailureKind, SinglePageFailure
from repro.page.page import Page
from repro.page.slotted import inspect_page


@dataclass(frozen=True)
class CheckOutcome:
    """Result of checking one page."""

    page_id: int
    ok: bool
    kind: PageFailureKind | None = None
    detail: str = ""

    @classmethod
    def passed(cls, page_id: int) -> "CheckOutcome":
        return cls(page_id, True)

    @classmethod
    def failed(cls, failure: SinglePageFailure) -> "CheckOutcome":
        return cls(failure.page_id, False, failure.kind, failure.detail)


def run_in_page_checks(page: Page, expected_page_id: int,
                       expected_lsn: int | None = None) -> CheckOutcome:
    """All in-page tests plus the optional PRI LSN cross-check."""
    try:
        page_lsn = inspect_page(page.data, expected_page_id)
    except SinglePageFailure as failure:
        return CheckOutcome.failed(failure)
    if expected_lsn is not None and page_lsn < expected_lsn:
        return CheckOutcome(
            expected_page_id, False, PageFailureKind.STALE_LSN,
            f"PageLSN {page_lsn} < expected {expected_lsn}")
    return CheckOutcome.passed(expected_page_id)
