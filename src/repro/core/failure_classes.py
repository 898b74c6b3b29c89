"""The four-class failure taxonomy as an executable model (Figure 1).

:class:`FailureEvent` records how one detected fault was ultimately
handled and what it cost — the "blast radius" the Figure-1 experiment
compares across engines:

* handled as a **single-page failure**: affected transactions merely
  wait; nothing aborts; the device keeps serving all other pages;
* escalated to a **media failure**: every transaction touching the
  device aborts; the device is unavailable for the restore duration;
* escalated further to a **system failure** (single-device node): all
  transactions abort and the whole system is down for restart plus
  restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import FailureClass


class FailureOutcome(Enum):
    """How a detected page fault was resolved."""

    RECOVERED_IN_PLACE = "single-page recovery"
    ESCALATED_TO_MEDIA = "escalated to media failure"
    ESCALATED_TO_SYSTEM = "escalated to system failure"


@dataclass
class FailureEvent:
    """One handled fault: its blast radius and — for a repair — what an
    operator asks afterwards: which source served the image, how many
    records were replayed onto it, at what I/O cost."""

    page_id: int
    detected_by: str
    outcome: FailureOutcome
    failure_class: FailureClass
    transactions_aborted: int = 0
    pages_unavailable: int = 0
    #: simulated seconds the repair took
    downtime_seconds: float = 0.0
    #: :attr:`repro.core.single_page.RecoveryResult.source` of a repair;
    #: empty for an escalation, whose reason is ``detail``
    source: str = ""
    records_replayed: int = 0
    log_pages_read: int = 0
    backup_fetches: int = 0
    detail: str = ""

    def summary(self) -> str:
        text = (f"page {self.page_id}: {self.detected_by} -> "
                f"{self.outcome.value}")
        if self.source:
            return (f"{text} (source {self.source}, "
                    f"{self.records_replayed} records replayed, "
                    f"{self.log_pages_read} log pages read, "
                    f"{self.backup_fetches} backup fetches, "
                    f"{self.downtime_seconds:.6f} s simulated)")
        return (f"{text} ({self.transactions_aborted} txns aborted, "
                f"{self.pages_unavailable} pages unavailable: {self.detail})")
