"""Page formats: headers, checksums, and slotted pages.

Every database page carries a header with a magic number, its own page
id, a type tag, the PageLSN (the LSN of the most recent log record that
modified the page), and a CRC32 checksum over the rest of the page.
The header is what makes in-page failure detection (Section 4.2 of the
paper) possible: checksum mismatches catch bit rot, the embedded page
id catches misdirected writes, and the PageLSN anchors the per-page log
chain and the page-recovery-index cross-check.
:func:`inspect_page` is those tests, written once; the verdict around
it (Figure 8) is :meth:`repro.core.recovery_manager.RecoveryManager.read`
/ ``inspect``, which every consumer of a device image calls.
"""

from repro.page.checksum import compute_checksum, verify_checksum
from repro.page.page import (
    HEADER_SIZE,
    PAGE_MAGIC,
    Page,
    PageHeader,
    PageType,
)
from repro.page.slotted import (
    SLOTTED_TYPES,
    Record,
    SlottedPage,
    inspect_page,
)

__all__ = [
    "Page",
    "PageHeader",
    "PageType",
    "PAGE_MAGIC",
    "HEADER_SIZE",
    "SlottedPage",
    "Record",
    "SLOTTED_TYPES",
    "inspect_page",
    "compute_checksum",
    "verify_checksum",
]
