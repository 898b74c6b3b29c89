"""Write-ahead log: records, chains, segments, stable storage, readers.

The log buffer is **segmented**: fixed-size in-memory segments behind a
truncation-aware directory (:mod:`repro.wal.segments`), so point
lookups, range scans, truncation, and crash discard are all indexed —
never scans of the whole log.  A per-page **chain head index** kept
current on append makes every page's chain addressable directly.

The log implements the two chains the paper builds on:

* the **per-transaction chain** (Section 5.1.1), used for rollback;
* the **per-page chain** (Section 5.1.4), used for single-page
  recovery: every log record stores the PageLSN the page had *before*
  the update, so the chain can be walked backwards from the current
  PageLSN to any earlier point (e.g. the last page backup).

LSNs are byte offsets into the log, so log-volume accounting is real.
The log is stable storage (Section 5): once forced, records survive
crashes; unforced records are lost by ``LogManager.crash()``.
"""

from repro.wal.lsn import LOG_START, NULL_LSN
from repro.wal.log_manager import LogManager
from repro.wal.log_reader import LogReader
from repro.wal.segments import DEFAULT_SEGMENT_BYTES, LogSegment, SegmentDirectory
from repro.wal.ops import (
    OpDelete,
    OpInitSlotted,
    OpInsert,
    OpSetGhost,
    OpUpdateValue,
    OpWriteBytes,
    PageOp,
    value_rewrite,
)
from repro.wal.records import (
    CheckpointData,
    LogRecord,
    LogRecordKind,
    LogicalUndo,
)

__all__ = [
    "LogManager",
    "LogReader",
    "LogSegment",
    "SegmentDirectory",
    "DEFAULT_SEGMENT_BYTES",
    "LogRecord",
    "LogRecordKind",
    "LogicalUndo",
    "CheckpointData",
    "PageOp",
    "OpInsert",
    "OpDelete",
    "OpUpdateValue",
    "OpSetGhost",
    "OpWriteBytes",
    "OpInitSlotted",
    "value_rewrite",
    "NULL_LSN",
    "LOG_START",
]
