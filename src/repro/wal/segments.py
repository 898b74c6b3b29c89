"""Fixed-size in-memory log segments and their directory.

The recovery log is held as a sequence of **segments**, each bounded by
an encoded-byte budget.  A segment owns the records whose LSNs fall in
``[base_lsn, end_lsn)`` plus per-record encoded sizes, so log-volume
accounting is exact without retaining the encoded bytes themselves.

The :class:`SegmentDirectory` maps an LSN to its segment with one
bisection over segment base LSNs — O(log #segments), independent of the
number of records — after which the record lookup is a dict hit.  The
directory is *truncation-aware*: reclaiming the log head drops whole
segments in one slice and filters only the single boundary segment, and
``truncated_below`` records the reclaimed prefix so range scans start
at the right place.

This layer is pure bookkeeping: LSN assignment, durability, chains and
cost accounting live in :class:`repro.wal.log_manager.LogManager`.
"""

from __future__ import annotations

import bisect
from typing import Iterator

from repro.wal.records import LogRecord

#: Default encoded-byte budget of one in-memory segment.  Small enough
#: that the boundary-segment work of truncation and crash stays cheap,
#: large enough that the directory's bisect stays shallow.
DEFAULT_SEGMENT_BYTES = 1 << 16


class LogSegment:
    """One fixed-size run of consecutive log records.

    Records are kept in an insertion-ordered dict keyed by LSN —
    appends arrive in LSN order, truncation removes a prefix and crash
    removes a suffix, so the dict stays sorted without ever re-sorting.
    """

    __slots__ = ("base_lsn", "end_lsn", "records", "sizes", "encoded_bytes")

    def __init__(self, base_lsn: int) -> None:
        self.base_lsn = base_lsn
        self.end_lsn = base_lsn
        self.records: dict[int, LogRecord] = {}
        self.sizes: dict[int, int] = {}
        self.encoded_bytes = 0

    def remove(self, lsn: int) -> int:
        """Drop one record; returns its encoded size."""
        del self.records[lsn]
        size = self.sizes.pop(lsn)
        self.encoded_bytes -= size
        return size

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LogSegment([{self.base_lsn}, {self.end_lsn}), "
                f"{len(self.records)} records, {self.encoded_bytes} B)")


class SegmentDirectory:
    """Ordered collection of segments with bisect-indexed lookup."""

    def __init__(self, segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        if segment_bytes < 1:
            raise ValueError("segment size must be positive")
        self.segment_bytes = segment_bytes
        self._segments: list[LogSegment] = []
        self._starts: list[int] = []  # base_lsn per segment, sorted
        self._total_bytes = 0
        self._record_count = 0
        self.truncated_below = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, lsn: int, record: LogRecord, size: int) -> None:
        """Place one record; opens a new segment when the current one
        has exhausted its encoded-byte budget."""
        segments = self._segments
        segment = segments[-1] if segments else None
        if segment is None or segment.encoded_bytes >= self.segment_bytes:
            segment = LogSegment(lsn)
            segments.append(segment)
            self._starts.append(lsn)
        segment.records[lsn] = record
        segment.sizes[lsn] = size
        segment.encoded_bytes += size
        segment.end_lsn = lsn + size
        self._total_bytes += size
        self._record_count += 1

    def sealed_below(self) -> int:
        """The LSN below which every segment is sealed (budget full).

        Segment-granular log shipping uses this as its shipping
        horizon: the newest segment still accepting appends is not
        shipped until it seals.  With no open segment the horizon is
        the log end; with no segments at all it is the truncation
        point.
        """
        if not self._segments:
            return self.truncated_below
        newest = self._segments[-1]
        if newest.encoded_bytes >= self.segment_bytes:
            return newest.end_lsn
        return newest.base_lsn

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def entry(self, lsn: int) -> tuple[LogRecord, int] | None:
        """``(record, encoded size)`` at ``lsn``: one bisect + one dict
        hit (the one lookup: a record, or its size, or both)."""
        pos = bisect.bisect_right(self._starts, lsn) - 1
        if pos < 0:
            return None
        segment = self._segments[pos]
        record = segment.records.get(lsn)
        return None if record is None else (record, segment.sizes[lsn])

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def iter_from(self, start_lsn: int) -> Iterator[LogRecord]:
        """Records with ``lsn >= start_lsn`` in log order.

        Only the segment containing ``start_lsn`` is filtered; every
        later segment streams whole — no full-log scan.
        """
        pos = bisect.bisect_right(self._starts, start_lsn) - 1
        if pos < 0:
            pos = 0
        for i in range(pos, len(self._segments)):
            segment = self._segments[i]
            if segment.base_lsn >= start_lsn:
                yield from segment.records.values()
            else:
                for lsn, record in segment.records.items():
                    if lsn >= start_lsn:
                        yield record

    def iter_all(self) -> Iterator[LogRecord]:
        for segment in self._segments:
            yield from segment.records.values()

    # ------------------------------------------------------------------
    # Truncation (head reclamation) and crash (tail loss)
    # ------------------------------------------------------------------
    def truncate_below(self, limit: int) -> int:
        """Discard records with ``lsn < limit``; returns bytes freed.

        Whole segments below the limit are dropped in one step; only
        the boundary segment is filtered record by record.
        """
        removed_bytes = 0
        drop = 0
        while (drop < len(self._segments)
               and self._segments[drop].end_lsn <= limit):
            removed_bytes += self._segments[drop].encoded_bytes
            self._record_count -= len(self._segments[drop])
            drop += 1
        if drop:  # one slice, not per-segment pop(0) shifts
            del self._segments[:drop]
            del self._starts[:drop]
        if self._segments and self._segments[0].base_lsn < limit:
            boundary = self._segments[0]
            for lsn in [l for l in boundary.records if l < limit]:
                removed_bytes += boundary.remove(lsn)
                self._record_count -= 1
            if boundary.records:
                boundary.base_lsn = next(iter(boundary.records))
                self._starts[0] = boundary.base_lsn
            else:
                self._segments.pop(0)
                self._starts.pop(0)
        self._total_bytes -= removed_bytes
        self.truncated_below = max(self.truncated_below, limit)
        return removed_bytes

    def discard_from(self, lsn: int) -> list[LogRecord]:
        """Drop records with LSN >= ``lsn`` (crash: the unforced tail).

        Returns the lost records newest-first so the caller can unwind
        derived indexes (per-page chain heads) against them.
        """
        lost: list[LogRecord] = []
        while self._segments:
            segment = self._segments[-1]
            if segment.base_lsn >= lsn:
                for victim in reversed(list(segment.records.values())):
                    lost.append(victim)
                self._total_bytes -= segment.encoded_bytes
                self._record_count -= len(segment)
                self._segments.pop()
                self._starts.pop()
                continue
            if segment.end_lsn <= lsn:
                break
            for victim_lsn in [l for l in reversed(segment.records) if l >= lsn]:
                lost.append(segment.records[victim_lsn])
                self._total_bytes -= segment.remove(victim_lsn)
                self._record_count -= 1
            segment.end_lsn = lsn
            break
        return lost

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def __len__(self) -> int:
        return self._record_count
