"""Fixed-size in-memory log segments and their directory.

The recovery log is a sequence of **segments**, each bounded by an
encoded-byte budget.  A segment holds the bytes of the records whose
LSNs fall in ``[base_lsn, end_lsn)`` — the record at ``lsn`` starts at
``data[lsn - base_lsn]`` — and the list of those starts, so a lookup
tells a record's first byte from any other.  The
:class:`SegmentDirectory` finds an LSN with one bisection over segment
base LSNs and one over that segment's starts.  Reclaiming the log head
drops whole segments in one slice and cuts only the boundary segment;
``truncated_below`` records the reclaimed prefix.

This layer is pure bookkeeping: LSN assignment, durability, chains and
cost accounting live in :class:`repro.wal.log_manager.LogManager`.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

#: Default encoded-byte budget of one in-memory segment.  Small enough
#: that the boundary-segment work of truncation and crash stays cheap,
#: large enough that the directory's bisect stays shallow.
DEFAULT_SEGMENT_BYTES = 1 << 16


class LogSegment:
    """One fixed-size run of consecutive log records: their bytes, and
    the LSN each starts at (appends arrive in LSN order, truncation cuts
    a prefix and crash a suffix, so the list stays sorted)."""

    __slots__ = ("base_lsn", "data", "starts")

    def __init__(self, base_lsn: int) -> None:
        self.base_lsn = base_lsn
        self.data = bytearray()
        self.starts: list[int] = []

    @property
    def end_lsn(self) -> int:
        return self.base_lsn + len(self.data)

    def records(self, first: int = 0) -> list[tuple[int, bytes]]:
        """``(lsn, encoding)`` of the records from the ``first``-th on."""
        starts, data, base = self.starts, self.data, self.base_lsn
        ends = starts[first + 1:]
        ends.append(base + len(data))
        return [(lsn, bytes(data[lsn - base:end - base]))
                for lsn, end in zip(starts[first:], ends)]


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
    def append(self, lsn: int, encoding: bytes) -> LogSegment:
        """Place one record's bytes, and return the segment that holds
        them; opens a new segment when the current one has exhausted its
        encoded-byte budget."""
        segments = self._segments
        segment = segments[-1] if segments else None
        if segment is None or len(segment.data) >= self.segment_bytes:
            segment = LogSegment(lsn)
            segments.append(segment)
            self._starts.append(lsn)
        segment.data += encoding
        segment.starts.append(lsn)
        self._total_bytes += len(encoding)
        self._record_count += 1
        return segment

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
        if len(newest.data) >= self.segment_bytes:
            return newest.end_lsn
        return newest.base_lsn

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def locate(self, lsn: int) -> tuple[bytearray, int, int] | None:
        """``(segment bytes, start, end)`` of the record at ``lsn`` —
        ``None`` unless a record starts there.  The log's tail is found
        without a bisect."""
        segments = self._segments
        if not segments:
            return None
        segment = segments[-1]
        if lsn < segment.base_lsn:
            pos = bisect.bisect_right(self._starts, lsn) - 1
            if pos < 0:
                return None
            segment = segments[pos]
        starts = segment.starts
        last = len(starts) - 1
        if starts[last] == lsn:
            i = last
        else:
            i = bisect.bisect_left(starts, lsn)
            if i >= last or starts[i] != lsn:
                return None
        base = segment.base_lsn
        end = starts[i + 1] if i < last else base + len(segment.data)
        return segment.data, lsn - base, end - base

    # ------------------------------------------------------------------
    # Reading ranges
    # ------------------------------------------------------------------
    def runs_from(self, start_lsn: int) -> Iterator[tuple[LogSegment, int]]:
        """``(segment, first)`` of every segment holding a record with
        ``lsn >= start_lsn``, in log order, ``first`` the index of its
        first such record.  Only the segment containing ``start_lsn`` is
        bisected; every later segment is read whole — no full-log scan.
        """
        pos = max(bisect.bisect_right(self._starts, start_lsn) - 1, 0)
        for segment in self._segments[pos:]:
            yield segment, (bisect.bisect_left(segment.starts, start_lsn)
                            if segment.base_lsn < start_lsn else 0)

    def encodings_from(self, start_lsn: int) -> list[tuple[int, bytearray]]:
        """``(lsn, encoding)`` of every record with ``lsn >= start_lsn``,
        in log order."""
        found: list[tuple[int, bytearray]] = []
        for segment, first in self.runs_from(start_lsn):
            found += segment.records(first)
        return found

    # ------------------------------------------------------------------
    # Truncation (head reclamation) and crash (tail loss)
    # ------------------------------------------------------------------
    def truncate_below(self, limit: int) -> int:
        """Discard records with ``lsn < limit``; returns bytes freed.

        Whole segments below the limit are dropped in one step; the
        boundary segment is cut at its first record from ``limit`` on.
        """
        removed_bytes = 0
        drop = 0
        segments = self._segments
        while drop < len(segments) and segments[drop].end_lsn <= limit:
            removed_bytes += len(segments[drop].data)
            self._record_count -= len(segments[drop].starts)
            drop += 1
        if drop:  # one slice, not per-segment pop(0) shifts
            del segments[:drop]
            del self._starts[:drop]
        if segments and segments[0].base_lsn < limit:
            boundary = segments[0]
            first = bisect.bisect_left(boundary.starts, limit)
            self._record_count -= first
            if first < len(boundary.starts):
                cut = boundary.starts[first] - boundary.base_lsn
                del boundary.data[:cut]
                del boundary.starts[:first]
                boundary.base_lsn = self._starts[0] = boundary.starts[0]
                removed_bytes += cut
            else:  # the limit falls inside its last record
                removed_bytes += len(boundary.data)
                segments.pop(0)
                self._starts.pop(0)
        self._total_bytes -= removed_bytes
        self.truncated_below = max(self.truncated_below, limit)
        return removed_bytes

    def discard_from(self, lsn: int) -> None:
        """Drop records with LSN >= ``lsn`` (crash: the unforced tail);
        the log rebuilds what it derives from the records it keeps."""
        segments = self._segments
        while segments:
            segment = segments[-1]
            first = 0
            if segment.base_lsn < lsn:
                if segment.end_lsn <= lsn:
                    break
                first = bisect.bisect_left(segment.starts, lsn)
            self._record_count -= len(segment.starts) - first
            if first:
                self._total_bytes -= segment.end_lsn - lsn
                del segment.data[lsn - segment.base_lsn:]
                del segment.starts[first:]
                break
            self._total_bytes -= len(segment.data)
            segments.pop()
            self._starts.pop()

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
