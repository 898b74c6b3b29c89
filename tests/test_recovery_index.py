"""Unit and property tests: the page recovery index (Figure 7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recovery_index import (
    POINT_ENTRY_BYTES,
    PageRecoveryIndex,
    PartitionedRecoveryIndex,
)
from repro.errors import RecoveryError
from repro.wal.records import BackupRef, BackupRefKind


class TestPointEntries:
    def test_lookup_missing_raises(self):
        pri = PageRecoveryIndex()
        with pytest.raises(RecoveryError):
            pri.lookup(5)
        assert not pri.covers(5)

    def test_set_backup_then_lookup(self):
        pri = PageRecoveryIndex()
        pri.set_backup(5, BackupRef.page_copy(100), page_lsn=50, now=1.0)
        entry = pri.lookup(5)
        assert entry.backup_ref == BackupRef(BackupRefKind.PAGE_COPY, 100)
        assert entry.backup_page_lsn == 50
        assert entry.backup_time == 1.0
        assert entry.last_lsn is None
        assert entry.recovery_start_lsn == 50

    def test_set_backup_returns_old_ref_for_freeing(self):
        """Figure 7: the backup-page field exists to free the old copy."""
        pri = PageRecoveryIndex()
        pri.set_backup(5, BackupRef.page_copy(100), 50)
        old = pri.set_backup(5, BackupRef.page_copy(200), 80)
        assert old == BackupRef.page_copy(100)

    def test_record_write_sets_last_lsn(self):
        pri = PageRecoveryIndex()
        pri.set_backup(5, BackupRef.page_copy(100), 50)
        pri.record_write(5, 90)
        entry = pri.lookup(5)
        assert entry.last_lsn == 90
        assert entry.recovery_start_lsn == 90

    def test_new_backup_clears_stale_write_lsn(self):
        """'Valid only if ... updated since the last backup' (Fig. 7)."""
        pri = PageRecoveryIndex()
        pri.set_backup(5, BackupRef.page_copy(100), 50)
        pri.record_write(5, 90)
        pri.set_backup(5, BackupRef.page_copy(200), 90)
        assert pri.lookup(5).last_lsn is None

    def test_newer_write_lsn_survives_older_backup(self):
        pri = PageRecoveryIndex()
        pri.set_backup(5, BackupRef.page_copy(100), 50)
        pri.record_write(5, 90)
        pri.set_backup(5, BackupRef.page_copy(200), 70)  # older image
        assert pri.lookup(5).last_lsn == 90


class TestRangeCompression:
    def test_full_backup_is_one_entry(self):
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 10_000, BackupRef.full_backup(1), 500)
        assert pri.range_count == 1
        assert pri.lookup(0).backup_ref.kind == BackupRefKind.FULL_BACKUP
        assert pri.lookup(9_999).backup_ref.kind == BackupRefKind.FULL_BACKUP
        assert not pri.covers(10_000)

    def test_point_update_splits_range(self):
        """'If only one page within such a range is given a new backup
        page, the range must be split as appropriate.'"""
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 100, BackupRef.full_backup(1), 500)
        pri.set_backup(40, BackupRef.page_copy(7), 600)
        assert pri.range_count == 3
        assert pri.lookup(39).backup_ref.kind == BackupRefKind.FULL_BACKUP
        assert pri.lookup(40).backup_ref == BackupRef.page_copy(7)
        assert pri.lookup(41).backup_ref.kind == BackupRefKind.FULL_BACKUP

    def test_split_at_range_edges(self):
        pri = PageRecoveryIndex()
        pri.set_range_backup(10, 20, BackupRef.full_backup(1), 500)
        pri.set_backup(10, BackupRef.page_copy(1), 600)
        pri.set_backup(19, BackupRef.page_copy(2), 600)
        assert pri.lookup(10).backup_ref == BackupRef.page_copy(1)
        assert pri.lookup(19).backup_ref == BackupRef.page_copy(2)
        assert pri.lookup(15).backup_ref.kind == BackupRefKind.FULL_BACKUP

    def test_new_range_replaces_overlapped_entries(self):
        pri = PageRecoveryIndex()
        for page in range(5):
            pri.set_backup(page, BackupRef.page_copy(page), 100)
        assert pri.range_count == 5
        pri.set_range_backup(0, 5, BackupRef.full_backup(2), 700)
        assert pri.range_count == 1
        assert pri.lookup(3).backup_ref.kind == BackupRefKind.FULL_BACKUP

    def test_range_backup_clears_covered_write_lsns(self):
        pri = PageRecoveryIndex()
        pri.set_backup(3, BackupRef.page_copy(1), 100)
        pri.record_write(3, 200)
        pri.set_range_backup(0, 10, BackupRef.full_backup(1), 300)
        assert pri.lookup(3).last_lsn is None

    def test_partial_overlap_trims(self):
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 100, BackupRef.full_backup(1), 500)
        pri.set_range_backup(50, 150, BackupRef.full_backup(2), 900)
        assert pri.lookup(49).backup_ref == BackupRef.full_backup(1)
        assert pri.lookup(50).backup_ref == BackupRef.full_backup(2)
        assert pri.lookup(149).backup_ref == BackupRef.full_backup(2)

    def test_forget_takes_the_page_out_of_its_range(self):
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 10, BackupRef.full_backup(1), 500)
        pri.set_backup(4, BackupRef.log_image(700), 700)
        pri.record_write(4, 700)
        pri.forget(4)   # a point entry
        pri.forget(7)   # the middle of a range
        pri.forget(0)   # a range's first page
        pri.forget(42)  # never covered: no-op
        for page in (0, 4, 7, 42):
            assert not pri.covers(page)
            assert pri.expected_page_lsn(page) is None
        for page in (1, 3, 5, 6, 8, 9):
            assert pri.lookup(page).backup_ref == BackupRef.full_backup(1)
        assert BackupRef.log_image(700) not in pri._refs
        assert list(zip(pri._starts, pri._ends)) == [(1, 4), (5, 7), (8, 10)]

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.tuples(st.integers(0, 199), st.integers(1, 1000)),
                        min_size=1, max_size=60))
    def test_point_updates_match_dict_model(self, ops):
        """Range splitting must behave exactly like a per-page dict."""
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 200, BackupRef.full_backup(1), 10)
        model = {page: (BackupRefKind.FULL_BACKUP, 1) for page in range(200)}
        for page, location in ops:
            pri.set_backup(page, BackupRef.page_copy(location), 20)
            model[page] = (BackupRefKind.PAGE_COPY, location)
        for page in range(200):
            entry = pri.lookup(page)
            assert (entry.backup_ref.kind, entry.backup_ref.value) == model[page]
        # Ranges stay sorted and non-overlapping.
        starts, ends = pri._starts, pri._ends
        for i in range(len(starts) - 1):
            assert starts[i] < ends[i] <= starts[i + 1]


class TestExpectedPageLsn:
    """The Gary Smith cross-check (Section 5.2.2)."""

    def test_recorded_write_is_exact(self):
        pri = PageRecoveryIndex()
        pri.set_backup(5, BackupRef.page_copy(1), 50)
        pri.record_write(5, 120)
        assert pri.expected_page_lsn(5) == 120

    def test_point_backup_is_exact(self):
        pri = PageRecoveryIndex()
        pri.set_backup(5, BackupRef.page_copy(1), 50)
        assert pri.expected_page_lsn(5) == 50

    def test_range_backup_gives_no_expectation(self):
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 100, BackupRef.full_backup(1), 500)
        assert pri.expected_page_lsn(5) is None

    def test_unknown_page_gives_no_expectation(self):
        assert PageRecoveryIndex().expected_page_lsn(7) is None


class TestSizeAccounting:
    def test_fresh_restore_is_tiny(self):
        """One range entry regardless of database size (Figure 7)."""
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 1_000_000, BackupRef.full_backup(1), 5)
        assert pri.estimated_bytes() <= 64

    def test_worst_case_16_bytes_per_page(self):
        """'the size ... may reach about 16 bytes per database page'."""
        pri = PageRecoveryIndex()
        n = 500
        for page in range(n):
            pri.set_backup(page, BackupRef.page_copy(page), 10)
        assert pri.estimated_bytes() == n * POINT_ENTRY_BYTES

    def test_write_lsns_counted(self):
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 100, BackupRef.full_backup(1), 5)
        base = pri.estimated_bytes()
        pri.record_write(3, 50)
        assert pri.estimated_bytes() == base + POINT_ENTRY_BYTES


class TestSerialization:
    def test_roundtrip(self):
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 50, BackupRef.full_backup(1), 10, now=2.5)
        pri.set_backup(7, BackupRef.page_copy(99), 30, now=3.5)
        pri.record_write(8, 44)
        clone = PageRecoveryIndex.deserialize(pri.serialize())
        assert clone.lookup(7).backup_ref == BackupRef.page_copy(99)
        assert clone.lookup(7).backup_time == 3.5
        assert clone.lookup(8).last_lsn == 44
        assert clone.range_count == pri.range_count

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.tuples(st.integers(0, 99), st.integers(1, 500)),
                        max_size=30))
    def test_roundtrip_property(self, ops):
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 100, BackupRef.full_backup(1), 10)
        for page, lsn in ops:
            pri.set_backup(page, BackupRef.log_image(lsn), lsn)
            pri.record_write(page, lsn + 5)
        clone = PageRecoveryIndex.deserialize(pri.serialize())
        for page in range(100):
            a, b = pri.lookup(page), clone.lookup(page)
            assert (a.backup_ref, a.backup_page_lsn, a.last_lsn) == (
                b.backup_ref, b.backup_page_lsn, b.last_lsn)

    @staticmethod
    def _blob() -> bytes:
        pri = PageRecoveryIndex()
        pri.set_range_backup(0, 50, BackupRef.full_backup(1), 10, now=2.5)
        pri.set_backup(7, BackupRef.page_copy(99), 30, now=3.5)
        pri.record_write(8, 44)
        return pri.serialize()

    def test_truncated_oversized_and_unknown_kind_blobs_fail_typed(self):
        """A blob read back from damaged region pages is a
        RecoveryError, never struct.error or ValueError."""
        blob = self._blob()
        cases = [blob[:cut] for cut in (0, 3, 8, 20, len(blob) - 1)]
        cases.append(blob + b"\0")
        cases.append(b"\xff" * 8 + blob[8:])   # 4 billion ranges declared
        unknown_kind = bytearray(blob)
        unknown_kind[8 + 16] = 200             # first range's backup kind
        cases.append(bytes(unknown_kind))
        for case in cases:
            with pytest.raises(RecoveryError):
                PageRecoveryIndex.deserialize(case)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=120))
    def test_garbage_blobs_fail_typed(self, data):
        try:
            PageRecoveryIndex.deserialize(data)
        except RecoveryError:
            pass


class TestPartitioned:
    def test_self_coverage_invariant(self):
        """No page's entry may live in its own partition (Section 5.2.2)."""
        pri = PartitionedRecoveryIndex()
        for page in range(20):
            pri.set_backup(page, BackupRef.page_copy(page), 10)
        for page in range(20):
            covering = PartitionedRecoveryIndex.partition_of_data_page(page)
            # Partition p's data is *stored* on parity-p pages; the
            # entry for page must be in the opposite parity's partition.
            assert covering == 1 - (page % 2)
            assert pri.partitions[covering].covers(page)

    def test_facade_dispatch(self):
        pri = PartitionedRecoveryIndex()
        pri.set_backup(4, BackupRef.page_copy(1), 10)
        pri.record_write(4, 25)
        assert pri.lookup(4).last_lsn == 25
        assert pri.covers(4)
        assert not pri.covers(5)
        assert pri.expected_page_lsn(4) == 25
        pri.forget(4)
        assert not pri.covers(4)

    def test_range_visible_through_both_parities(self):
        pri = PartitionedRecoveryIndex()
        pri.set_range_backup(0, 10, BackupRef.full_backup(3), 99)
        assert pri.lookup(4).backup_ref == BackupRef.full_backup(3)
        assert pri.lookup(5).backup_ref == BackupRef.full_backup(3)
