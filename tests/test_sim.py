"""Unit tests: simulated clock, I/O profiles, counters."""

import copy
import sys
import threading

import pytest

import repro
from repro.sim.clock import SimClock, StopWatch
from repro.sim.iomodel import (
    ARCHIVE_PROFILE,
    FLASH_PROFILE,
    HDD_PROFILE,
    IOProfile,
)
from repro.sim.stats import Stats


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(1.75)

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_elapsed_since(self):
        clock = SimClock()
        mark = clock.now
        clock.advance(2.0)
        assert clock.elapsed_since(mark) == pytest.approx(2.0)

    def test_stopwatch(self):
        clock = SimClock()
        with StopWatch(clock) as watch:
            clock.advance(3.0)
        assert watch.elapsed == pytest.approx(3.0)


class TestIOProfile:
    def test_read_cost_includes_latency_and_transfer(self):
        profile = IOProfile("p", 0.01, 0.02, 1000.0)
        assert profile.read_cost(500) == pytest.approx(0.01 + 0.5)
        assert profile.write_cost(500) == pytest.approx(0.02 + 0.5)

    def test_sequential_discount(self):
        profile = IOProfile("p", 0.01, 0.01, 1e9, sequential_factor=0.0)
        assert profile.read_cost(0, sequential=True) == pytest.approx(0.0)
        assert profile.read_cost(0, sequential=False) == pytest.approx(0.01)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            IOProfile("p", -1, 0, 100)
        with pytest.raises(ValueError):
            IOProfile("p", 0, 0, 0)
        with pytest.raises(ValueError):
            IOProfile("p", 0, 0, 100, sequential_factor=2.0)

    def test_paper_restore_arithmetic(self):
        """Section 6: 100 GB at 100 MB/s is about 1000 s."""
        seconds = HDD_PROFILE.read_cost(100 * 1024**3, sequential=True)
        assert 990 <= seconds <= 1030

    def test_profile_ordering(self):
        """Flash random reads are much cheaper than disk; archive
        first-byte latency dwarfs both."""
        nbytes = 4096
        assert FLASH_PROFILE.read_cost(nbytes) < HDD_PROFILE.read_cost(nbytes)
        assert ARCHIVE_PROFILE.read_cost(nbytes) > 100 * HDD_PROFILE.read_cost(nbytes)


class TestStats:
    """The counting semantics the golden files depend on."""

    def test_inc_and_get(self):
        stats = Stats()
        hits = stats.counter("buffer_hits")
        hits.inc()
        hits.inc(4)
        assert stats.get("buffer_hits") == 5
        assert stats.get("buffer_misses") == 0  # declared, never counted
        assert stats.get("never") == 0  # reading is not declaring

    def test_one_handle_per_name(self):
        stats = Stats()
        assert stats.counter("log_bytes") is stats.counter("log_bytes")

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Stats().counter("log_bytes").inc(-1)

    def test_undeclared_name_raises_where_the_handle_is_asked_for(self):
        with pytest.raises(KeyError, match="bufer_hits"):
            Stats().counter("bufer_hits")
        with pytest.raises(KeyError):  # a gauge is not a counter
            Stats().counter("chaos_max_pending_after_recovery")
        with pytest.raises(KeyError):
            Stats().note_max("buffer_hits", 1)

    def test_families_resolve_their_run_time_part(self):
        stats = Stats()
        stats.counter("device_reads[disk 7]").inc()
        stats.counter("spf[checksum-mismatch]").inc()
        stats.counter("restore_drain_pages").inc(2)
        assert stats.snapshot() == {"device_reads[disk 7]": 1,
                                    "spf[checksum-mismatch]": 1,
                                    "restore_drain_pages": 2}
        with pytest.raises(KeyError):
            stats.counter("rebuild_drain_pages")
        with pytest.raises(KeyError):
            stats.counter("device_reads[]")

    def test_a_name_enters_the_snapshot_with_its_first_inc(self):
        stats = Stats()
        misses = stats.counter("buffer_misses")
        replayed = stats.counter("spf_records_applied")
        assert stats.snapshot() == {} and list(stats) == []
        replayed.inc(0)  # "counted, and it was nothing" is still counted
        assert stats.snapshot() == {"spf_records_applied": 0}
        misses.inc()
        assert list(stats) == [("buffer_misses", 1),
                               ("spf_records_applied", 0)]

    def test_snapshot_delta(self):
        stats = Stats()
        log_bytes = stats.counter("log_bytes")
        log_bytes.inc(2)
        before = stats.snapshot()
        log_bytes.inc(3)
        stats.counter("log_forces").inc()
        stats.counter("log_scans").inc(0)  # present, unchanged: not a delta
        assert stats.delta(before) == {"log_bytes": 3, "log_forces": 1}

    def test_reset_zeroes_in_place(self):
        stats = Stats()
        hits = stats.counter("buffer_hits")
        hits.inc()
        stats.reset()
        assert stats.get("buffer_hits") == 0
        assert stats.snapshot() == {}
        hits.inc(2)  # the handle from before the reset still counts here
        assert stats.snapshot() == {"buffer_hits": 2}

    def test_iteration_sorted(self):
        stats = Stats()
        stats.counter("pages_evicted").inc()
        stats.counter("buffer_hits").inc()
        assert [name for name, _ in stats] == ["buffer_hits", "pages_evicted"]

    def test_no_increment_lost_across_threads_once_armed(self):
        """8 threads x 20 000 on each of two handles: one handed out
        before ``enable_locking`` and one after."""
        stats = Stats()
        early = stats.counter("buffer_hits")
        stats.enable_locking()
        late = stats.counter("buffer_misses")

        def count() -> None:
            for _ in range(20_000):
                early.inc()
                late.inc()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=count) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stats.snapshot() == {"buffer_hits": 160_000,
                                    "buffer_misses": 160_000}

    def test_deepcopied_engine_counts_into_its_own_registry(self):
        """The chaos harness deep-copies whole engines: a handle shared
        between original and copy would cross-count silently."""
        client = repro.connect()
        client.put(b"k", b"v")
        db = client.db
        twin = copy.deepcopy(db)
        before, twin_before = db.stats.snapshot(), twin.stats.snapshot()
        assert before == twin_before
        assert twin.tree(client.index_id).lookup(b"k") == b"v"
        assert db.stats.snapshot() == before
        twin_delta = twin.stats.delta(twin_before)
        assert twin_delta["btree_lookups"] == 1
        assert twin_delta["buffer_hits"] >= 1
        db.tree(client.index_id).lookup(b"k")
        assert twin.stats.delta(twin_before) == twin_delta
        assert db.stats.delta(before) == twin_delta
