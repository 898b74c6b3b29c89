"""Unit tests: simulated device, fault injection, composite devices."""

import pytest

from repro.errors import MediaFailure
from repro.sim.clock import SimClock
from repro.sim.iomodel import HDD_PROFILE, NULL_PROFILE
from repro.sim.stats import Stats
from repro.storage.badblocks import BadBlockList
from repro.storage.device import DeviceReadError, StorageDevice
from repro.storage.faults import FaultInjector, FaultKind
from repro.storage.raid import Raid5Array

PAGE = 512


def make_device(name="d", pages=64, injector=None, clock=None, stats=None,
                profile=NULL_PROFILE, proof_read=False):
    return StorageDevice(name, PAGE, pages, clock or SimClock(), profile,
                         stats or Stats(), injector, proof_read=proof_read)


def image(fill: int) -> bytes:
    return bytes([fill]) * PAGE


class TestStorageDevice:
    def test_write_read_roundtrip(self):
        device = make_device()
        device.write(3, image(7))
        assert bytes(device.read(3)) == image(7)

    def test_unwritten_page_reads_zeroes(self):
        device = make_device()
        assert bytes(device.read(5)) == b"\x00" * PAGE

    def test_out_of_range_rejected(self):
        device = make_device(pages=8)
        with pytest.raises(ValueError):
            device.read(8)
        with pytest.raises(ValueError):
            device.write(-1, image(0))

    def test_wrong_size_write_rejected(self):
        device = make_device()
        with pytest.raises(ValueError):
            device.write(0, b"short")

    def test_remap_preserves_logical_id(self):
        device = make_device()
        device.write(3, image(1))
        old_sector = device.sector_of(3)
        new_sector = device.remap(3, "test")
        assert new_sector != old_sector
        assert old_sector in device.bad_blocks
        device.write(3, image(2))
        assert bytes(device.read(3)) == image(2)

    def test_spare_exhaustion_is_media_failure(self):
        device = make_device(pages=8)
        with pytest.raises(MediaFailure):
            for _ in range(100):
                device.remap(0, "churn")

    def test_fail_device(self):
        device = make_device()
        device.fail_device("head crash")
        with pytest.raises(MediaFailure):
            device.read(0)
        with pytest.raises(MediaFailure):
            device.write(0, image(0))

    def test_io_charges_simulated_time(self):
        clock = SimClock()
        device = make_device(clock=clock, profile=HDD_PROFILE)
        device.write(10, image(1))
        assert clock.now > 0

    def test_stats_counted(self):
        stats = Stats()
        device = make_device(stats=stats)
        device.write(0, image(0))
        device.read(0)
        assert stats.get("device_writes") == 1
        assert stats.get("device_reads") == 1


class TestFaultInjection:
    def test_read_error_is_persistent(self):
        device = make_device()
        device.write(2, image(9))
        device.inject_read_error(2)
        for _ in range(3):
            with pytest.raises(DeviceReadError):
                device.read(2)

    def test_read_error_cleared_by_remap(self):
        device = make_device()
        device.write(2, image(9))
        device.inject_read_error(2)
        device.remap(2, "spf")
        device.write(2, image(9))
        assert bytes(device.read(2)) == image(9)

    def test_bit_rot_corrupts_silently(self):
        device = make_device()
        device.write(4, image(0))
        device.inject_bit_rot(4, nbits=3)
        data = device.read(4)  # no exception: silent corruption
        assert bytes(data) != image(0)

    def test_bit_rot_deterministic(self):
        d1 = make_device(injector=FaultInjector(seed=5))
        d2 = make_device(injector=FaultInjector(seed=5))
        for device in (d1, d2):
            device.write(4, image(0))
            device.inject_bit_rot(4, nbits=3)
        assert bytes(d1.read(4)) == bytes(d2.read(4))

    def test_lost_write_returns_stale_data(self):
        device = make_device()
        device.write(6, image(1))
        device.inject_lost_write(6)
        device.write(6, image(2))  # acknowledged, silently dropped
        assert bytes(device.read(6)) == image(1)
        device.write(6, image(3))  # next write succeeds
        assert bytes(device.read(6)) == image(3)

    def test_misdirected_write_damages_two_pages(self):
        device = make_device()
        device.write(1, image(1))
        device.write(2, image(2))
        device.inject_misdirected_write(1, victim_page=2)
        device.write(1, image(9))
        assert bytes(device.read(1)) == image(1)   # stale
        assert bytes(device.read(2)) == image(9)   # overwritten

    def test_wear_out_after_write_limit(self):
        injector = FaultInjector(seed=1, wear_limit=5)
        device = make_device(injector=injector)
        for _ in range(5):
            device.write(3, image(1))
        device.read(3)  # still fine at the limit
        device.write(3, image(2))  # exceeds the limit
        with pytest.raises(DeviceReadError):
            device.read(3)
        assert (FaultKind.WEAR_OUT, device.sector_of(3)) in injector.injected_log

    def test_random_read_errors_with_rate(self):
        injector = FaultInjector(seed=3, read_error_rate=0.5)
        device = make_device(injector=injector)
        device.write(0, image(0))
        errors = 0
        for _ in range(40):
            try:
                device.read(0)
            except DeviceReadError:
                errors += 1
                break
        assert errors == 1  # spontaneous LSEs are persistent once hit

    def test_proof_read_remaps_bad_write(self):
        """Write-time bad-block mapping (Section 2)."""
        injector = FaultInjector(seed=2)
        stats = Stats()
        device = make_device(injector=injector, stats=stats, proof_read=True)
        device.inject_lost_write(7)
        device.write(7, image(5))
        # The lost write was detected by proof-reading and remapped.
        assert bytes(device.read(7)) == image(5)
        assert stats.get("proof_read_failures") >= 1
        assert len(device.bad_blocks) >= 1


class TestBadBlockList:
    def test_add_and_contains(self):
        bad = BadBlockList()
        bad.add(5, "bit rot", 1.0)
        assert 5 in bad
        assert 6 not in bad
        assert len(bad) == 1

    def test_duplicate_add_keeps_first(self):
        bad = BadBlockList()
        bad.add(5, "first", 1.0)
        bad.add(5, "second", 2.0)
        assert bad.entries()[0].reason == "first"

    def test_reason_histogram(self):
        bad = BadBlockList()
        bad.add(1, "wear", 0)
        bad.add(2, "wear", 0)
        bad.add(3, "rot", 0)
        assert bad.reasons() == {"wear": 2, "rot": 1}


class TestRaid5:
    def make_array(self, n=4):
        return Raid5Array([make_device(f"r{i}") for i in range(n)])

    def test_roundtrip(self):
        array = self.make_array()
        for page_id in range(12):
            array.write(page_id, image(page_id + 1))
        for page_id in range(12):
            assert bytes(array.read(page_id)) == image(page_id + 1)

    def test_parity_allows_reconstruction(self):
        array = self.make_array()
        array.write(0, image(7))
        assert array.reconstruct(0) == image(7)

    def test_scrub_detects_clean_stripes(self):
        array = self.make_array()
        array.write(0, image(1))
        assert array.scrub_stripe(0)

    def test_silent_corruption_poisons_parity(self):
        """The introduction's anecdote: a read-modify-write over the
        silently corrupted page folds the corruption into the parity,
        after which reconstruction of *healthy* pages regenerates
        garbage — "pulling the disk won't help a bit"."""
        array = self.make_array()
        a, b = 0, 1  # same stripe, different member disks
        array.write(a, image(1))
        array.write(b, image(2))
        assert array.scrub_stripe(0)
        # The disk holding page a silently corrupts.
        _stripe, dev, row = array._locate(a)
        array.devices[dev].inject_bit_rot(row, nbits=4)
        # Rewriting page a performs read-modify-write: the parity delta
        # is computed from the *misread* old data.
        array.write(a, image(9))
        # The stripe is now inconsistent...
        assert not array.scrub_stripe(0)
        # ... and reconstructing the healthy page b from parity yields
        # garbage, not image(2): the backup path itself is poisoned.
        assert array.reconstruct(b) != image(2)

    def test_too_few_devices_rejected(self):
        with pytest.raises(ValueError):
            Raid5Array([make_device("x"), make_device("y")])
