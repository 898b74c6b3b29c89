"""The device-request rule: a run of consecutive writes pays one latency.

Inside one device request (``with device.request():`` on a data device,
``with store.request():`` on the backup store) a write to the location
right after the request's previous write continues that write's extent
and pays only ``page_size / bandwidth``; any other write opens a new
extent at the full write cost, and a read on the device ends the
extent.  Everything else a write does — fault injection, proof-reads,
remaps, failures, ``device_writes`` — stays per page.
"""

from __future__ import annotations

import pytest

from repro.core.backup import BackupStore
from repro.engine.database import Database
from repro.errors import StorageError
from repro.sim.clock import SimClock
from repro.sim.iomodel import FLASH_PROFILE, HDD_PROFILE
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector
from tests.conftest import fast_config, key_of, value_of

PAGE = 512


def flash_device(proof_read: bool = False,
                 injector: FaultInjector | None = None,
                 profile=FLASH_PROFILE) -> StorageDevice:  # noqa: ANN001
    return StorageDevice("d", PAGE, 64, SimClock(), profile, Stats(),
                         injector, proof_read=proof_read)


def image(fill: int) -> bytes:
    return bytes([fill]) * PAGE


def charges(clock: SimClock, work) -> list[float]:  # noqa: ANN001
    """The seconds each clock advance charged while ``work()`` ran."""
    seen, advance = [], clock.advance

    def recording(seconds: float) -> float:
        seen.append(seconds)
        return advance(seconds)

    clock.advance = recording
    try:
        work()
    finally:
        del clock.advance
    return seen


def requests(device: StorageDevice) -> int:
    return device.stats.get("device_write_requests")


STREAM = PAGE / FLASH_PROFILE.bandwidth  # one page at the device's bandwidth


class TestDeviceRequests:
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_a_run_of_contiguous_pages_pays_one_latency(self, n):
        device = flash_device()

        def run() -> None:
            with device.request():
                for page_id in range(10, 10 + n):
                    device.write(page_id, image(page_id))

        assert charges(device.clock, run) == (
            [FLASH_PROFILE.write_cost(PAGE)] + [STREAM] * (n - 1))
        assert requests(device) == 1
        assert device.stats.get("device_writes") == n
        for page_id in range(10, 10 + n):
            assert bytes(device.read(page_id)) == image(page_id)

    def test_a_gap_opens_a_new_extent(self):
        device = flash_device()
        with device.request():
            for page_id in (3, 4, 6, 7, 9):
                device.write(page_id, image(page_id))
        assert requests(device) == 3

    def test_a_remapped_page_ends_the_extent(self):
        device = flash_device()
        device.remap(11, "test")
        with device.request():
            for page_id in (10, 11, 12, 13):
                device.write(page_id, image(page_id))
        # 10 | 11 on its spare sector | 12, 13
        assert requests(device) == 3
        assert device.stats.get("device_writes") == 4

    def test_an_intervening_read_ends_the_extent(self):
        device = flash_device()
        with device.request():
            device.write(10, image(1))
            device.read(40)
            device.write(11, image(2))
        assert requests(device) == 2

    def test_a_write_outside_a_request_is_its_own_extent(self):
        device = flash_device()
        with device.request():
            device.write(10, image(1))
        device.write(11, image(2))
        device.write(12, image(3))
        assert requests(device) == 3

    @pytest.mark.parametrize("profile", [FLASH_PROFILE, HDD_PROFILE])
    def test_a_write_outside_a_request_is_charged_as_before(self, profile):
        """Random, then sequential (the sector after the last one
        touched), then hinted sequential: each is the profile's
        ``write_cost``, to the bit."""
        device = flash_device(profile=profile)
        assert charges(device.clock, lambda: device.write(20, image(1))) == [
            profile.write_cost(PAGE)]
        assert charges(device.clock, lambda: device.write(21, image(2))) == [
            profile.write_cost(PAGE, sequential=True)]
        assert charges(device.clock,
                       lambda: device.write(5, image(3), True)) == [
            profile.write_cost(PAGE, sequential=True)]
        with device.request():
            device.write(30, image(4))
        assert charges(device.clock, lambda: device.write(31, image(5))) == [
            profile.write_cost(PAGE, sequential=True)]

    def test_a_request_opened_inside_one_joins_it(self):
        device = flash_device()
        with device.request():
            device.write(10, image(1))
            with device.request():
                device.write(11, image(2))
            device.write(12, image(3))
        assert requests(device) == 1

    def test_a_lost_write_in_the_middle_of_an_extent_is_still_lost(self):
        device = flash_device()
        for page_id in (10, 11, 12):
            device.write(page_id, image(0))
        device.inject_lost_write(11)
        with device.request():
            for page_id in (10, 11, 12):
                device.write(page_id, image(page_id))
        assert requests(device) == 4  # three single writes, one run
        assert bytes(device.read(10)) == image(10)
        assert bytes(device.read(11)) == image(0)  # the write was lost
        assert bytes(device.read(12)) == image(12)

    def test_proof_reading_reads_every_page_back(self):
        """Each proof-read is a read on the device: no page of the run
        continues an extent, and every page is read back."""
        device = flash_device(proof_read=True)
        with device.request():
            for page_id in range(10, 14):
                device.write(page_id, image(page_id))
        assert device.stats.get("device_reads") == 4
        assert requests(device) == 4

    def test_a_proof_read_failure_remaps_and_rewrites_inside_a_request(self):
        injector = FaultInjector(seed=3)
        device = flash_device(proof_read=True, injector=injector)
        device.inject_lost_write(11)
        with device.request():
            for page_id in range(10, 13):
                device.write(page_id, image(page_id))
        assert device.stats.get("proof_read_failures") == 1
        assert device.stats.get("device_writes") == 4  # 11 twice
        for page_id in range(10, 13):
            assert bytes(device.read(page_id)) == image(page_id)


class TestBackupStoreRequests:
    def store(self) -> BackupStore:
        return BackupStore(SimClock(), FLASH_PROFILE, Stats(), PAGE)

    def test_copies_in_one_request_form_one_extent(self):
        store = self.store()

        def copies(n: int) -> None:
            for fill in range(n):
                store.store_page_copy(image(fill), fill + 1)

        def in_one_request() -> None:
            with store.request():
                copies(5)

        assert charges(store.clock, in_one_request) == (
            [FLASH_PROFILE.write_cost(PAGE)] + [STREAM] * 4)
        # Outside a request each copy pays the full write cost.
        assert charges(store.clock, lambda: copies(2)) == (
            [FLASH_PROFILE.write_cost(PAGE)] * 2)

    def test_a_fetch_ends_the_extent(self):
        store = self.store()

        def copy_fetch_copy() -> None:
            with store.request():
                first = store.store_page_copy(image(1), 1)
                store.fetch_page_copy(first)
                store.store_page_copy(image(2), 2)

        assert charges(store.clock, copy_fetch_copy) == [
            FLASH_PROFILE.write_cost(PAGE), FLASH_PROFILE.read_cost(PAGE),
            FLASH_PROFILE.write_cost(PAGE)]

    def test_a_failed_copy_fails_only_its_own_copy(self):
        """The failed write was charged and burned its location; the
        copies before and after it are durable and the extent goes on."""
        store = self.store()
        with store.request():
            first = store.store_page_copy(image(1), 1)
            store.inject_copy_write_failures(1)
            with pytest.raises(StorageError):
                store.store_page_copy(image(2), 2)
            assert charges(store.clock, lambda: store.store_page_copy(
                image(3), 3)) == [STREAM]
        third = first + 2  # the failed copy burned the location between
        assert store.live_page_copies == 2
        assert store.fetch_page_copy(first) == (image(1), 1)
        assert store.fetch_page_copy(third) == (image(3), 3)


def loaded(n: int, **overrides) -> tuple[Database, object]:  # noqa: ANN003
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return db, tree


def leaf_keys(db: Database, tree, n: int) -> dict[int, list[int]]:  # noqa: ANN001
    """Leaf page id -> the keys (by number) it holds."""
    leaves: dict[int, list[int]] = {}
    for i in range(n):
        _page, _node, page_id = tree._descend(key_of(i), for_write=False)
        db.pool.unfix(page_id)
        leaves.setdefault(page_id, []).append(i)
    return leaves


class TestEngineRequests:
    def test_a_lost_write_mid_extent_is_detected_and_repaired(self):
        """A checkpoint-style run writes three consecutive leaves as one
        extent; the middle write is lost, and the next fix of that leaf
        detects the stale image and repairs it."""
        n = 1200
        db, tree = loaded(n, device_profile=FLASH_PROFILE)
        leaves = leaf_keys(db, tree, n)
        db.flush_everything()
        middle = next(p for p in sorted(leaves)
                      if p - 1 in leaves and p + 1 in leaves)
        txn = db.begin()
        for page_id in (middle - 1, middle, middle + 1):
            for i in leaves[page_id]:
                tree.update(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        db.device.inject_lost_write(middle)
        before = db.stats.snapshot()
        db.evict_everything()
        written = db.stats.get("device_writes") - before["device_writes"]
        extents = (db.stats.get("device_write_requests")
                   - before["device_write_requests"])
        assert written >= 3 and extents < written
        for i in leaves[middle]:
            assert tree.lookup(key_of(i)) == value_of(i, 1)
        assert db.stats.get("single_page_recoveries") == 1
        for page_id in (middle - 1, middle + 1):
            for i in leaves[page_id]:
                assert tree.lookup(key_of(i)) == value_of(i, 1)
        assert db.stats.get("single_page_recoveries") == 1

    def test_copy_forward_writes_its_copies_as_one_extent(self):
        db, tree = loaded(1500, capacity_pages=2048,
                          backup_profile=FLASH_PROFILE)
        db.checkpoint()
        txn = db.begin()
        for i in range(0, 1500, 7):
            tree.update(txn, key_of(i), value_of(i, 1))
        db.commit(txn)
        db.checkpoint()
        store = db.backup_store
        costs, store_page_copy = [], store.store_page_copy

        def recorded_copy(image, page_lsn):  # noqa: ANN001, ANN202
            location = []
            costs.extend(charges(store.clock, lambda: location.append(
                store_page_copy(image, page_lsn))))
            return location[0]

        store.store_page_copy = recorded_copy
        copies = db.stats.get("copy_forward_backups")
        db.truncate_log()
        taken = db.stats.get("copy_forward_backups") - copies
        assert taken >= 2 and len(costs) >= taken
        page = db.config.page_size
        assert costs == ([FLASH_PROFILE.write_cost(page)]
                         + [page / FLASH_PROFILE.bandwidth] * (len(costs) - 1))
