"""Shared fixtures.

Unit tests run on the free NULL profile so simulated time never
dominates; timing-sensitive experiments build their own clocks with
realistic profiles.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro import Database, EngineConfig
from repro.core.backup import BackupPolicy
from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector
from repro.wal.log_manager import LogManager

PAGE_SIZE = 4096


@pytest.fixture(autouse=True)
def _seed_ambient_rng(request: pytest.FixtureRequest) -> None:
    """Seed the global ``random`` module per test, from the test's own
    node id.  Torture/matrix tests that use ambient randomness are then
    reproducible in isolation — the seed no longer depends on module
    import order or on which tests ran earlier in the session."""
    random.seed(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def stats() -> Stats:
    return Stats()


@pytest.fixture
def device(clock: SimClock, stats: Stats) -> StorageDevice:
    return StorageDevice("test0", PAGE_SIZE, 256, clock, NULL_PROFILE, stats,
                         FaultInjector(seed=1))


@pytest.fixture
def log(clock: SimClock, stats: Stats) -> LogManager:
    return LogManager(clock, NULL_PROFILE, stats)


def fast_config(**overrides) -> EngineConfig:  # noqa: ANN003
    """Engine config with free I/O for unit/integration tests."""
    base = dict(
        page_size=PAGE_SIZE,
        capacity_pages=512,
        buffer_capacity=32,
        device_profile=NULL_PROFILE,
        log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE,
        backup_policy=BackupPolicy(every_n_updates=64),
    )
    base.update(overrides)
    return EngineConfig(**base)


@pytest.fixture
def db() -> Database:
    return Database(fast_config())


@pytest.fixture
def loaded_db() -> Database:
    """A database with one index holding 300 committed keys."""
    database = Database(fast_config())
    tree = database.create_index()
    txn = database.begin()
    for i in range(300):
        tree.insert(txn, key_of(i), value_of(i, 0))
    database.commit(txn)
    return database


def key_of(i: int) -> bytes:
    return b"k%06d" % i


def value_of(i: int, version: int) -> bytes:
    return b"v%d.%d" % (i, version)


def assert_no_pins(db: Database) -> None:
    """No operation is in flight: every resident page is unpinned."""
    pool = db.pool
    pinned = {page_id: pool.pin_count(page_id)
              for page_id in pool.resident_pages() if pool.pin_count(page_id)}
    assert not pinned, f"pins left behind: {pinned}"


# ----------------------------------------------------------------------
# Differential recovery oracles (eager vs. on-demand restart)
# ----------------------------------------------------------------------
def clone_crashed(db: Database) -> Database:
    """Deep-copy a crashed database so one crash image can be
    recovered independently under different restart modes."""
    import copy

    return copy.deepcopy(db)


def reopen_over_copy(db: Database) -> Database:
    """A fresh engine, as a new process would open it, over a copy of a
    crashed engine's durable parts: device, log, backup store and the
    backup a pending restore reads from.  The transaction-id counter is
    carried over explicitly (see ROADMAP item 2)."""
    import copy

    twin = copy.deepcopy(db)
    fresh = Database(twin.config, clock=twin.clock, stats=twin.stats,
                     injector=twin.injector, durable=twin.durable)
    fresh.tm.restore_txn_id_floor(twin.tm.next_txn_id - 1)
    return fresh


def index_ids(db: Database) -> list[int]:
    """Every index the catalog has handed out, attached or not."""
    return list(range(1, db.catalog.get_int(b"next_index")))


def log_shape(db: Database) -> list[tuple]:
    """The log as a comparable sequence (identical recovery must
    append identical records at identical LSNs)."""
    return [(r.lsn, r.kind, r.commits, r.txn_id, r.page_id, r.page_lsn,
             r.writes, r.page_prev_lsn, r.prev_lsn)
            for r in db.log.all_records()]


def device_images(db: Database) -> dict[int, bytes]:
    """Byte image of every allocated page after flushing everything."""
    db.flush_everything()
    images: dict[int, bytes] = {}
    for page_id in range(db.allocated_pages()):
        raw = db.device.raw_image(page_id)
        if raw is not None:
            images[page_id] = bytes(raw)
    return images


def assert_identical_recovery(eager_db: Database,
                              on_demand_db: Database) -> None:
    """Both databases recovered the same crash image different ways:
    they must agree byte-for-byte and key-for-key."""
    assert log_shape(eager_db) == log_shape(on_demand_db)
    assert device_images(eager_db) == device_images(on_demand_db)
    for index_id in eager_db.indexes:
        eager_scan = dict(eager_db.tree(index_id).range_scan())
        lazy_scan = dict(on_demand_db.tree(index_id).range_scan())
        assert eager_scan == lazy_scan
