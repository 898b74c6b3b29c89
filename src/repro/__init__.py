"""repro — reproduction of Graefe & Kuno, "Definition, Detection, and
Recovery of Single-Page Failures, a Fourth Class of Database Failures"
(PVLDB 5(7), 2012).

The package builds the complete system the paper's design assumes — a
simulated fault-injecting storage device, an ARIES-style write-ahead
log with per-transaction and per-page chains, a buffer pool, user and
system transactions, and a Foster B-tree with symmetric fence keys —
and, on top of it, the paper's contribution: the page recovery index
and single-page failure detection and recovery.

Quick start — the client facade (``repro.connect``) is the front
door; it serves a single embedded engine and a sharded multi-process
deployment behind the same API::

    import repro

    client = repro.connect()                     # one embedded engine
    with client.txn() as t:
        t.put(b"hello", b"world")
    assert client.get(b"hello") == b"world"

    fleet = repro.connect(repro.ShardConfig(n_shards=4,
                                            transport="process"))
    with fleet.txn() as t:
        t.put(b"alpha", b"1")                    # cross-shard writes
        t.put(b"omega", b"2")                    # commit atomically (2PC)

The engine itself remains directly constructible for recovery
experiments::

    from repro import Database, EngineConfig

    db = Database(EngineConfig(capacity_pages=512))
    tree = db.create_index()
    txn = db.begin()
    tree.insert(txn, b"hello", b"world")
    db.commit(txn)

    db.flush_everything()
    db.device.inject_bit_rot(db.catalog.get_root(tree.index_id))
    db.evict_everything()
    assert tree.lookup(b"hello") == b"world"   # recovered transparently
"""

from repro.client import (
    Client,
    ShardedClient,
    SingleNodeClient,
    connect,
)
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.session import Session
from repro.errors import (
    ClientClosedError,
    ClientError,
    ConfigError,
    FailureClass,
    KeyNotFound,
    MediaFailure,
    PageFailureKind,
    RecoveryError,
    ReproError,
    ShardError,
    ShardUnavailableError,
    SinglePageFailure,
    SystemFailure,
    TransactionAborted,
    TransactionError,
    TwoPhaseCommitError,
)
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.sim.clock import SimClock
from repro.sim.iomodel import (
    ARCHIVE_PROFILE,
    FLASH_PROFILE,
    HDD_PROFILE,
    IOProfile,
)
from repro.sim.stats import Stats

__version__ = "1.0.0"

__all__ = [
    # the facade: the recommended entry point
    "connect",
    "Client",
    "SingleNodeClient",
    "ShardedClient",
    # engines and deployment shapes
    "Database",
    "Session",
    "EngineConfig",
    "ShardConfig",
    "ShardRouter",
    "BackupPolicy",
    # simulation plumbing
    "SimClock",
    "Stats",
    "IOProfile",
    "HDD_PROFILE",
    "FLASH_PROFILE",
    "ARCHIVE_PROFILE",
    # error taxonomy
    "FailureClass",
    "PageFailureKind",
    "ReproError",
    "ConfigError",
    "ClientError",
    "ClientClosedError",
    "ShardError",
    "ShardUnavailableError",
    "TwoPhaseCommitError",
    "TransactionError",
    "TransactionAborted",
    "SinglePageFailure",
    "MediaFailure",
    "SystemFailure",
    "RecoveryError",
    "KeyNotFound",
]
