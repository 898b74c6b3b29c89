"""The public client facade: one API over every deployment shape.

``repro.connect(config)`` is the front door of the package.  It takes
a configuration object and returns a :class:`Client` — the same
transactional key-value interface whether the backend is one embedded
engine (:class:`SingleNodeClient` over an :class:`repro.engine.config.
EngineConfig`) or a hash-partitioned fleet of engine processes behind
a two-phase-commit router (:class:`ShardedClient` over a
:class:`repro.shard.config.ShardConfig`)::

    import repro

    client = repro.connect(repro.ShardConfig(n_shards=4,
                                             transport="process"))
    with client.txn() as t:
        t.put(b"alpha", b"1")
        t.put(b"omega", b"2")        # maybe another shard: 2PC, unseen
    value = client.get(b"alpha")     # autocommit read
    client.close()

The context manager commits on clean exit and aborts on exception.
Misuse is typed: operations after :meth:`Client.close` raise
:class:`repro.errors.ClientClosedError`; invalid or incompatible
configurations raise :class:`repro.errors.ConfigError` at
:func:`connect` time, not at first use.

Migration note: code that built a ``Database(...)`` and drove trees
directly keeps working — the facade is a layer, not a replacement —
and ``connect(existing_database)`` wraps a live engine so call sites
can move one at a time.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (ClientClosedError, ConfigError, KeyNotFound,
                          SystemFailure, TransactionError)
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter, check_batch_op


def connect(config=None):  # noqa: ANN001, ANN201
    """Build a :class:`Client` for ``config``.

    * ``None`` — a single embedded engine with default configuration;
    * :class:`EngineConfig` — a single embedded engine;
    * :class:`ShardConfig` — a sharded deployment behind a router;
    * a live :class:`Database` — wrap an existing engine (the caller
      keeps ownership; :meth:`Client.close` will not tear it down).

    Configurations are validated here, so an impossible deployment
    fails at connect time with a :class:`ConfigError`.
    """
    if config is None:
        config = EngineConfig()
    if isinstance(config, Database):
        return SingleNodeClient(db=config, owns_db=False)
    if isinstance(config, EngineConfig):
        config.validate()
        if config.commit_ack_mode == "replicated_durable":
            raise ConfigError(
                "connect() builds a standalone engine with no standby "
                "attachment path; commit_ack_mode='replicated_durable' "
                "needs Database.attach_standby() — construct the engine "
                "directly and wrap it with connect(database)")
        return SingleNodeClient(db=Database(config), owns_db=True)
    if isinstance(config, ShardConfig):
        return ShardedClient(ShardRouter(config.validate()))
    raise ConfigError(
        f"connect() takes an EngineConfig, a ShardConfig, a Database, "
        f"or None; got {type(config).__name__}")


class Client:
    """The uniform transactional key-value interface.

    Subclasses provide ``_txn_handle()`` plus the autocommit
    primitives; everything user-facing — the context manager, the
    closed-state checks — lives here so both backends behave
    identically down to the error types.
    """

    def __init__(self) -> None:
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ClientClosedError(
                f"{type(self).__name__} is closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._close_backend()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:  # noqa: ANN002
        self.close()

    # -- transactions --------------------------------------------------
    @contextmanager
    def txn(self):  # noqa: ANN201
        """One transaction: commits on clean exit, aborts on exception
        (the exception propagates; :class:`repro.errors.
        TransactionAborted` from the commit itself propagates too)."""
        self._require_open()
        handle = self._txn_handle()
        try:
            yield handle
        except BaseException:
            handle.abort()
            raise
        try:
            handle.commit()
        except BaseException:
            # A failed commit may leave a branch holding locks (e.g.
            # stranded behind a partition); abort is idempotent on
            # both backends, so this is a no-op when commit already
            # cleaned up after itself.
            handle.abort()
            raise

    # -- to implement --------------------------------------------------
    def _txn_handle(self):  # noqa: ANN202
        raise NotImplementedError

    def _close_backend(self) -> None:
        raise NotImplementedError

    def get(self, key: bytes) -> bytes | None:
        raise NotImplementedError

    def put(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def delete(self, key: bytes) -> bool:
        raise NotImplementedError

    def scan(self, low: bytes = b"",
             high: bytes | None = None) -> list[tuple[bytes, bytes]]:
        raise NotImplementedError

    def apply_batch(self, ops: list[tuple]) -> int:
        """Bulk-apply ``[("put", k, v) | ("delete", k), ...]``
        transactionally per backend unit (the benchmark path)."""
        raise NotImplementedError

    def metrics(self) -> dict[str, int | float]:
        """What the backend has counted so far, by declared name (the
        catalogue is :data:`repro.sim.stats.CATALOGUE`; a name appears
        once it has been counted)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Single node
# ----------------------------------------------------------------------
class SingleNodeClient(Client):
    """The facade over one embedded engine and one default index."""

    def __init__(self, db: Database, owns_db: bool = True) -> None:
        super().__init__()
        self.db = db
        self.owns_db = owns_db
        if db.indexes:
            self.index_id = db.indexes[0]
        else:
            self.index_id = db.create_index().index_id

    def _txn_handle(self) -> "_SingleNodeTxn":
        return _SingleNodeTxn(self)

    def _close_backend(self) -> None:
        # The embedded engine has no external resources to release;
        # a wrapped caller-owned engine stays fully usable.
        pass

    # The point operations test the closed and failed states in place
    # and hit the tree registry themselves (a hit is a dict lookup, see
    # repro.engine.catalog.TreeRegistry): each is one call into the
    # traced engine methods, with no frame between.  The writes spell
    # Database.run_autocommit out in place.
    def get(self, key: bytes) -> bytes | None:
        if self._closed:
            self._require_open()
        db = self.db
        if db._crashed or db._media_failed:
            db._require_running()
        tree = db.catalog.trees[self.index_id]
        try:
            return tree.lookup(key)
        except KeyNotFound:
            return None

    def put(self, key: bytes, value: bytes) -> None:
        if self._closed:
            self._require_open()
        db = self.db
        txn = db.begin()
        txn.redo_only = True
        try:
            db.locks.acquire(txn.txn_id, key)
            # FosterBTree.upsert, without its hop to insert()
            db.catalog.trees[self.index_id].insert(txn, key, value,
                                                   replace=True)
        except BaseException:
            db.end_autocommit(txn, failed=True)
            raise
        db.end_autocommit(txn)

    def delete(self, key: bytes) -> bool:
        if self._closed:
            self._require_open()
        db = self.db
        txn = db.begin()
        txn.redo_only = True
        try:
            db.locks.acquire(txn.txn_id, key)
            # FosterBTree.remove, without its hop to delete()
            removed = db.catalog.trees[self.index_id].delete(
                txn, key, missing_ok=True)
        except BaseException:
            db.end_autocommit(txn, failed=True)
            raise
        db.end_autocommit(txn)
        return removed

    def scan(self, low: bytes = b"",
             high: bytes | None = None) -> list[tuple[bytes, bytes]]:
        self._require_open()
        self.db._require_running()
        return list(self.db.tree(self.index_id).range_scan(low, high))

    def apply_batch(self, ops: list[tuple]) -> int:
        self._require_open()
        db = self.db
        db.run_autocommit(db.tree(self.index_id).apply_batch, ops,
                          check_batch_op)
        return len(ops)

    def metrics(self) -> dict[str, int | float]:
        self._require_open()
        return self.db.stats.snapshot()


class _SingleNodeTxn:
    """Handle of a multi-statement user transaction (``Client.txn()``)
    over one engine: upserts decided against live tree state under the
    key lock, exactly like the shard worker's branch operations — the
    differential suite depends on the two interpreting intents
    identically.  Autocommit calls do not come through here: they end
    through :meth:`repro.engine.database.Database.end_autocommit`.

    The handle lives no longer than its client and its transaction: once
    the client is closed every operation raises
    :class:`ClientClosedError`, and once a crash (or a media failure)
    took the transaction, :class:`repro.errors.SystemFailure` — before
    anything is read, locked or logged.  ``abort`` stays allowed: it
    rolls back what is still live and leaves a dead transaction alone."""

    def __init__(self, client: SingleNodeClient) -> None:
        self.client = client
        self.db = db = client.db
        self.index_id = client.index_id
        self.txn = db.begin()
        self._done = False

    def _require_live(self) -> None:
        txn = self.txn
        if self._done:
            raise TransactionError(
                f"transaction {txn.txn_id} is already finished")
        if self.client._closed:
            raise ClientClosedError(
                f"transaction {txn.txn_id} outlived its closed client")
        db = self.db
        if db.tm.active.get(txn.txn_id) is not txn:
            db._require_running()
            raise SystemFailure(
                f"transaction {txn.txn_id} died with its engine's failure")

    def _open_tree(self):  # noqa: ANN202
        """The index; a handle that may not go on refuses first."""
        self._require_live()
        return self.db.tree(self.index_id)

    def get(self, key: bytes) -> bytes | None:
        tree = self._open_tree()
        try:
            return tree.lookup(key)
        except KeyNotFound:
            return None

    def put(self, key: bytes, value: bytes) -> None:
        tree = self._open_tree()
        self.db.locks.acquire(self.txn.txn_id, key)
        tree.upsert(self.txn, key, value)

    def delete(self, key: bytes) -> bool:
        tree = self._open_tree()
        self.db.locks.acquire(self.txn.txn_id, key)
        return tree.remove(self.txn, key)

    def commit(self) -> None:
        if self._done:
            return
        self._require_live()
        self._done = True
        self.db.commit(self.txn)

    def abort(self) -> None:
        if self._done:
            return
        self._done = True
        self.db.abort_quietly(self.txn)


# ----------------------------------------------------------------------
# Sharded
# ----------------------------------------------------------------------
class ShardedClient(Client):
    """The facade over a :class:`ShardRouter`.

    All single-key autocommit calls route straight through; the
    transaction handle is the router's (single-shard passthrough,
    cross-shard 2PC).  ``apply_batch`` splits by shard and — on the
    process transport — dispatches the per-shard batches from
    concurrent threads, so N engine processes execute on N cores.
    """

    def __init__(self, router: ShardRouter) -> None:
        super().__init__()
        self.router = router

    def _txn_handle(self):  # noqa: ANN202 - RouterTxn
        return self.router.txn()

    def _close_backend(self) -> None:
        self.router.close()

    def rebalance_slot(self, slot: int, dst: int) -> int:
        """Move one hash slot to shard ``dst`` online (the fleet keeps
        serving); returns the new routing epoch."""
        self._require_open()
        return self.router.move_slot(slot, dst)

    def slot_assignments(self) -> tuple[int, ...]:
        """The current slot -> shard map (index = slot)."""
        self._require_open()
        return self.router.routing.assignments()

    def get(self, key: bytes) -> bytes | None:
        self._require_open()
        return self.router.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self._require_open()
        self.router.put(key, value)

    def delete(self, key: bytes) -> bool:
        self._require_open()
        return self.router.delete(key)

    def scan(self, low: bytes = b"",
             high: bytes | None = None) -> list[tuple[bytes, bytes]]:
        self._require_open()
        return self.router.scan(low, high)

    def apply_batch(self, ops: list[tuple]) -> int:
        self._require_open()
        batches = self.router.partition_batches(ops)
        if self.router.config.transport != "process" or len(batches) <= 1:
            for idx in sorted(batches):
                self.router.apply_batch(idx, batches[idx])
            return len(ops)
        # Process transport: per-shard batches run in real parallel —
        # each thread blocks on its own worker's socket while that
        # worker's engine burns its own core.
        errors: list[BaseException] = []

        def run(idx: int) -> None:
            try:
                self.router.apply_batch(idx, batches[idx])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(idx,), daemon=True)
                   for idx in sorted(batches)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return len(ops)

    def metrics(self) -> dict[str, int | float]:
        """Every shard's counters, summed.  What is a level and not a
        count — a worker's ``shard_*`` gauges, a shard's simulated
        clock — stays per shard, as ``name[<shard>]``."""
        self._require_open()
        merged: dict[str, int | float] = {}
        for shard, counters in self.router.stats().items():
            for name, value in counters.items():
                if name.startswith("shard_") or name == "sim_clock_seconds":
                    merged[f"{name}[{shard}]"] = value
                else:
                    merged[name] = merged.get(name, 0) + value
        return merged
