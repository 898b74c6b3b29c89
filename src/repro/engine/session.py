"""Multi-threaded sessions over one engine.

A :class:`Session` is one worker thread's handle on a shared
:class:`repro.engine.Database`.  The concurrency model is
many-readers-or-one-writer plus a lock-free commit wait:

* **structural operations** (inserts, updates, deletes, rollback,
  maintenance) run under the engine's *exclusive* latch — B-tree
  splits, allocation, and logging are serialized, exactly like a
  single-threaded engine holding a tree latch;
* **reads** run under the *shared* latch: any number of lookups
  proceed concurrently, contending only inside the buffer pool (frame
  table mutex, per-page load latches) — which is where fetch races,
  pin races, and eviction-under-pins are actually exercised;
* **commit** logs the commit (the bit on the transaction's last
  record, or a COMMIT record when that record has already hardened)
  and releases the transaction's locks under the exclusive latch, then
  waits for durability on the log's cross-thread group-commit barrier
  with *no latch held*.  While one committer (the group leader)
  forces, every other thread keeps working; their commits ride the
  next force.  This is early lock release with log-order durability:
  the record carrying a dependent transaction's commit always lands
  after the one it read from, and forces harden prefixes, so no
  transaction is ever durable before one it depends on.

Creating the first session flips the log into cross-thread commit mode
(the single-threaded ``Database`` API and the deterministic chaos
harness never do, so their behavior is bit-identical to the
pre-session engine).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TransactionError
from repro.txn.transaction import Transaction


class Session:
    """One thread's transactional interface to a shared engine.

    Sessions are cheap; create one per worker thread.  A session holds
    at most one open transaction.  All methods may be called from the
    owning thread only (the engine itself is shared; the session is
    not).
    """

    def __init__(self, db) -> None:  # noqa: ANN001 - Database facade
        self.db = db
        self.txn: Transaction | None = None

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        if self.txn is not None:
            raise TransactionError("session already has an open transaction")
        with self.db.latch.exclusive():
            self.txn = self.db.begin()
        return self.txn

    def commit(self) -> int:
        """Commit the open transaction; returns its commit LSN.

        The commit is logged (and locks released) under the exclusive
        latch; the durability wait happens on the group-commit barrier
        *outside* it, so concurrent committers amortize forces.
        """
        txn = self._require_txn()
        with self.db.latch.exclusive():
            lsn = self.db.tm.commit(txn, defer_force=True)
        # Only now is the transaction out of our hands; a failure above
        # leaves self.txn set so the caller can still abort it (its
        # locks would otherwise be stranded with no handle).
        self.txn = None
        self.db.log.commit_force(lsn)
        if self.db.tm.ack_mode == "replicated_durable":
            # The barrier leader's force shipped the whole tail; riders
            # usually find their record already acked.  Raises
            # ReplicationLagError when the ack is unobtainable — the
            # commit itself is done and locally durable.
            self.db.log.ensure_replicated(lsn)
        return lsn

    def abort(self) -> None:
        txn = self._require_txn()
        with self.db.latch.exclusive():
            self.db.tm.abort(txn, self.db)
        # Cleared only after the rollback completed; a failed rollback
        # (e.g. repair escalation mid-undo) keeps the handle so abort
        # can be retried — CLRs make rollback restartable.
        self.txn = None

    def forget(self) -> Transaction | None:
        """Abandon the open transaction *without* finishing it.

        Models a client that died mid-transaction: the transaction
        stays in the active table holding its locks until a crash (or
        an explicit abort from another thread) cleans it up.  Returns
        the abandoned transaction.
        """
        txn, self.txn = self.txn, None
        return txn

    def _require_txn(self) -> Transaction:
        if self.txn is None:
            raise TransactionError("session has no open transaction")
        return self.txn

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def apply(self, key: bytes, fn: Callable[[Transaction], None]) -> None:
        """Run one write intent under the exclusive latch.

        ``key`` is locked for the session's transaction first, so the
        decision logic inside ``fn`` (e.g. insert-vs-update against
        current tree state) is stable until commit.  Lock conflicts and
        deadlocks propagate for the caller to retry or abort.
        """
        txn = self._require_txn()
        with self.db.latch.exclusive():
            self.db.locks.acquire(txn.txn_id, key)
            fn(txn)

    def insert(self, tree, key: bytes, value: bytes) -> None:  # noqa: ANN001
        self.apply(key, lambda txn: tree.insert(txn, key, value))

    def update(self, tree, key: bytes, value: bytes) -> None:  # noqa: ANN001
        self.apply(key, lambda txn: tree.update(txn, key, value))

    def upsert(self, tree, key: bytes, value: bytes) -> None:  # noqa: ANN001
        """Insert or update, decided against live tree state under the
        key lock (the decision cannot go stale mid-transaction)."""
        self.apply(key, lambda txn: tree.upsert(txn, key, value))

    def delete(self, tree, key: bytes) -> bool:  # noqa: ANN001
        """Delete if present (under the key lock); returns True if a
        delete happened."""
        deleted = []
        self.apply(key, lambda txn: deleted.append(tree.remove(txn, key)))
        return deleted[0]

    def lookup(self, tree, key: bytes):  # noqa: ANN001, ANN201
        """Read under the shared latch: concurrent with other readers,
        excluded only by writers.  Takes no key lock, so it may return a
        value whose writer has not committed — an open transaction's, or
        a pending loser's not yet rolled back during an on-demand
        restart: a read-uncommitted view, under which a transaction can
        commit what it read of a write that is then rolled back (Adya's
        G1a; ROADMAP item 12 chooses the isolation level)."""
        with self.db.latch.shared():
            return tree.lookup(key)

    # ------------------------------------------------------------------
    # Maintenance (exclusive; safe to run from a background thread
    # while other sessions keep executing between its latch holds)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        with self.db.latch.exclusive():
            return self.db.checkpoint()

    def drain(self, page_budget: int | None = None,
              loser_budget: int | None = None) -> tuple[int, int]:
        """Drain pending recovery work (restart or restore) under the
        exclusive latch; returns ``(pages, losers)``."""
        with self.db.latch.exclusive():
            return self.db.drain_pending(page_budget, loser_budget)

    def truncate_log(self) -> int:
        with self.db.latch.exclusive():
            return self.db.truncate_log()
