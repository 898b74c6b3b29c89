"""Transaction objects.

A transaction is a chain head into the recovery log: ``last_lsn``
points at its most recent log record, and every record points at the
previous one (the per-transaction chain, Section 5.1.1).
"""

from __future__ import annotations

import enum

from repro.wal.lsn import NULL_LSN


class TxnState(enum.Enum):
    ACTIVE = "active"
    #: 2PC participant vote logged; the transaction holds its locks and
    #: awaits the coordinator's decision (commit or roll back)
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A user or system transaction.

    System transactions (Section 5.1.5, Figure 5):

    * may only make contents-neutral structural changes;
    * commit without forcing the log — their commit record is forced
      prior to (or with) the commit record of any dependent user
      transaction;
    * never roll back individual logical operations; an unlogged
      system transaction simply vanishes at a crash, which is safe
      exactly because it was contents-neutral.
    """

    __slots__ = ("txn_id", "is_system", "state", "last_lsn", "first_lsn",
                 "redo_only")

    def __init__(self, txn_id: int, is_system: bool = False) -> None:
        self.txn_id = txn_id
        self.is_system = is_system
        self.state = TxnState.ACTIVE
        self.last_lsn = NULL_LSN
        self.first_lsn = NULL_LSN
        #: set by an autocommit caller around one write (see
        #: ``Database.end_autocommit``): a write that logs a single record logs it redo-only
        #: (no undo, the commit bit at append) and leaves the
        #: transaction COMMITTED, its force and lock release still due
        #: (``TransactionManager.commit``)
        self.redo_only = False

    @property
    def active(self) -> bool:
        return self.state == TxnState.ACTIVE

    def note_logged(self, lsn: int) -> None:
        """Record that this transaction just wrote log record ``lsn``."""
        if self.first_lsn == NULL_LSN:
            self.first_lsn = lsn
        self.last_lsn = lsn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavor = "sys" if self.is_system else "user"
        return (f"Transaction({self.txn_id}, {flavor}, {self.state.value}, "
                f"last_lsn={self.last_lsn})")
