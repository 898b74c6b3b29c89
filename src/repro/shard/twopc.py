"""The coordinator side of cross-shard two-phase commit.

The router is the coordinator.  Its decision log is the tiny durable
structure classic 2PC requires: a *forced* COMMIT-decision entry is
the commit point of a cross-shard transaction — before it, presumed
abort applies (a coordinator crash between prepare and decision aborts
the transaction); after it, every prepared participant must eventually
commit, however many crashes intervene on either side.

Phase two appends, and the decision forces.  A participant's PREPARE
is forced; its phase-two COMMIT record is not
(:meth:`repro.txn.manager.TransactionManager.commit_prepared`), so a
participant crash can take it, and the branch restarts in doubt.
Keeping the decision is therefore what makes a committed branch
durable: a forced decision is never forgotten, and every reopen
resolves the shard's in-doubt branches from :meth:`CoordinatorLog.
decision_of`.  Presumed abort's forced participant COMMIT exists only
so that the coordinator may forget a transaction once every ACK is in;
this log forgets nothing, so that force buys nothing here.

Like the engine's log manager, the decision log models durability
explicitly for the chaos harness: :meth:`CoordinatorLog.crash`
discards unforced entries, exactly what losing the coordinator host
would do.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Decision:
    """One durable coordinator decision."""

    gtid: int
    verdict: str  # "commit" | "abort"
    participants: tuple[int, ...]


@dataclass(frozen=True)
class EpochRecord:
    """One durable slot-cutover record (online rebalancing).

    Forcing this record is the commit point of a ``move_slot``: a
    recovering router replays the durable epoch sequence to rebuild
    its routing table, exactly as participants replay decisions."""

    epoch: int
    slot: int
    src: int
    dst: int


class CoordinatorLog:
    """Append-only, explicitly-forced 2PC decision log.

    Global transaction ids are allocated from a counter that survives
    :meth:`crash` — modeling the standard pessimistically pre-reserved
    sequence block, so a gtid can never be reused for a different
    transaction while a participant still holds the old one in doubt.
    """

    def __init__(self) -> None:
        self._entries: list[Decision] = []
        self._durable_count = 0
        self._next_gtid = 1

    # -- identity ------------------------------------------------------
    def allocate_gtid(self) -> int:
        gtid = self._next_gtid
        self._next_gtid += 1
        return gtid

    # -- logging -------------------------------------------------------
    def log_decision(self, gtid: int, verdict: str,
                     participants: tuple[int, ...] | list[int],
                     force: bool = True) -> None:
        if verdict not in ("commit", "abort"):
            raise ValueError(f"verdict must be 'commit' or 'abort', "
                             f"got {verdict!r}")
        self._entries.append(Decision(gtid, verdict, tuple(participants)))
        if force:
            self.force()

    def log_epoch(self, epoch: int, slot: int, src: int, dst: int,
                  force: bool = True) -> EpochRecord:
        """Append a slot-cutover record; forcing it is the cutover's
        commit point (an unforced record vanishes with the coordinator
        and the move never happened)."""
        record = EpochRecord(epoch, slot, src, dst)
        self._entries.append(record)
        if force:
            self.force()
        return record

    def force(self) -> None:
        """Harden every appended decision (the commit point)."""
        self._durable_count = len(self._entries)

    def crash(self) -> None:
        """Coordinator loss: unforced decisions vanish; durable ones —
        and the gtid sequence — survive."""
        del self._entries[self._durable_count:]

    # -- recovery queries ----------------------------------------------
    def decision_of(self, gtid: int) -> str:
        """The durable verdict for ``gtid`` — ``"abort"`` when none was
        forced (presumed abort covers coordinator loss between prepare
        and decision)."""
        for decision in self._entries[:self._durable_count]:
            if isinstance(decision, Decision) and decision.gtid == gtid:
                return decision.verdict
        return "abort"

    def durable_decisions(self) -> list[Decision]:
        return [entry for entry in self._entries[:self._durable_count]
                if isinstance(entry, Decision)]

    def durable_epochs(self) -> list[EpochRecord]:
        """Every durable cutover record, in epoch order (append order
        is epoch order — epochs are allocated by the single router)."""
        return [entry for entry in self._entries[:self._durable_count]
                if isinstance(entry, EpochRecord)]

    def __len__(self) -> int:
        return len(self._entries)
