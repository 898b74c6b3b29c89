"""The engine plug-in of the chaos core: one database, every failure class.

:mod:`repro.sim.chaos` owns the seeded generate -> execute -> shrink ->
campaign loop; this module is what is specific to one
:class:`repro.engine.database.Database`:

* the **event table** at the bottom — client transactions
  (:class:`repro.workloads.fleet.ClientFleet`, one RNG stream per
  client), maintenance (checkpoint, backup, drain, truncate, retire),
  and the five failure kinds — ``corrupt`` (any
  :class:`repro.storage.faults.FaultKind` on any page), ``crash``
  (optionally *mid-operation*, via a :meth:`repro.sim.clock.SimClock.
  arm` deadline that fires inside whatever engine I/O crosses it),
  ``device_loss``, ``backup_loss``, and ``double`` (crash during a
  pending restore, media failure during a pending restart) — then the
  replication family (``standby_crash``, ``link_loss``, ``failover``),
  enabled by ``ChaosConfig.standby``.  A config that does not enable it
  draws from exactly the base rows, so old seeds expand bit-identically;
* :class:`DurabilityOracle` — shadows every committed transaction's
  effects.  After each recovery it checks (a) all committed effects
  visible, (b) no aborted effects visible, (c) B-tree invariants hold
  (:func:`repro.btree.verify.verify_tree`), and (d) — on designated
  events — that eager and on-demand recovery of the *same* failure
  image converge to byte-identical end states.  Commits interrupted
  mid-acknowledgement are *uncertain* and resolved from the durable
  log: present commit record means the effects must all be visible,
  absent means none may be (atomicity either way);
* the run object the handlers share: the database, the oracle, the
  mid-operation crash deadline and the media-failure absorption.

Command line: ``python -m repro.sim.chaos engine --help``.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, replace
from typing import Iterator

from repro.btree.verify import verify_tree
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (
    ConfigError,
    KeyNotFound,
    MediaFailure,
    RecoveryError,
    ReplicationLagError,
    ReproError,
    SinglePageFailure,
    StorageError,
)
from repro.page.page import Page
from repro.sim.chaos import (
    BaseChaosConfig,
    ChaosRun,
    Event,
    EventKind,
    Plugin,
    apply_staged,
    key_of,
)
from repro.sim.iomodel import HDD_PROFILE
from repro.storage.faults import FaultKind
from repro.txn.locks import DeadlockError, LockConflict
from repro.workloads.fleet import ClientFleet

__all__ = ["MODE_COMBOS", "ChaosConfig", "DurabilityOracle",
           "ScheduledCrashInterrupt"]

MODE_COMBOS = (("eager", "eager"), ("eager", "on_demand"),
               ("on_demand", "eager"), ("on_demand", "on_demand"))


class ScheduledCrashInterrupt(Exception):
    """Raised by an armed clock deadline to cut an engine operation
    short, exactly like a process crash would.  Deliberately *not* a
    :class:`repro.errors.ReproError`: no engine code may catch it."""


def _raise_scheduled_crash() -> None:
    raise ScheduledCrashInterrupt()


@dataclass
class ChaosConfig(BaseChaosConfig):
    """Everything needed to reproduce one engine chaos run."""

    restart_mode: str = "eager"
    restore_mode: str = "eager"
    #: attach a hot standby (PR 7): the schedule then mixes in the
    #: replication failure kinds, the standby serves as the fifth
    #: repair source, and ``failover`` events promote it
    standby: bool = False
    #: ``"local_durable"`` or ``"replicated_durable"`` (the latter
    #: requires ``standby``)
    ack_mode: str = "local_durable"
    #: shipping granularity: ``"tail"`` or ``"segment"``
    ship_mode: str = "tail"
    #: run the eager-vs-on-demand differential oracle on designated
    #: failure events (check (d))
    differential: bool = True

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            capacity_pages=self.capacity_pages,
            buffer_capacity=self.buffer_capacity,
            device_profile=HDD_PROFILE,
            log_profile=HDD_PROFILE,
            backup_profile=HDD_PROFILE,
            restart_mode=self.restart_mode,
            restore_mode=self.restore_mode,
            backup_policy=BackupPolicy(every_n_updates=24),
            commit_ack_mode=self.ack_mode,
            seed=self.seed,
        )

    def header(self) -> str:
        return (f"chaos seed={self.seed} "
                f"restart={self.restart_mode} "
                f"restore={self.restore_mode} "
                f"standby={self.standby} "
                f"ack={self.ack_mode}")

    def campaign(self, n_schedules: int,
                 base_seed: int = 0) -> Iterator[ChaosConfig]:
        """Seeds ``base_seed .. base_seed + n - 1``, cycling through
        all four restart x restore mode combinations."""
        for index, config in enumerate(super().campaign(n_schedules,
                                                        base_seed)):
            restart_mode, restore_mode = MODE_COMBOS[index % len(MODE_COMBOS)]
            yield replace(config, restart_mode=restart_mode,
                          restore_mode=restore_mode)


# ----------------------------------------------------------------------
# The durability oracle
# ----------------------------------------------------------------------
class DurabilityOracle:
    """Shadow model of every committed transaction's effects.

    ``model`` maps key -> committed value; a delete removes the key.
    Transactions whose commit acknowledgement was cut off by a failure
    are parked in ``uncertain`` and resolved against the durable log
    after recovery: a surviving commit folds the staged effects
    into the model, an absent one discards them — and the subsequent
    visibility check then enforces atomicity in both directions.
    """

    def __init__(self) -> None:
        self.model: dict[bytes, bytes] = {}
        #: txn_id -> staged effects (value None = delete)
        self.uncertain: dict[int, dict[bytes, bytes | None]] = {}
        #: every applied commit, in order: (txn_id, staged, commit_lsn,
        #: replicated) — the replay tape :meth:`rebase_to_log` rebuilds
        #: the model from after a failover, when commits acknowledged
        #: ``local_durable`` may legitimately not have reached the
        #: promoted standby
        self.journal: list[tuple[int | None, dict[bytes, bytes | None],
                                 int | None, bool]] = []
        #: commits dropped by the most recent :meth:`rebase_to_log`
        self.lost_at_last_rebase = 0
        self.checks = 0

    # -- bookkeeping during the workload -------------------------------
    def commit_applied(self, staged: dict[bytes, bytes | None],
                       txn_id: int | None = None, lsn: int | None = None,
                       replicated: bool = False) -> None:
        """A transaction's commit call returned: effects are durable.

        ``replicated`` marks a commit acknowledged under
        ``replicated_durable`` — one that must survive even the total
        loss of the primary."""
        self.journal.append((txn_id, dict(staged), lsn, replicated))
        apply_staged(self.model, staged)

    def record_uncertain(self, txn_id: int,
                         staged: dict[bytes, bytes | None]) -> None:
        """A failure interrupted the transaction (possibly inside the
        commit acknowledgement): durability is unknown until the log
        can be consulted after recovery."""
        if staged:
            self.uncertain[txn_id] = dict(staged)

    def resolve_uncertain(self, db: Database) -> None:
        """Resolve parked commits against the post-recovery log."""
        if not self.uncertain:
            return
        committed_lsns = {record.txn_id: record.lsn
                          for record in db.log.all_records()
                          if record.commits_txn}
        for txn_id in sorted(self.uncertain):
            staged = self.uncertain.pop(txn_id)
            if txn_id in committed_lsns:
                self.commit_applied(staged, txn_id=txn_id,
                                    lsn=committed_lsns[txn_id])

    def rebase_to_log(self, db: Database, context: str) -> list[str]:
        """Failover: rebuild the model from what reached the promoted
        standby, replaying the commit journal.

        A journaled commit survives if its record is in the promoted
        log, or if it predates the log's truncation horizon (its
        effects rode the standby seed or shipped pages rather than
        records).  A commit that does *not* survive is the documented
        ``local_durable`` window — unless it was acknowledged
        ``replicated_durable``, which makes its loss a violation.  The
        journal is compacted to the survivors so a later failover
        rebases from a consistent lineage.
        """
        committed_ids = {record.txn_id for record in db.log.all_records()
                         if record.commits_txn}
        horizon = db.log.truncated_below
        violations: list[str] = []
        survivors: list[tuple] = []
        model: dict[bytes, bytes] = {}
        lost = 0
        for entry in self.journal:
            txn_id, staged, lsn, replicated = entry
            survives = ((lsn is not None and lsn < horizon)
                        or txn_id in committed_ids)
            if survives:
                survivors.append(entry)
                apply_staged(model, staged)
            else:
                lost += 1
                if replicated:
                    violations.append(
                        f"{context}: replicated-acked txn {txn_id} "
                        f"(commit LSN {lsn}) lost at failover")
        self.journal = survivors
        self.model = model
        self.lost_at_last_rebase = lost
        return violations

    # -- checks --------------------------------------------------------
    def full_check(self, db: Database, context: str,
                   index_id: int = 1) -> list[str]:
        """Checks (a)+(b)+(c): drain pending work, then demand the
        surviving state equals the committed model exactly and the
        B-tree invariants hold."""
        self.checks += 1
        self.resolve_uncertain(db)
        db.finish_restart()
        db.finish_restore()
        violations: list[str] = []
        tree = db.tree(index_id)
        scan = dict(tree.range_scan())
        missing = [k for k in self.model if k not in scan]
        wrong = [k for k in self.model
                 if k in scan and scan[k] != self.model[k]]
        phantom = [k for k in scan if k not in self.model]
        if missing:
            violations.append(
                f"{context}: {len(missing)} committed keys lost "
                f"(first: {missing[0]!r})")
        if wrong:
            violations.append(
                f"{context}: {len(wrong)} committed keys have wrong values "
                f"(first: {wrong[0]!r})")
        if phantom:
            violations.append(
                f"{context}: {len(phantom)} uncommitted keys visible "
                f"(first: {phantom[0]!r})")
        report = verify_tree(tree)
        if not report.ok:
            violations.append(
                f"{context}: B-tree invariants violated: "
                f"{report.problems[0]}")
        return violations

    def sample_check(self, db: Database, rng: random.Random,
                     context: str, n_probes: int = 8,
                     index_id: int = 1) -> list[str]:
        """A light (a)+(b) probe that rides the lazy fix paths instead
        of draining pending work: look up a sample of keys and compare
        with the model.  Keys locked by pending losers are skipped —
        their rollback has not run yet, by design."""
        self.checks += 1
        self.resolve_uncertain(db)
        violations: list[str] = []
        tree = db.tree(index_id)
        population = sorted(self.model)
        probes = (rng.sample(population, min(n_probes, len(population)))
                  if population else [])
        probes += [key_of(10**6 + rng.randrange(100))]  # an absent key
        for key in probes:
            if db.locks.holder_of(key) is not None:
                continue  # held by a pending loser awaiting lazy undo
            expected = self.model.get(key)
            try:
                actual = tree.lookup(key)
            except KeyNotFound:
                actual = None
            if actual != expected:
                violations.append(
                    f"{context}: probe {key!r} = {actual!r}, "
                    f"expected {expected!r}")
        return violations


# ----------------------------------------------------------------------
# Differential oracle helpers (check (d))
# ----------------------------------------------------------------------
def _clone_failed(db: Database) -> Database:
    """Deep-copy a failed database image so it can be recovered
    independently under the other mode (hooks are not cloned: they
    close over the harness)."""
    crash_hooks, recovery_hooks = db.crash_hooks, db.recovery_hooks
    db.crash_hooks, db.recovery_hooks = [], []
    try:
        return copy.deepcopy(db)
    finally:
        db.crash_hooks, db.recovery_hooks = crash_hooks, recovery_hooks


def _log_shape(db: Database) -> list[tuple]:
    return [(r.lsn, r.kind, r.txn_id, r.page_id, r.page_lsn, r.writes,
             r.page_prev_lsn, r.prev_lsn)
            for r in db.log.all_records()]


def _device_images(db: Database) -> dict[int, bytes]:
    db.flush_everything()
    images: dict[int, bytes] = {}
    for page_id in range(db.allocated_pages()):
        raw = db.device.raw_image(page_id)
        if raw is not None:
            images[page_id] = bytes(raw)
    return images


def _compare_recoveries(eager_db: Database, lazy_db: Database,
                        context: str) -> list[str]:
    violations = []
    if _log_shape(eager_db) != _log_shape(lazy_db):
        violations.append(f"{context}: eager and on-demand logs diverge")
    if _device_images(eager_db) != _device_images(lazy_db):
        violations.append(f"{context}: eager and on-demand device images "
                          f"diverge")
    for index_id in eager_db.indexes:
        eager_scan = dict(eager_db.tree(index_id).range_scan())
        lazy_scan = dict(lazy_db.tree(index_id).range_scan())
        if eager_scan != lazy_scan:
            violations.append(f"{context}: committed state diverges on "
                              f"index {index_id}")
    return violations


# ----------------------------------------------------------------------
# Schedule execution
# ----------------------------------------------------------------------
class _Run(ChaosRun):
    """One schedule against one :class:`Database`."""

    def __init__(self, config: ChaosConfig, events: list[Event]) -> None:
        super().__init__(config, events)
        self.db = Database(config.engine_config())
        # A promoted standby shares its primary's Stats, so these stay
        # the run's counters across a failover.
        counter = self.db.stats.counter
        self._chaos_txn_failures = counter("chaos_txn_failures")
        self._chaos_replication_lag_commits = counter(
            "chaos_replication_lag_commits")
        self._chaos_backup_losses = counter("chaos_backup_losses")
        self.oracle = DurabilityOracle()
        self.fleet = ClientFleet(config.n_clients, config.seed,
                                 key_space=config.n_keys + 40)
        self.check_rng = random.Random(f"chaos-check/{config.seed}")
        #: (txn, staged) of the action currently executing, for
        #: uncertain-commit accounting when an interrupt cuts it short
        self.inflight: tuple[object, dict] | None = None
        self._armed_diff = False
        self.db.crash_hooks.append(self._on_crash)
        self.db.recovery_hooks.append(self._on_recovery)
        if config.ack_mode == "replicated_durable" and not config.standby:
            raise ValueError("ack_mode=replicated_durable requires standby")
        if config.standby:
            # Before any user commit: replicated_durable acks need the
            # shipping link from the very first transaction.
            self.db.attach_standby(mode=config.ship_mode)
        self.tree = self.db.create_index()
        self.index_id = self.tree.index_id
        self._load_initial()

    # -- setup ---------------------------------------------------------
    def _load_initial(self) -> None:
        db, tree = self.db, self.tree
        txn = db.begin()
        staged: dict[bytes, bytes | None] = {}
        for i in range(self.config.n_keys):
            value = b"v%d.0" % i
            tree.insert(txn, key_of(i), value)
            staged[key_of(i)] = value
        lsn = db.commit(txn)
        self.oracle.commit_applied(
            staged, txn_id=txn.txn_id, lsn=lsn,
            replicated=self.config.ack_mode == "replicated_durable")
        db.flush_everything()
        backup_id = db.take_full_backup()
        self.trace(f"load keys={self.config.n_keys} backup={backup_id}")

    # -- plumbing ------------------------------------------------------
    def trace(self, line: str) -> None:
        self.result.trace.append(f"[{self.db.clock.now:.4f}] {line}")

    def _on_crash(self, db: Database) -> None:
        """Engine crash hook: every crash is traced at its true
        position, whichever code path initiated it."""
        self.trace("crash")

    def _on_recovery(self, db: Database, kind: str, report) -> None:  # noqa: ANN001
        self.count("recoveries")
        # The catalog's volatile tree objects did not survive the
        # failure; re-resolve the working tree.
        self.tree = db.tree(self.index_id)
        pending = (getattr(report, "pending_redo_pages", 0)
                   or getattr(report, "pending_restore_pages", 0))
        self.trace(f"recovered kind={kind} mode={report.mode} "
                   f"pending={pending}")
        db.stats.note_max("chaos_max_pending_after_recovery", pending)

    def _newest_backup_id(self) -> int:
        """The backup the next media recovery should use: the one a
        pending/interrupted restore depends on if it is retained,
        otherwise the newest retained backup with a log record."""
        db = self.db
        pinned = db.durable.restore_backup_id
        if pinned is not None and db.backup_store.has_full_backup(pinned):
            return pinned
        for backup_id in reversed(db.backup_store.full_backup_ids()):
            if db.log.backup_full_lsn(backup_id) is not None:
                return backup_id
        raise RecoveryError("no usable full backup retained")

    # -- failure primitives --------------------------------------------
    def _park_inflight(self) -> None:
        """A failure cut the executing transaction short (possibly
        inside its commit acknowledgement): the oracle decides from
        the log, after recovery, whether it committed."""
        if self.inflight is not None:
            txn, staged = self.inflight
            self.oracle.record_uncertain(txn.txn_id, staged)
            self.inflight = None

    def crash_now(self, diff: bool = False) -> None:
        """Process crash at this exact point, then recovery (which is
        a restore re-run when the crash interrupted a pending
        restore), then the oracle."""
        db = self.db
        db.clock.disarm()
        self._park_inflight()
        db.crash()
        if db._media_failed:
            # The crash interrupted an on-demand restore: the device is
            # effectively failed again; re-run from the retained backup.
            self.trace("crash interrupted pending restore; re-running")
            self.recover_media_now(diff=diff)
            return
        clone = _clone_failed(db) if diff and self.config.differential else None
        db.restart(mode=self.config.restart_mode)
        if clone is not None:
            db.finish_restart()
            other = ("on_demand" if self.config.restart_mode == "eager"
                     else "eager")
            self._differential(clone, "restart", other)
            self.check("post-crash", full=True)
        else:
            self.check("post-crash", full=False)

    def media_fail_now(self) -> None:
        """Lose the device through the real escalation path."""
        db = self.db
        db.clock.disarm()
        self._park_inflight()
        db.device.fail_device("chaos device loss")
        db._on_media_failure(MediaFailure(db.device.name, "chaos device loss"))
        self.trace("device_loss")

    def recover_media_now(self, diff: bool = False) -> None:
        db = self.db
        db.clock.disarm()
        backup_id = self._newest_backup_id()
        clone = _clone_failed(db) if diff and self.config.differential else None
        db.recover_media(backup_id, mode=self.config.restore_mode)
        if clone is not None:
            db.finish_restore()
            other = ("on_demand" if self.config.restore_mode == "eager"
                     else "eager")
            self._differential(clone, "restore", other, backup_id)
            self.check("post-restore", full=True)
        else:
            self.check("post-restore", full=False)

    def _differential(self, clone: Database, kind: str, other_mode: str,
                      backup_id: int | None = None) -> None:
        """Oracle check (d): recover the cloned failure image under
        the *other* mode and demand byte-identical end states.  The
        clone is fully isolated — an exception from its recovery is a
        differential violation, never attributed to the main database
        (a broken opposite mode must fail the schedule, not be
        absorbed by the run loop's failure handlers)."""
        context = f"diff-{kind}"
        try:
            if kind == "restart":
                clone.restart(mode=other_mode)
                clone.finish_restart()
            else:
                clone.recover_media(backup_id, mode=other_mode)
                clone.finish_restore()
            violations = _compare_recoveries(self.db, clone, context)
        except Exception as exc:  # noqa: BLE001 - clone faults are findings
            violations = [f"{context}: {other_mode} recovery of the same "
                          f"image raised {type(exc).__name__}: {exc}"]
        for violation in violations:
            self.violation(violation)

    def check(self, context: str, full: bool) -> None:
        if full:
            violations = self.oracle.full_check(self.db, context,
                                                index_id=self.index_id)
        else:
            violations = self.oracle.sample_check(self.db, self.check_rng,
                                                  context,
                                                  index_id=self.index_id)
        for violation in violations:
            self.violation(violation)

    # -- event handlers ------------------------------------------------
    def _do_client(self, payload: dict) -> None:
        db, tree, oracle = self.db, self.tree, self.oracle
        action = self.fleet.next_action(payload["client"])
        txn = db.begin()
        staged: dict[bytes, bytes | None] = {}
        self.inflight = (txn, staged)
        try:
            for verb, key_index, value in action.ops:
                key = key_of(key_index)
                # Interpret the intent against the committed model plus
                # this transaction's own staged writes.
                if key in staged:
                    exists = staged[key] is not None
                else:
                    exists = key in oracle.model
                db.locks.acquire(txn.txn_id, key)
                if verb == "lookup" or (verb == "delete" and not exists):
                    expected = (staged[key] if key in staged
                                else oracle.model.get(key))
                    try:
                        actual = tree.lookup(key)
                    except KeyNotFound:
                        actual = None
                    if actual != expected:
                        self.violation(
                            f"client read {key!r} = {actual!r}, "
                            f"expected {expected!r}")
                elif verb == "delete":
                    tree.delete(txn, key)
                    staged[key] = None
                elif exists:
                    tree.update(txn, key, value)
                    staged[key] = value
                else:
                    tree.insert(txn, key, value)
                    staged[key] = value
            if action.fate == "abort":
                db.abort(txn)
                self._chaos_txn_failures.inc()
            else:
                replicated = False
                try:
                    lsn = db.commit(txn)
                    replicated = (db.tm.ack_mode == "replicated_durable")
                except ReplicationLagError:
                    # The commit IS done and locally durable; only the
                    # replication acknowledgement failed (standby down
                    # or link severed).  The oracle records it like a
                    # local_durable commit: it may be lost at failover.
                    lsn = txn.last_lsn
                    self._chaos_replication_lag_commits.inc()
                oracle.commit_applied(staged, txn_id=txn.txn_id, lsn=lsn,
                                      replicated=replicated)
                self.count("committed_txns")
            self.inflight = None
            self.trace(f"client={action.client} seq={action.seq} "
                       f"ops={len(action.ops)} fate={action.fate}")
        except (LockConflict, DeadlockError):
            # A genuine transaction failure: roll back, effects vanish.
            self.inflight = None
            if txn.active:
                db.abort(txn)
            self._chaos_txn_failures.inc()
            self.trace(f"client={action.client} seq={action.seq} "
                       f"fate=lock-abort")

    def _do_checkpoint(self, payload: dict) -> None:
        self.db.checkpoint()
        self.trace("checkpoint")

    def _do_backup(self, payload: dict) -> None:
        backup_id = self.db.take_full_backup()
        self.trace(f"backup id={backup_id}")

    def _do_drain(self, payload: dict) -> None:
        restart = self.db.restart_pending  # else any work is a restore's
        pages, losers = self.db.drain_pending(
            page_budget=payload["pages"], loser_budget=payload["losers"])
        if pages or losers:
            done, idle = f"{pages}/{losers}", "0/0"
            self.trace(f"drain restart={done if restart else idle} "
                       f"restore={idle if restart else done}")

    def _do_truncate(self, payload: dict) -> None:
        try:
            dropped = self.db.truncate_log()
        except StorageError as exc:
            if type(exc) is not StorageError:
                # Subclasses (MediaFailure, SinglePageFailure, device
                # errors) have dedicated handling in the run loop.
                raise
            # A bare StorageError is the backup medium refusing a
            # copy-forward write (for example a failure injected by a
            # backup_loss event): the old page copies survive,
            # truncation simply retries later.
            self.trace("truncate aborted by backup-media write failure")
            return
        self.trace(f"truncate dropped={dropped}")

    def _do_retire(self, payload: dict) -> None:
        retired = self.db.retire_backups()
        self.trace(f"retire backups={retired}")

    def _do_corrupt(self, payload: dict) -> None:
        db = self.db
        first, limit = db.config.data_start, db.allocated_pages()
        if limit <= first:
            return
        page_id = first + payload["rank"] % (limit - first)
        victim = first + payload["victim_rank"] % (limit - first)
        fault = FaultKind(payload["fault"])
        if fault is FaultKind.MISDIRECTED_WRITE and victim == page_id:
            victim = first + (victim + 1 - first) % (limit - first)
        db.device.apply_fault(fault, page_id, victim_page=victim,
                              nbits=payload["nbits"])
        self.trace(f"corrupt page={page_id} fault={fault.value}")

    def _do_crash(self, payload: dict) -> None:
        delay = payload["delay"]
        if delay <= 0:
            self.crash_now(diff=payload["diff"])
            return
        # Arm a mid-operation crash: the first engine I/O that carries
        # simulated time past the deadline dies mid-flight.
        self.db.clock.arm(self.db.clock.now + delay, _raise_scheduled_crash)
        self._armed_diff = payload["diff"]
        self.trace(f"crash armed delay={delay:g}")

    def _do_device_loss(self, payload: dict) -> None:
        self.media_fail_now()
        self.recover_media_now(diff=payload["diff"])

    def _do_backup_loss(self, payload: dict) -> None:
        db = self.db
        ids = db.backup_store.full_backup_ids()
        candidates = [b for b in ids[:-1]
                      if b != db.durable.restore_backup_id]
        if candidates:
            victim = candidates[payload["rank"] % len(candidates)]
            db.backup_store.retire_full_backup(victim)
            self._chaos_backup_losses.inc()
            self.trace(f"backup_loss id={victim}")
        else:
            self.trace("backup_loss skipped (last backup is sacred)")
        if payload["copy_failures"]:
            db.backup_store.inject_copy_write_failures(
                payload["copy_failures"])

    def _do_double(self, payload: dict) -> None:
        db = self.db
        direction = payload["direction"]
        self.trace(f"double direction={direction}")
        if direction == "crash_during_restore":
            self.media_fail_now()
            db.recover_media(self._newest_backup_id(), mode="on_demand")
            db.drain_restore(page_budget=payload["budget"])
            self.crash_now(diff=False)
        else:  # media failure while restart work is pending
            db.clock.disarm()
            db.crash()
            db.restart(mode="on_demand")
            self.media_fail_now()
            self.recover_media_now(diff=False)

    # -- replication events (PR 7) -------------------------------------
    def _do_standby_crash(self, payload: dict) -> None:
        """Toggle: a running standby dies; a dead (or never-attached)
        one is re-seeded and reattached."""
        db = self.db
        if db.standby is not None and db.standby.running:
            db.standby.crash()
            self.trace("standby_crash")
        else:
            db.detach_standby()
            db.attach_standby(mode=self.config.ship_mode)
            self.trace("standby reattached (re-seeded)")

    def _do_link_loss(self, payload: dict) -> None:
        """Toggle the shipping link: sever it, or restore it (which
        catches the standby up on the durable backlog)."""
        link = self.db.standby_link
        if link is None or (self.db.standby is not None
                            and not self.db.standby.running):
            self.trace("link_loss skipped (no live link)")
            return
        if link.link_up:
            link.sever()
            self.trace("link severed")
        else:
            link.restore()
            self.trace(f"link restored shipped={link.shipped_lsn}")

    def _do_failover(self, payload: dict) -> None:
        """Total primary loss: promote the standby, rebase the oracle
        to what actually reached it, and carry on against the new
        primary (which gets a fresh standby of its own)."""
        db = self.db
        standby = db.standby
        if standby is None or not standby.running:
            self.trace("failover skipped (no running standby)")
            return
        db.clock.disarm()
        for violation in self._check_replica_divergence("pre-failover"):
            self.violation(violation)
        # The primary is lost from here on: whatever the standby has is
        # all that survives.  (No final catch-up ship — that is exactly
        # the lag a real failover sees.)
        promoted = standby.promote(restart_mode=self.config.restart_mode)
        self.db = promoted
        promoted.crash_hooks.append(self._on_crash)
        promoted.recovery_hooks.append(self._on_recovery)
        self.count("recoveries")
        for violation in self.oracle.rebase_to_log(promoted, "failover"):
            self.violation(violation)
        try:
            self.tree = promoted.tree(self.index_id)
        except ConfigError:
            # Segment shipping can lose the whole open segment — if the
            # very first (index-creating) records never shipped, nothing
            # after them did either, so the rebased model is empty and
            # the schema is simply re-created on the new primary.
            self.tree = promoted.create_index()
            self.trace("failover lost the schema; index re-created")
            if self.oracle.model or self.tree.index_id != self.index_id:
                self.violation(
                    "failover: schema lost but rebased model non-empty "
                    f"({len(self.oracle.model)} keys survive, recreated "
                    f"index {self.tree.index_id} vs {self.index_id})")
            self.index_id = self.tree.index_id
        promoted.attach_standby(mode=self.config.ship_mode)
        self.trace(f"failover promoted applied={standby.applied_lsn} "
                   f"lost_commits={self.oracle.lost_at_last_rebase}")
        self.check("post-failover", full=True)

    def _check_replica_divergence(self, context: str) -> list[str]:
        """The replica-divergence oracle: a standby page must be
        byte-identical to the primary's durable copy *at equal
        PageLSN*.  Pages whose device image is corrupt, missing, or at
        a different LSN (dirty in the primary's pool, or the standby
        lagging/leading the flush) are incomparable and skipped."""
        db = self.db
        standby = db.standby
        if standby is None or not standby.running or db.device.failed:
            return []
        violations: list[str] = []
        for page_id in sorted(standby.pages):
            raw = db.device.raw_image(page_id)
            if raw is None:
                continue
            try:
                primary = Page(db.config.page_size, raw)
                primary.verify(expected_page_id=page_id)
            except ReproError:
                continue  # corrupt on the primary: repair's job, not ours
            replica = standby.pages[page_id].copy()
            if primary.page_lsn != replica.page_lsn:
                continue
            # update_count is advisory backup-freshness bookkeeping:
            # the primary resets it (unlogged) when it takes a page
            # copy, so the replica legitimately drifts in that one
            # header field.  Compare everything else.
            primary.reset_update_count()
            replica.reset_update_count()
            primary.seal()
            replica.seal()
            if bytes(replica.data) != bytes(primary.data):
                violations.append(
                    f"{context}: page {page_id} diverges between primary "
                    f"and standby at equal PageLSN {primary.page_lsn}")
        return violations

    def _do_poison(self, payload: dict) -> None:
        """Test-only: commit a write the oracle never hears about, so
        the next full check fails.  Exists to prove the harness and the
        shrinker detect and minimize real divergence."""
        self.db.insert(self.tree, key_of(999_999), b"poison")
        self.trace("poison")

    # -- the core's hooks ----------------------------------------------
    def step(self, kind: EventKind, event: Event) -> None:
        try:
            # Inner try: a mid-op crash interrupt whose own recovery
            # escalates to a media failure must still reach the
            # MediaFailure handler below (a sibling except clause
            # would not catch it).
            try:
                # A failure event while a mid-op crash deadline is
                # still armed: fire the pending crash first (with the
                # differential setting its crash event drew) so
                # schedules stay well-ordered.
                if self.db.clock.armed and kind.failure:
                    self.crash_now(diff=self._armed_diff)
                kind.handler(self, event.payload)
            except ScheduledCrashInterrupt:
                self.crash_now(diff=self._armed_diff)
        except MediaFailure:
            self._absorb_media_failure()
        except SinglePageFailure as exc:
            self.violation(f"unrepaired single-page failure escaped: "
                           f"{exc}")

    def close(self) -> None:
        self.result.repairs = [event.summary()
                               for event in self.db.recent_failures()]

    def finish(self) -> None:
        # A crash armed but never fired (not enough I/O followed):
        # fire it now rather than dropping a scheduled failure.  The
        # epilogue gets the same media-escalation absorption as the
        # loop: recovery here may legitimately escalate too.
        if self.db.clock.armed:
            try:
                self.crash_now(diff=self._armed_diff)
            except MediaFailure:
                self._absorb_media_failure()
        if self.result.ok:
            try:
                self.check("final", full=True)
            except MediaFailure:
                self._absorb_media_failure()
                if self.result.ok:
                    self.check("final", full=True)
        if self.result.ok and self.config.standby:
            for violation in self._check_replica_divergence("final"):
                self.violation(violation)

    def _absorb_media_failure(self) -> None:
        """The device died (or single-page recovery escalated) inside
        an event or the epilogue: account the in-flight transaction,
        then restore."""
        self._park_inflight()
        if not self.db.device.failed:
            self.db.device.fail_device("escalated media failure")
        self.trace("media failure escaped to harness")
        self.recover_media_now(diff=False)


# ----------------------------------------------------------------------
# The event table
# ----------------------------------------------------------------------
def _draw_crash(rng: random.Random, config: ChaosConfig) -> dict:
    mid_op = rng.random() < 0.6
    return {"delay": round(rng.uniform(0.002, 0.05), 4) if mid_op else 0.0,
            "diff": rng.random() < 0.35}


def _standby(config: ChaosConfig) -> bool:
    return config.standby


ChaosConfig.plugin = Plugin(
    label="chaos",
    run=_Run,
    counters=("recoveries", "committed_txns"),
    guarantee_factor=2,
    kinds=(
        EventKind("client", 50, _Run._do_client,
                  lambda rng, config: {
                      "client": rng.randrange(config.n_clients)}),
        EventKind("drain", 8, _Run._do_drain,
                  lambda rng, config: {"pages": rng.randrange(2, 11),
                                       "losers": rng.randrange(0, 3)}),
        EventKind("checkpoint", 5, _Run._do_checkpoint),
        EventKind("backup", 4, _Run._do_backup),
        EventKind("truncate", 3, _Run._do_truncate),
        EventKind("retire", 2, _Run._do_retire),
        # The five injected failure kinds (transaction failures ride in
        # the client stream itself: a fraction of fleet actions abort).
        EventKind("corrupt", 9, _Run._do_corrupt,
                  lambda rng, config: {
                      "fault": rng.choice([fk.value for fk in FaultKind]),
                      "rank": rng.randrange(1_000_000),
                      "victim_rank": rng.randrange(1_000_000),
                      "nbits": rng.randrange(1, 9)},
                  failure=True),
        EventKind("crash", 8, _Run._do_crash, _draw_crash, failure=True),
        EventKind("device_loss", 5, _Run._do_device_loss,
                  lambda rng, config: {"diff": rng.random() < 0.35},
                  failure=True),
        EventKind("backup_loss", 3, _Run._do_backup_loss,
                  lambda rng, config: {"rank": rng.randrange(1_000_000),
                                       "copy_failures": rng.randrange(0, 3)},
                  failure=True),
        EventKind("double", 3, _Run._do_double,
                  lambda rng, config: {
                      "direction": rng.choice(["crash_during_restore",
                                               "media_during_restart"]),
                      "budget": rng.randrange(1, 7)},
                  failure=True),
        # The replication family (PR 7).
        EventKind("standby_crash", 5, _Run._do_standby_crash,
                  failure=True, enabled=_standby),
        EventKind("link_loss", 5, _Run._do_link_loss,
                  failure=True, enabled=_standby),
        EventKind("failover", 3, _Run._do_failover,
                  failure=True, enabled=_standby),
        EventKind("poison", 0, _Run._do_poison),
    ),
)
