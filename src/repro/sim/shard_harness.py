"""The fleet plug-in of the chaos core: crashes, partitions, 2PC, moves.

The engine plug-in (:mod:`repro.sim.harness`) proves the durability
oracle for one engine.  This one proves the *sharded* contract on top
of it, through the same :mod:`repro.sim.chaos` loop, with its own event
table (at the bottom of this module) and its own oracles:

* ``shard_crash`` — one shard's engine loses its volatile state.
  ``when="now"`` crashes it between events; the armed variants crash
  it **inside** a cross-shard commit, at a chosen protocol point
  (``after_one_prepare``, ``after_decision``, ``after_partial_commit``)
  via the router's commit hook — cutting the two-phase protocol
  mid-flight exactly where its correctness argument is least obvious.
  A crash before the decision is forced must abort everywhere
  (presumed abort, covering coordinator loss between prepare and
  decision); a crash after it must commit everywhere, however the
  remaining deliveries are interleaved with recoveries.
* ``shard_partition`` — a shard refuses traffic until healed; phase-two
  deliveries queue and must apply on reconnection.
* ``rebalance`` — one hash slot is moved to another shard online via
  :meth:`repro.shard.router.ShardRouter.move_slot` (backup-based
  snapshot, delta catch-up, epoch-logged cutover), optionally with
  committed traffic injected against the still-serving source between
  snapshot and catch-up.  The final oracles assert that no committed
  key was lost to a move, no key is served by two owners, the shards'
  slot views agree exactly with the routing table, and every lock in
  the fleet is released once partitions heal and branches resolve.

The **atomicity oracle** extends the durability model: every
cross-shard transaction's staged effects are either all in the final
state or all absent, with the coordinator's durable decision log as
the referee — and the run also asserts *availability*: while one shard
is down, a probe through a surviving shard must still be served
(``served_while_down``), because per-shard instant restart means a
shard failure degrades one key-range slice, not the service.

Command line: ``python -m repro.sim.chaos fleet --help``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.config import EngineConfig
from repro.errors import (
    ReproError,
    ShardUnavailableError,
    TransactionError,
)
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.sim.chaos import (
    BaseChaosConfig,
    ChaosRun,
    Event,
    EventKind,
    Plugin,
    apply_staged,
    key_of,
)
from repro.txn.locks import DeadlockError, LockConflict
from repro.workloads.fleet import ClientFleet

__all__ = ["FAILPOINTS", "ShardChaosConfig", "ShardChaosInterrupt"]

#: protocol points an armed shard_crash can cut a 2PC commit at
FAILPOINTS = ("after_one_prepare", "after_decision", "after_partial_commit")

VALUE_WIDTH = 24


class ShardChaosInterrupt(Exception):
    """Raised from the router's commit hook to cut a 2PC commit at an
    armed failpoint.  Not a :class:`ReproError`: nothing in the engine
    or router may catch it."""


@dataclass
class ShardChaosConfig(BaseChaosConfig):
    """Everything needed to reproduce one sharded chaos run."""

    n_events: int = 60
    n_keys: int = 80
    max_shrink_runs: int = 120
    n_shards: int = 3
    restart_mode: str = "on_demand"

    def shard_config(self) -> ShardConfig:
        return ShardConfig(
            n_shards=self.n_shards,
            transport="inproc",  # deterministic; process shards cannot
            # be crashed mid-protocol from the outside
            engine=EngineConfig(
                capacity_pages=self.capacity_pages,
                buffer_capacity=self.buffer_capacity,
                restart_mode=self.restart_mode,
            ),
            seed=self.seed,
        )

    def header(self) -> str:
        return (f"shard-chaos seed={self.seed} "
                f"shards={self.n_shards} "
                f"restart={self.restart_mode}")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class _Run(ChaosRun):
    """One schedule against one in-process fleet."""

    def __init__(self, config: ShardChaosConfig, events: list[Event]) -> None:
        super().__init__(config, events)
        self.router = ShardRouter(config.shard_config())
        self.fleet = ClientFleet(n_clients=config.n_clients,
                                 seed=config.seed,
                                 key_space=config.n_keys)
        #: committed key -> value shadow
        self.model: dict[bytes, bytes] = {}
        #: gtid -> staged effects of commits cut at a failpoint,
        #: settled from the coordinator's durable decisions at the end
        self.uncertain: dict[int, dict[bytes, bytes | None]] = {}
        #: xids of interrupted transactions whose unprepared branches
        #: still hold locks (released during finalize)
        self._orphan_xids: list[int] = []
        self._armed: tuple[str, int] | None = None  # (failpoint, rank)

    # -- plumbing ------------------------------------------------------
    def _crashed_shards(self) -> list[int]:
        return [i for i, shard in enumerate(self.router.shards)
                if shard.worker.db._crashed]

    def _healthy_shard(self, avoid: int) -> int | None:
        for i, shard in enumerate(self.router.shards):
            if i != avoid and not shard.partitioned \
                    and not shard.worker.db._crashed:
                return i
        return None

    # -- workload ------------------------------------------------------
    def _run_txn(self, staged_keys: list[tuple[bytes, bytes | None]],
                 fate: str, tag: str) -> None:
        """One transaction through the router; updates the model on a
        returned commit, tallies refusals and interrupts otherwise."""
        txn = self.router.txn()
        staged: dict[bytes, bytes | None] = {}
        gtid_before = self.router.coordinator._next_gtid
        try:
            for key, value in staged_keys:
                if value is None:
                    if txn.delete(key):
                        staged[key] = None
                else:
                    txn.put(key, value)
                    staged[key] = value
            if fate == "abort":
                txn.abort()
                return
            cross = len(txn.branches) > 1
            txn.commit()
        except ShardUnavailableError as exc:
            self.trace(f"  {tag} refused: {exc}")
            self._abandon(txn)
            return
        except (LockConflict, DeadlockError):
            self.trace(f"  {tag} lock conflict")
            self._abandon(txn)
            return
        except ShardChaosInterrupt:
            # The armed failpoint fired mid-commit.  The protocol's
            # fate is already sealed by the decision log: a durable
            # commit decision *will* apply (every branch holds its
            # locks until its resolution arrives, so no later writer
            # can slip in front), anything else is presumed abort.
            # Settling the model here keeps it in serialization order.
            gtid = gtid_before  # the gtid this commit allocated
            verdict = self.router.coordinator.decision_of(gtid)
            if verdict == "commit":
                apply_staged(self.model, staged)
            self.uncertain[gtid] = staged
            self._orphan_xids.append(txn.xid)
            self.count("interrupted_commits")
            self.trace(f"  {tag} interrupted mid-2PC "
                       f"(gtid {gtid}: {verdict})")
            return
        apply_staged(self.model, staged)
        self.count("committed_txns")
        if cross:
            self.count("xtxn_committed")

    def _abandon(self, txn) -> None:  # noqa: ANN001
        try:
            txn.abort()
        except (ReproError, TransactionError):
            pass  # unreachable branches get undone by analysis

    # -- event handlers ------------------------------------------------
    def _do_client(self, payload: dict) -> None:
        action = self.fleet.next_action(payload["client"])
        staged_keys: list[tuple[bytes, bytes | None]] = []
        for verb, key_index, value in action.ops:
            key = key_of(key_index)
            if verb == "lookup":
                continue  # reads don't stage anything in this harness
            if verb == "delete":
                staged_keys.append((key, None))
            else:
                staged_keys.append(
                    (key, value[:VALUE_WIDTH].ljust(VALUE_WIDTH, b".")))
        if not staged_keys:
            return
        self._run_txn(staged_keys, action.fate,
                      f"client{action.client}.{action.seq}")

    def _do_xtxn(self, payload: dict) -> None:
        value = (b"x%d" % payload["rank"])[:VALUE_WIDTH].ljust(
            VALUE_WIDTH, b".")
        staged_keys = [(key_of(i), value) for i in payload["keys"]]
        self._run_txn(staged_keys, payload["fate"], "xtxn")

    def _do_shard_crash(self, payload: dict) -> None:
        target = payload["shard"] % self.config.n_shards
        if payload["when"] == "now":
            # Through the worker, not the engine: a shard crash wipes
            # the whole worker's volatile state (live and prepared
            # branch tables included), like losing the process.
            self.router.shards[target].worker.execute(("crash",))
            self.trace(f"  shard {target} crashed")
            self._probe_availability(target, payload)
            return
        # Arm the failpoint; the next cross-shard commit trips it.
        self._armed = (payload["when"], target)
        self.router.commit_hook = self._hook
        self.trace(f"  armed {payload['when']} against shard {target}")

    def _hook(self, stage: str, shard_id: int | None) -> None:
        if self._armed is None:
            return
        when, rank = self._armed
        fire = ((when == "after_one_prepare" and stage == "after_prepare")
                or (when == "after_decision" and stage == "after_decision")
                or (when == "after_partial_commit"
                    and stage == "after_commit"))
        if not fire:
            return
        self._armed = None
        self.router.commit_hook = None
        # Crash the shard that just acted (or, at the decision point,
        # the armed target) — then cut the coordinator's protocol.
        target = shard_id if shard_id is not None \
            else rank % self.config.n_shards
        self.router.shards[target].worker.execute(("crash",))
        self.trace(f"  failpoint {when}: crashed shard {target}")
        raise ShardChaosInterrupt(when)

    def _probe_availability(self, down: int, payload: dict) -> None:
        """While ``down`` is down, a surviving shard must keep serving;
        optionally probe the crashed shard too, which must come back
        via on-demand reopen while the probe waits."""
        healthy = self._healthy_shard(avoid=down)
        if healthy is not None:
            try:
                self.router._call(healthy, "ping")
                self.count("served_while_down")
            except ReproError as exc:
                self.violation(
                    f"healthy shard {healthy} refused service while "
                    f"shard {down} was down: {exc}")
        if payload.get("probe"):
            # Probe with a key the crashed shard *owns* — a foreign
            # key would be refused on ownership grounds instead of
            # exercising the reopen path.
            probe_key = next(
                (key_of(i) for i in range(self.config.n_keys)
                 if self.router.shard_of(key_of(i)) == down), None)
            if probe_key is None:
                return  # rebalancing moved every live key elsewhere
            try:
                self.router._call(down, "get", probe_key)
            except ShardUnavailableError:
                pass  # partitioned at the same time; fine
            except ReproError as exc:
                self.violation(
                    f"on-demand reopen of shard {down} failed: {exc}")

    def _do_rebalance(self, payload: dict) -> None:
        """Move one slot online; optionally inject committed traffic
        against the still-serving source between the snapshot install
        and the delta catch-up (the window the log-chain delta must
        carry across the cutover)."""
        router = self.router
        slot = payload["slot"] % router.config.n_slots
        dst = payload["dst"] % self.config.n_shards
        src = router.routing.owner_of(slot)
        if src == dst:
            dst = (dst + 1) % self.config.n_shards
        hook = None
        if payload.get("traffic"):
            slot_keys = [key_of(i) for i in range(self.config.n_keys)
                         if router.slot_of(key_of(i)) == slot][:3]

            def hook() -> None:
                for j, key in enumerate(slot_keys):
                    value = (b"r%d.%d" % (slot, j))[:VALUE_WIDTH].ljust(
                        VALUE_WIDTH, b".")
                    router.put(key, value)
                    self.model[key] = value
        try:
            epoch = router.move_slot(slot, dst, copy_hook=hook)
        except ShardUnavailableError as exc:
            self.trace(f"  rebalance of slot {slot} refused: {exc}")
            return
        except (LockConflict, DeadlockError) as exc:
            self.trace(f"  rebalance of slot {slot} lock conflict: {exc}")
            return
        self.count("rebalances")
        self.trace(f"  slot {slot}: shard {src} -> shard {dst} "
                   f"(epoch {epoch})")

    def _do_shard_partition(self, payload: dict) -> None:
        partitioned = [i for i, s in enumerate(self.router.shards)
                       if s.partitioned]
        if partitioned:
            for i in partitioned:
                self.router.shards[i].partitioned = False
            self.trace(f"  healed partition of shards {partitioned}")
            return
        target = payload["shard"] % self.config.n_shards
        self.router.shards[target].partitioned = True
        self.trace(f"  partitioned shard {target}")

    def _do_drain(self, payload: dict) -> None:
        for i, shard in enumerate(self.router.shards):
            if shard.partitioned or shard.worker.db._crashed:
                continue
            self.router._call(i, "drain", payload["pages"], None)

    def _do_checkpoint(self, payload: dict) -> None:
        target = payload["shard"] % self.config.n_shards
        shard = self.router.shards[target]
        if shard.partitioned or shard.worker.db._crashed:
            return
        self.router._call(target, "checkpoint")

    def _do_poison(self, payload: dict) -> None:
        """Test-only: commit a write the model never hears about, so
        the final oracle fails.  Exists to prove the harness and the
        shrinker detect and minimize real divergence."""
        self.router.put(key_of(999_999), b"poison")

    # -- the core's hooks ----------------------------------------------
    def step(self, kind: EventKind, event: Event) -> None:
        self.trace(event.describe())
        kind.handler(self, event.payload)

    def close(self) -> None:
        self.result.repairs = [
            f"shard {shard.shard_id} {event.summary()}"
            for shard in self.router.shards
            for event in shard.worker.db.recent_failures()]
        self.router.close()

    def finish(self) -> None:
        """Recover everything, settle 2PC, check."""
        router = self.router
        # 1. Heal partitions and disarm any unfired failpoint.
        for shard in router.shards:
            shard.partitioned = False
        router.commit_hook = None
        self._armed = None
        # 2. Reopen every crashed shard (on-demand instant restart +
        #    decision-log resolution of recovered in-doubt branches).
        for i in self._crashed_shards():
            router._reopen(i)
        # 3. Release locks of interrupted transactions' unprepared
        #    branches (prepared ones are settled by the decisions).
        for xid in self._orphan_xids:
            for i in range(self.config.n_shards):
                try:
                    router._call(i, "txn_abort", xid)
                except (ReproError, TransactionError):
                    pass
        # 4. Coordinator recovery: re-deliver every durable decision
        #    (resolution is idempotent), then presumed-abort whatever
        #    is still in doubt anywhere.
        for i in range(self.config.n_shards):
            router._flush_pending(i)
        for decision in router.coordinator.durable_decisions():
            for i in decision.participants:
                router._call(i, "resolve", decision.gtid,
                             decision.verdict == "commit")
        for i in range(self.config.n_shards):
            for gtid in router._call(i, "indoubt"):
                verdict = router.coordinator.decision_of(gtid)
                router._call(i, "resolve", gtid, verdict == "commit")
        # 5. Atomicity check: after coordinator recovery nothing may
        #    remain in doubt anywhere (the model side — all-or-none
        #    visibility of each uncertain gtid's staged effects — was
        #    settled at interruption time and is enforced by the final
        #    state comparison below).
        for i in range(self.config.n_shards):
            leftover = router._call(i, "indoubt")
            if leftover:
                self.violation(
                    f"shard {i} still in doubt about {leftover} after "
                    f"coordinator recovery")
        # 5b. Finish pending on-demand restart work everywhere: loser
        #     undo is lock-driven and the oracle scan takes no locks,
        #     so un-drained losers would masquerade as durable state.
        for i in range(self.config.n_shards):
            router._call(i, "finish_restart")
        # 5c. Rebalancing oracles: with partitions healed and every
        #     branch resolved, no lock may survive anywhere in the
        #     fleet, and the shards' slot views must partition the
        #     slot space exactly as the routing table says.
        for i in range(self.config.n_shards):
            held = router._call(i, "locks")
            if held:
                self.violation(
                    f"shard {i} still holds locks {held[:5]} after "
                    f"full recovery")
        assignments = router.routing.assignments()
        for i in range(self.config.n_shards):
            owned = router._call(i, "owned_slots")
            expected = [s for s, owner in enumerate(assignments)
                        if owner == i]
            if owned != expected:
                self.violation(
                    f"shard {i} slot view disagrees with the routing "
                    f"table: {owned} != {expected}")
        # 6. The oracle: global visible state == the settled model —
        #    and single ownership: the merged scan may serve each
        #    committed key exactly once (a moved slot's leftovers must
        #    never surface from the old owner).
        merged = router.scan()
        if len(merged) != len({key for key, _ in merged}):
            seen: set[bytes] = set()
            dups = sorted({key for key, _ in merged
                           if key in seen or seen.add(key)})
            self.violation(
                f"keys served by two owners: {dups[:5]}")
        state = dict(merged)
        if state != self.model:
            missing = sorted(set(self.model) - set(state))[:5]
            extra = sorted(set(state) - set(self.model))[:5]
            wrong = sorted(k for k in set(state) & set(self.model)
                           if state[k] != self.model[k])[:5]
            self.violation(
                f"final state diverged from model: missing={missing} "
                f"extra={extra} wrong={wrong}")
        self.count("reopens", router.reopens)


# ----------------------------------------------------------------------
# The event table
# ----------------------------------------------------------------------
def _draw_xtxn(rng: random.Random, config: ShardChaosConfig) -> dict:
    n_ops = rng.randrange(2, 6)
    keys = tuple(rng.sample(range(config.n_keys),
                            min(n_ops, config.n_keys)))
    return {"keys": keys,
            "rank": rng.randrange(1_000_000),
            "fate": "abort" if rng.random() < 0.1 else "commit"}


def _draw_shard_crash(rng: random.Random, config: ShardChaosConfig) -> dict:
    when = "now" if rng.random() < 0.55 else rng.choice(FAILPOINTS)
    return {"shard": rng.randrange(1_000_000), "when": when,
            "probe": rng.random() < 0.7}


def _draw_shard(rng: random.Random, config: ShardChaosConfig) -> dict:
    return {"shard": rng.randrange(1_000_000)}


def _pin_failpoints(events: list[Event]) -> None:
    """Every 2PC failpoint at least once: they ride the first three
    ``shard_crash`` events of the schedule, whatever those drew."""
    forced = list(FAILPOINTS)
    for event in events:
        if event.kind == "shard_crash" and forced:
            event.payload["when"] = forced.pop()


ShardChaosConfig.plugin = Plugin(
    label="shard-chaos",
    run=_Run,
    counters=("committed_txns", "xtxn_committed", "interrupted_commits",
              "served_while_down", "reopens", "rebalances"),
    guarantee_factor=4,
    # One crash per failpoint to pin, cross-shard commits as fuel for
    # the armed crashes, and at least two slot moves.
    also_guaranteed=(("shard_crash",) * len(FAILPOINTS)
                     + ("xtxn",) * len(FAILPOINTS)
                     + ("rebalance",) * 2),
    pin=_pin_failpoints,
    kinds=(
        EventKind("client", 44, _Run._do_client,
                  lambda rng, config: {
                      "client": rng.randrange(config.n_clients)}),
        EventKind("xtxn", 20, _Run._do_xtxn, _draw_xtxn),
        EventKind("shard_crash", 12, _Run._do_shard_crash, _draw_shard_crash,
                  failure=True),
        EventKind("shard_partition", 6, _Run._do_shard_partition, _draw_shard,
                  failure=True),
        EventKind("rebalance", 5, _Run._do_rebalance,
                  lambda rng, config: {"slot": rng.randrange(1_000_000),
                                       "dst": rng.randrange(1_000_000),
                                       "traffic": rng.random() < 0.5}),
        EventKind("drain", 5, _Run._do_drain,
                  lambda rng, config: {"pages": rng.randrange(2, 11)}),
        EventKind("checkpoint", 4, _Run._do_checkpoint, _draw_shard),
        EventKind("poison", 0, _Run._do_poison),
    ),
)
