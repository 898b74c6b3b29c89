"""Extension — the hot standby as a repair source, and what acks cost.

Two probes for the PR-7 replication layer:

* **repair source**: the same corrupt-leaf repair served from a warm
  replica versus from the backup + per-page chain.  The replica hands
  back an already-rolled-forward image, so the repair applies zero log
  records and touches zero backup pages; the chain path pays a backup
  fetch plus one log-record replay per intervening update.
* **ack modes**: simulated per-commit cost of ``local_durable`` versus
  ``replicated_durable`` on the HDD profile.  The replicated ack rides
  the same log force and adds one round-trip to the standby, so it
  costs strictly more — but by a bounded constant, not a multiple of
  the transaction size.
"""

from __future__ import annotations

from benchmarks.common import key_of, print_table, value_of
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import HDD_PROFILE, NULL_PROFILE

UPDATE_WAVES = 4


def _loaded(with_standby: bool) -> tuple[Database, object]:
    """300 committed keys, per-page backups off so the chain path has
    real replay work to do; a full backup anchors the fallback."""
    db = Database(EngineConfig(
        page_size=4096, capacity_pages=2048, buffer_capacity=128,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE,
        backup_policy=BackupPolicy.disabled()))
    tree = db.create_index()
    txn = db.begin()
    for i in range(300):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.take_full_backup()
    if with_standby:
        db.attach_standby(mode="tail")
    for wave in range(1, UPDATE_WAVES + 1):
        txn = db.begin()
        for i in range(300):
            tree.update(txn, key_of(i), value_of(i, wave))
        db.commit(txn)
    return db, tree


def _repair_leaf(db: Database, tree) -> dict:
    page, _node, _pid = tree._descend(key_of(0), for_write=False)
    victim = page.page_id
    db.pool.unfix(victim)
    db.flush_everything()
    db.evict_everything()
    db.device.inject_bit_rot(victim, nbits=6)
    assert tree.lookup(key_of(0)) == value_of(0, UPDATE_WAVES)
    result = db.single_page.history[-1]
    return {
        "source": result.source,
        "records_applied": result.records_applied,
        "backup_fetches": result.backup_fetches,
        "log_pages_read": result.log_pages_read,
        "total_random_ios": result.total_random_ios,
    }


def run_repair_source_comparison() -> dict:
    """The same repair, once with a warm replica, once without."""
    db, tree = _loaded(with_standby=True)
    replica = _repair_leaf(db, tree)
    db, tree = _loaded(with_standby=False)
    chain = _repair_leaf(db, tree)
    return {
        "replica": replica,
        "backup_chain": chain,
        "replica_zero_replay": (replica["source"] == "replica"
                                and replica["records_applied"] == 0
                                and replica["backup_fetches"] == 0),
        "chain_replays": (chain["source"] == "backup_chain"
                          and chain["records_applied"] > 0),
        "replica_fewer_ios": (replica["total_random_ios"]
                              < chain["total_random_ios"]),
    }


def run_ack_mode_costs(n_commits: int = 100) -> dict:
    """Simulated per-commit seconds, local vs. replicated acks, with
    and without group commit.  The replicated ack is one standby
    round-trip per log *force* — a constant, not a function of the
    transaction — so batching commits amortizes it the same way it
    amortizes the force itself."""
    out = {}
    for mode in ("local_durable", "replicated_durable"):
        for label, batched in (("unbatched", False), ("batched", True)):
            db = Database(EngineConfig(
                page_size=4096, capacity_pages=2048, buffer_capacity=128,
                device_profile=NULL_PROFILE, log_profile=HDD_PROFILE,
                backup_profile=NULL_PROFILE,
                backup_policy=BackupPolicy.disabled()))
            tree = db.create_index()
            txn = db.begin()
            for i in range(100):
                tree.insert(txn, key_of(i), value_of(i, 0))
            db.commit(txn)
            db.attach_standby(mode="tail")
            db.tm.ack_mode = mode
            start = db.clock.now

            def burst():
                for i in range(n_commits):
                    txn = db.begin()
                    tree.update(txn, key_of(i % 100), value_of(i, 1))
                    db.commit(txn)

            if batched:
                with db.group_commit():
                    burst()
            else:
                burst()
            per_commit = (db.clock.now - start) / n_commits
            out[f"{mode}_{label}"] = {
                "commits": n_commits,
                "per_commit_ms": round(per_commit * 1e3, 4),
                "ship_acks": db.stats.get("ship_acks"),
            }
    unbatched_overhead = (out["replicated_durable_unbatched"]["per_commit_ms"]
                          - out["local_durable_unbatched"]["per_commit_ms"])
    batched_overhead = (out["replicated_durable_batched"]["per_commit_ms"]
                        - out["local_durable_batched"]["per_commit_ms"])
    out["ack_overhead_ms_unbatched"] = round(unbatched_overhead, 4)
    out["ack_overhead_ms_batched"] = round(batched_overhead, 4)
    out["replicated_costs_more"] = unbatched_overhead > 0
    # One ack per force: a 100-commit batch should shrink the ack
    # overhead per commit by roughly the batch factor.
    out["ack_amortizes"] = (batched_overhead
                            <= 0.2 * unbatched_overhead)
    return out


def test_ext_replica_repair_source(benchmark):
    result = benchmark.pedantic(run_repair_source_comparison,
                                rounds=1, iterations=1)
    rows = [[src, r["records_applied"], r["backup_fetches"],
             r["log_pages_read"], r["total_random_ios"]]
            for src, r in (("replica", result["replica"]),
                           ("backup+chain", result["backup_chain"]))]
    print_table("Single-page repair by source",
                ["source", "records applied", "backup fetches",
                 "log pages read", "random I/Os"], rows)
    assert result["replica_zero_replay"]
    assert result["chain_replays"]
    assert result["replica_fewer_ios"]
    # Not merely fewer: the warm replica's repair pays no random I/O.
    assert result["replica"]["total_random_ios"] == 0


def test_ext_ack_mode_costs(benchmark):
    result = benchmark.pedantic(run_ack_mode_costs, rounds=1, iterations=1)
    rows = [[key, result[key]["per_commit_ms"], result[key]["ship_acks"]]
            for key in ("local_durable_unbatched",
                        "replicated_durable_unbatched",
                        "local_durable_batched",
                        "replicated_durable_batched")]
    print_table("Commit acknowledgement cost (simulated, HDD log)",
                ["mode", "per-commit ms", "ship acks"], rows)
    assert result["replicated_costs_more"]
    assert result["ack_amortizes"]
    # In absolute terms: one force plus one standby round trip per
    # commit, and a batched ack overhead of a tenth of a millisecond.
    assert result["replicated_durable_unbatched"]["per_commit_ms"] <= 11.102125
    assert result["ack_overhead_ms_batched"] <= 0.101
