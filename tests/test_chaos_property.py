"""Property: any single injected failure preserves every prefix of
committed transactions, in all four restart x restore mode combinations.

Hypothesis draws the workload shape, the failure kind (one of the five
classes the chaos harness composes), and the point in the commit
sequence where it strikes; the :class:`repro.sim.harness.
DurabilityOracle` then demands the surviving state equals exactly the
committed prefix — nothing lost, nothing resurrected, B-tree sound.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.errors import MediaFailure
from repro.sim.chaos import failure_kinds, run_campaign
from repro.sim.harness import MODE_COMBOS, ChaosConfig, DurabilityOracle
from tests.conftest import fast_config, key_of

EXAMPLES = max(1, int(os.environ.get("TORTURE_EXAMPLES_MULTIPLIER", "1")))

FAILURES = ["crash", "crash-mid-txn", "media", "corrupt-then-crash",
            "backup-loss-then-media"]


def _inject_and_recover(db: Database, tree, oracle: DurabilityOracle,
                        failure: str, restart_mode: str,
                        restore_mode: str, backup_id: int) -> int:
    """Inject one failure, recover, return the backup id to use next."""
    if failure == "crash-mid-txn":
        # An in-flight transaction dies with the crash: its effects
        # are uncertain until the durable log is consulted.
        txn = db.begin()
        key = key_of(7)
        db.locks.acquire(txn.txn_id, key)
        tree.update(txn, key, b"IN-FLIGHT")
        oracle.record_uncertain(txn.txn_id, {key: b"IN-FLIGHT"})
        failure = "crash"
    if failure == "corrupt-then-crash":
        victim = db.config.data_start
        db.flush_everything()
        db.device.inject_bit_rot(victim, nbits=5)
        failure = "crash"
    if failure == "backup-loss-then-media":
        fresh = db.take_full_backup()
        if backup_id != fresh:
            db.backup_store.retire_full_backup(backup_id)  # media loss
        backup_id = fresh
        failure = "media"

    if failure == "crash":
        db.crash()
        db.restart(mode=restart_mode)
        db.finish_restart()
    else:
        db.device.fail_device("property test")
        db._on_media_failure(MediaFailure(db.device.name, "property test"))
        db.recover_media(backup_id, mode=restore_mode)
        db.finish_restore()
    return backup_id


@pytest.mark.parametrize("modes", MODE_COMBOS,
                         ids=["/".join(m) for m in MODE_COMBOS])
class TestSingleFailurePrefixDurability:
    @settings(max_examples=8 * EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(data=st.data())
    def test_committed_prefix_survives(self, modes, data):
        restart_mode, restore_mode = modes
        db = Database(fast_config(restart_mode=restart_mode,
                                  restore_mode=restore_mode))
        tree = db.create_index()
        oracle = DurabilityOracle()
        txn = db.begin()
        for i in range(60):
            tree.insert(txn, key_of(i), b"base")
            oracle.model[key_of(i)] = b"base"
        db.commit(txn)
        backup_id = db.take_full_backup()

        n_txns = data.draw(st.integers(2, 6), label="txns")
        strike = data.draw(st.integers(0, n_txns), label="strike_after")
        failure = data.draw(st.sampled_from(FAILURES), label="failure")

        for batch in range(n_txns):
            if batch == strike:
                backup_id = _inject_and_recover(
                    db, tree, oracle, failure, restart_mode, restore_mode,
                    backup_id)
                tree = db.tree(1)
                # Every previously committed transaction must be intact
                # immediately after recovery...
                assert oracle.full_check(db, f"after-{failure}") == []
            txn = db.begin()
            staged = {}
            for i in data.draw(st.lists(st.integers(0, 80), min_size=1,
                                        max_size=5), label=f"ops{batch}"):
                key = key_of(i)
                value = b"b%d-%d" % (batch, i)
                db.locks.acquire(txn.txn_id, key)
                if key in oracle.model or key in staged:
                    tree.update(txn, key, value)
                else:
                    tree.insert(txn, key, value)
                staged[key] = value
            db.commit(txn)
            oracle.commit_applied(staged)
        if strike == n_txns:
            backup_id = _inject_and_recover(
                db, tree, oracle, failure, restart_mode, restore_mode,
                backup_id)
            tree = db.tree(1)
        # ... and the full history must be intact at the end.
        assert oracle.full_check(db, "end") == []


# ----------------------------------------------------------------------
# Replication (PR 7): the replicated_durable prefix survives the total
# loss of the primary.
# ----------------------------------------------------------------------
REPLICATION_COMBOS = [(ship, restart)
                      for ship in ("tail", "segment")
                      for restart in ("eager", "on_demand")]


@pytest.mark.parametrize("ship_mode,restart_mode", REPLICATION_COMBOS,
                         ids=["/".join(c) for c in REPLICATION_COMBOS])
class TestReplicatedPrefixSurvivesPrimaryLoss:
    @settings(max_examples=6 * EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(data=st.data())
    def test_acked_commits_survive_failover(self, ship_mode, restart_mode,
                                            data):
        """Every commit acknowledged under ``replicated_durable`` must be
        readable from the standby promoted after the primary is lost —
        device and log together, no recovery of the primary at all."""
        db = Database(fast_config())
        tree = db.create_index()
        oracle = DurabilityOracle()
        txn = db.begin()
        for i in range(40):
            tree.insert(txn, key_of(i), b"base")
            oracle.model[key_of(i)] = b"base"
        db.commit(txn)
        db.attach_standby(mode=ship_mode)
        db.tm.ack_mode = "replicated_durable"

        n_txns = data.draw(st.integers(1, 5), label="txns")
        for batch in range(n_txns):
            txn = db.begin()
            staged = {}
            for i in data.draw(st.lists(st.integers(0, 60), min_size=1,
                                        max_size=4), label=f"ops{batch}"):
                key = key_of(i)
                value = b"r%d-%d" % (batch, i)
                db.locks.acquire(txn.txn_id, key)
                if key in oracle.model or key in staged:
                    tree.update(txn, key, value)
                else:
                    tree.insert(txn, key, value)
                staged[key] = value
            db.commit(txn)  # acked: the standby has applied it
            oracle.commit_applied(staged)

        if data.draw(st.booleans(), label="in_flight_loser"):
            # An unacked in-flight transaction rides along; promotion
            # must roll it back, never expose it.
            loser = db.begin()
            db.locks.acquire(loser.txn_id, key_of(0))
            tree.update(loser, key_of(0), b"NEVER-ACKED")

        standby = db.standby
        db.detach_standby()
        db.device.fail_device("primary lost")  # total loss: no recovery
        promoted = standby.promote(restart_mode=restart_mode)
        promoted.finish_restart()
        assert oracle.full_check(promoted, "post-failover") == []


class TestReplicatedChaosCampaigns:
    """Seeded chaos campaigns with a live standby: every mode combo runs
    clean, including standby crashes, link loss, and failovers."""

    @pytest.mark.parametrize("ack_mode,ship_mode", [
        ("local_durable", "tail"),
        ("replicated_durable", "tail"),
        ("replicated_durable", "segment"),
    ], ids=lambda v: v)
    def test_campaign_clean(self, ack_mode, ship_mode):
        base = ChaosConfig(n_events=28, n_clients=3, n_keys=60,
                           differential=False, shrink=False,
                           standby=True, ack_mode=ack_mode,
                           ship_mode=ship_mode)
        campaign = run_campaign(base.campaign(4, base_seed=9100))
        assert campaign.ok, campaign.summary()
        assert campaign.counters["recoveries"] > 0
        # standby_crash, link_loss and failover count as failure kinds
        # of a standby config, next to the five base ones
        assert len(failure_kinds(base)) == 8
        assert campaign.all_failure_kinds_covered()
