"""Integration tests: single-page recovery (Figures 8, 9, 10).

Every test drives the real engine: inject a fault on the device, touch
the page through the normal read path, and assert that the transaction
sees correct data with no abort — the paper's core promise.
"""

import pytest

from repro.core.failure_classes import FailureOutcome
from repro.core.recovery_manager import FAILURE_RING
from repro.engine.database import Database
from repro.errors import MediaFailure, SystemFailure
from repro.wal.records import BackupRefKind
from tests.conftest import fast_config, key_of, value_of


def loaded(**overrides):
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(300):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    return db, tree


def some_leaf(db, tree, i: int = 0) -> int:
    """Page id of the leaf holding key_of(i); leaves the pool cold."""
    page, _node = tree._descend(key_of(i), for_write=False)
    pid = page.page_id
    db.unfix(pid)
    db.evict_everything()
    return pid


class TestRecoveryByFaultKind:
    def test_device_read_error(self):
        db, tree = loaded()
        victim = some_leaf(db, tree)
        db.device.inject_read_error(victim)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("spf[device-read-error]") == 1

    def test_bit_rot(self):
        db, tree = loaded()
        victim = some_leaf(db, tree)
        db.device.inject_bit_rot(victim, nbits=6)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("spf[checksum-mismatch]") == 1

    def test_lost_write(self):
        """The stale-LSN cross-check catches what checksums cannot."""
        db, tree = loaded()
        victim = some_leaf(db, tree)
        db.device.inject_lost_write(victim)
        txn = db.begin()
        tree.update(txn, key_of(0), b"fresh")
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        assert tree.lookup(key_of(0)) == b"fresh"
        assert db.stats.get("spf[stale-lsn]") == 1

    def test_misdirected_write(self):
        """One write damages two pages; both recover independently."""
        db, tree = loaded()
        a = some_leaf(db, tree)
        b = some_leaf(db, tree, 299)
        assert a != b
        db.device.inject_misdirected_write(a, victim_page=b)
        txn = db.begin()
        tree.update(txn, key_of(0), b"redirected")
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        assert tree.lookup(key_of(0)) == b"redirected"
        assert tree.lookup(key_of(299)) == value_of(299, 0)
        assert db.stats.get("single_page_recoveries") >= 1

    def test_flash_wear_out(self):
        db, tree = loaded()
        victim = some_leaf(db, tree)
        db.device.wear_out(victim)
        assert tree.lookup(key_of(0)) == value_of(0, 0)


class TestRecoveryMechanics:
    def test_no_transaction_aborted(self):
        """'It is not even required that any transactions terminate.'"""
        db, tree = loaded()
        victim = some_leaf(db, tree)
        db.device.inject_bit_rot(victim)
        txn = db.begin()
        assert tree.lookup(key_of(0)) == value_of(0, 0)  # mid-transaction
        tree.update(txn, key_of(1), b"still-works")
        db.commit(txn)
        assert db.stats.get("txns_aborted") == 0
        assert db.stats.get("txns_killed_by_media_failure") == 0

    def test_failed_location_quarantined(self):
        """Figure 10 / Section 5.2.3: remap + bad-block list."""
        db, tree = loaded()
        victim = some_leaf(db, tree)
        old_sector = db.device.sector_of(victim)
        db.device.inject_read_error(victim)
        tree.lookup(key_of(0))
        assert db.device.sector_of(victim) != old_sector
        assert old_sector in db.device.bad_blocks

    def test_failed_location_never_a_backup(self):
        """'The failed page must not be recorded as a backup page.'"""
        db, tree = loaded()
        victim = some_leaf(db, tree)
        db.device.inject_bit_rot(victim)
        tree.lookup(key_of(0))
        entry = db.pri.lookup(victim)
        # The backup ref predates the failure (format record or copy),
        # never the failed device location.
        assert entry.backup_ref.kind in (BackupRefKind.FORMAT_RECORD,
                                         BackupRefKind.PAGE_COPY,
                                         BackupRefKind.LOG_IMAGE,
                                         BackupRefKind.FULL_BACKUP)

    def test_chain_replay_applies_in_order(self):
        """The LIFO stack of Figure 10: records replay oldest-first.

        With the backup policy disabled, the only backup is the page's
        formatting record, so recovery must walk and replay the entire
        per-page chain.
        """
        from repro.core.backup import BackupPolicy

        db, tree = loaded(backup_policy=BackupPolicy.disabled())
        victim = some_leaf(db, tree)
        db.device.inject_read_error(victim)
        tree.lookup(key_of(0))
        result = db.single_page.history[-1]
        assert result.applied_lsns == sorted(result.applied_lsns)
        assert result.records_applied > 0

    def test_fresh_backup_needs_no_chain_replay(self):
        """A page whose backup is current recovers with zero log
        records applied — one backup fetch suffices."""
        db, tree = loaded()  # policy took copies at flush time
        victim = some_leaf(db, tree)
        db.device.inject_read_error(victim)
        tree.lookup(key_of(0))
        result = db.single_page.history[-1]
        assert result.records_applied == 0
        assert result.backup_fetches == 1

    def test_recovered_page_is_bytewise_current(self):
        db, tree = loaded()
        victim = some_leaf(db, tree)
        before = bytes(db.device.raw_image(victim))
        db.device.inject_read_error(victim)
        tree.lookup(key_of(0))
        db.evict_everything()
        after = bytes(db.device.raw_image(victim))
        assert after == before

    def test_repeated_failures_on_same_page(self):
        db, tree = loaded()
        victim = some_leaf(db, tree)
        for round_no in range(3):
            db.evict_everything()
            db.device.inject_read_error(victim)
            assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("single_page_recoveries") == 3
        assert len(db.device.bad_blocks) >= 3

    def test_multiple_pages_fail_together(self):
        """Section 5.2: 'perfectly possible that multiple pages fail'."""
        db, tree = loaded()
        pages = {some_leaf(db, tree, i) for i in (0, 150, 299)}
        for pid in pages:
            db.device.inject_read_error(pid)
        for i in range(300):
            assert tree.lookup(key_of(i)) == value_of(i, 0)
        assert db.stats.get("single_page_recoveries") == len(pages)

    def test_recovery_uses_backup_policy_copies(self):
        """With page copies taken every N updates, the chain to replay
        stays short (Section 6)."""
        from repro.core.backup import BackupPolicy

        db, tree = loaded(backup_policy=BackupPolicy(every_n_updates=8))
        victim = some_leaf(db, tree)
        # Heavy update traffic on one page; copies cap the chain.
        for round_no in range(6):
            txn = db.begin()
            for i in range(10):
                tree.update(txn, key_of(i), value_of(i, round_no + 1))
            db.commit(txn)
            db.flush_everything()
        db.evict_everything()
        assert db.stats.get("page_copies_taken") > 0
        db.device.inject_read_error(victim)
        tree.lookup(key_of(0))
        result = db.single_page.history[-1]
        # Far fewer records than the total update count on that page.
        assert result.records_applied <= 2 * 8 + 4


class TestEscalation:
    def test_no_spf_support_escalates_to_media(self):
        from repro.baselines.media_only import traditional_config

        db = Database(traditional_config(
            capacity_pages=512, buffer_capacity=32,
            device_profile=fast_config().device_profile,
            log_profile=fast_config().log_profile,
            backup_profile=fast_config().backup_profile))
        tree = db.create_index()
        txn = db.begin()
        for i in range(100):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        victim = db.get_root(tree.index_id)
        db.device.inject_bit_rot(victim)
        with pytest.raises(MediaFailure):
            tree.lookup(key_of(0))
        assert db.stats.get("escalations_to_media") == 1

    def test_single_device_node_escalates_to_system(self):
        from repro.baselines.media_only import traditional_config

        cfg = traditional_config(
            single_device_node=True,
            capacity_pages=512, buffer_capacity=32,
            device_profile=fast_config().device_profile,
            log_profile=fast_config().log_profile,
            backup_profile=fast_config().backup_profile)
        db = Database(cfg)
        tree = db.create_index()
        txn = db.begin()
        for i in range(100):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        db.device.inject_bit_rot(db.get_root(tree.index_id))
        with pytest.raises(SystemFailure):
            tree.lookup(key_of(0))
        assert db.stats.get("escalations_to_system") == 1

    def test_media_failure_aborts_active_transactions(self):
        from repro.baselines.media_only import traditional_config

        db = Database(traditional_config(
            capacity_pages=512, buffer_capacity=32,
            device_profile=fast_config().device_profile,
            log_profile=fast_config().log_profile,
            backup_profile=fast_config().backup_profile))
        tree = db.create_index()
        txn = db.begin()
        for i in range(100):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        bystander = db.begin()
        db.device.inject_bit_rot(db.get_root(tree.index_id))
        with pytest.raises(MediaFailure):
            tree.lookup(key_of(0))
        assert db.stats.get("txns_killed_by_media_failure") == 1
        assert bystander.txn_id not in db.tm.active

    def test_spf_engine_escalates_when_recovery_impossible(self):
        """Figure 8: if anything fails, fall back to media recovery."""
        db, tree = loaded()
        victim = some_leaf(db, tree)
        # Sabotage: remove the page's PRI coverage entirely.
        partition = db.pri.partitions[
            db.pri.partition_of_data_page(victim)]
        pos = partition._find_range(victim)
        assert pos is not None
        partition._delete_ranges(pos, pos + 1)
        partition._page_lsns.pop(victim, None)
        db.device.inject_read_error(victim)
        with pytest.raises(MediaFailure):
            tree.lookup(key_of(0))
        assert db.stats.get("spf_recovery_failures") == 1


class TestRecentFailures:
    """``Database.recent_failures()``: the bounded ring of what the
    engine repaired and escalated, read without a debugger."""

    def test_repair_entry_says_what_an_operator_asks(self):
        db, tree = loaded()
        victim = some_leaf(db, tree)
        txn = db.begin()
        tree.update(txn, key_of(0), b"newer")
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        db.device.inject_bit_rot(victim, nbits=6)
        assert tree.lookup(key_of(0)) == b"newer"
        (event,) = db.recent_failures()
        result = db.single_page.history[-1]
        assert event.page_id == victim
        assert event.detected_by == "checksum-mismatch"
        assert event.outcome is FailureOutcome.RECOVERED_IN_PLACE
        assert event.source == result.source == "backup_chain"
        assert event.records_replayed == result.records_applied >= 1
        assert event.log_pages_read == result.log_pages_read
        assert event.backup_fetches == result.backup_fetches == 1
        assert f"page {victim}: checksum-mismatch" in event.summary()
        assert f"{result.records_applied} records replayed" in event.summary()

    def test_ring_is_bounded_and_survives_a_crash(self):
        """More repairs than the bound leave the newest ``FAILURE_RING``;
        the crash that rebuilds the recovery stack keeps them."""
        # every repair moves the page to a spare sector (5 % of capacity)
        db, tree = loaded(capacity_pages=(FAILURE_RING + 5) * 24)
        victim = some_leaf(db, tree)
        for _ in range(FAILURE_RING + 5):
            db.device.inject_read_error(victim)
            assert tree.lookup(key_of(0)) == value_of(0, 0)
            db.evict_everything()
        assert db.stats.get("single_page_recoveries") == FAILURE_RING + 5
        assert len(db.recent_failures()) == FAILURE_RING
        assert len(db.recovery_manager.events) == FAILURE_RING
        db.crash()
        db.restart()
        assert len(db.recent_failures()) == FAILURE_RING

    def test_escalation_is_recorded_with_its_reason(self):
        db, tree = loaded(spf_enabled=False)
        db.device.inject_bit_rot(db.get_root(tree.index_id))
        with pytest.raises(MediaFailure):
            tree.lookup(key_of(0))
        (event,) = db.recent_failures()
        assert event.outcome is FailureOutcome.ESCALATED_TO_MEDIA
        assert event.source == "" and "unsupported" in event.summary()
