"""Integration tests: the detection stack (Section 4, Figure 8).

``golden_fetch_verdicts.json`` pins :class:`TestPlainFetchVerdicts`;
a change that means to move a row regenerates it in the same diff and
says why::

    PYTHONPATH=src python -m tests.test_detection --regen
"""

import json
import struct
import sys
from pathlib import Path

import pytest

import repro
from repro.btree.node import DATA_START, BTreeNode
from repro.engine.database import Database
from repro.errors import (BTreeError, MediaFailure, PageFailureKind,
                          SinglePageFailure)
from repro.page.page import HEADER_SIZE, TYPE_OFFSET, Page, PageType
from repro.page.slotted import SLOT_SIZE, SlottedPage, inspect_page
from repro.sim.iomodel import HDD_PROFILE
from tests.conftest import assert_no_pins, fast_config, key_of, value_of


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


def heap_page() -> Page:
    page = Page.format(1024, 3, PageType.HEAP)
    SlottedPage(page).initialize()
    page.seal()
    return page


class TestInPageChecks:
    def test_clean_page_passes(self):
        assert inspect_page(heap_page().data, 3) == 0

    def test_each_layer_reports_its_kind(self):
        page = heap_page()

        rotten = bytearray(page.data)
        rotten[500] ^= 0xFF
        with pytest.raises(SinglePageFailure) as raised:
            inspect_page(rotten, 3)
        assert raised.value.kind == PageFailureKind.CHECKSUM_MISMATCH

        with pytest.raises(SinglePageFailure) as raised:
            inspect_page(page.data, 4)
        assert raised.value.kind == PageFailureKind.WRONG_PAGE_ID

        # The stale-LSN verdict needs the index: RecoveryManager.inspect.
        db = Database(fast_config())
        db.pri.record_write(3, 10**6)
        with pytest.raises(SinglePageFailure) as raised:
            db.recovery_manager.inspect(3, page.data)
        assert raised.value.kind == PageFailureKind.STALE_LSN


class TestReadPathDispatch:
    def test_clean_reads_bypass_recovery(self):
        db, tree = loaded()
        assert tree.lookup(key_of(5)) == value_of(5, 0)
        assert db.stats.get("single_page_recoveries") == 0
        assert db.stats.get("pages_fetched_clean") > 0

    def test_pri_repaired_when_page_newer_than_index(self):
        """A page *newer* than the PRI expects is fine — the index is
        repaired on the read path (the lost-PRI-update case applied to
        normal processing)."""
        db, tree = loaded()
        page, _node, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        # Make the PRI believe an older LSN was the last write.
        actual = db.pri.recorded_lsn(victim)
        partition = db.pri.partitions[db.pri.partition_of_data_page(victim)]
        partition._page_lsns[victim] = max(1, actual - 1000)
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("pri_repaired_on_read") == 1
        assert db.pri.recorded_lsn(victim) == actual
        assert db.stats.get("single_page_recoveries") == 0


# ----------------------------------------------------------------------
# One verdict: every consumer of a device image refuses what the fetch
# path refuses
# ----------------------------------------------------------------------
KEY = key_of(0)


def damaged(damage: str, dirty: bool):
    """``(db, victim, value)``: the leaf holding ``KEY`` is damaged on
    the device.  ``dirty`` leaves a committed update the device never
    saw in the pool — restart redo's work; otherwise the leaf is cold."""
    db, tree = loaded()
    db.checkpoint()
    page, _node, _pid = tree._descend(KEY, for_write=False)
    victim = page.page_id
    db.pool.unfix(victim)

    def write(value: bytes) -> bytes:
        txn = db.begin()
        tree.update(txn, KEY, value)
        db.commit(txn)
        return value

    value = write(b"first")
    if damage == "lost write":
        db.device.inject_lost_write(victim)
    db.flush_everything()  # a lost write: the index now expects "first"
    if dirty:
        value = write(b"second")  # the leaf is resident: no fetch
    else:
        db.evict_everything()
    raw = bytearray(db.device.raw_image(victim))
    if damage == "forged directory":
        # Plausible to the header tests and the index, resealed — only
        # the slot-directory analysis ("heap overlaps slot directory").
        struct.pack_into("<H", raw, HEADER_SIZE + 2, len(raw))
        forged = Page.adopt(raw)
        forged.seal()
        db.device.write(victim, forged.data)
    elif damage == "bit rot":
        raw[500] ^= 0xFF
        db.device.write(victim, raw)
    elif damage == "read error":
        db.device.inject_read_error(victim)
    return db, victim, value


def restart_redo(mode: str):
    def consume(db, victim: int) -> bytes:
        db.crash()
        db.restart(mode=mode)
        db.tree(1).lookup(KEY)  # on demand: the first fix is the redo
        sealed = db.pool.page_if_resident(victim).copy()
        sealed.seal()  # a frame's checksum is only current on the device
        return sealed.data
    return consume


def full_backup(db, victim: int) -> bytes:
    backup_id = db.take_full_backup()
    assert db.stats.get("backup_images_repaired") == 1
    return db.backup_store.fetch_from_full_backup(backup_id, victim)[0]


def standby_seed(db, victim: int) -> bytes:
    standby = db.attach_standby()
    assert db.stats.get("standby_seed_images_repaired") == 1
    return standby.pages[victim].data


def scrub(db, victim: int) -> bytes:
    assert db.scrub().failures_repaired == 1
    return db.device.raw_image(victim)


def plain_fetch(db, victim: int) -> bytes:
    db.tree(1).lookup(KEY)
    return db.pool.page_if_resident(victim).data


#: name -> (consumer, reads through ``device.read``, wants redo work)
CONSUMERS = {
    "restart redo eager": (restart_redo("eager"), True, True),
    "restart redo on_demand": (restart_redo("on_demand"), True, True),
    "take_full_backup": (full_backup, False, False),
    "attach_standby": (standby_seed, False, False),
    "scrub": (scrub, True, False),
    "plain fetch": (plain_fetch, True, False),
}
DAMAGES = ("forged directory", "lost write", "bit rot", "read error")
#: ``raw_image`` bypasses read-side faults (ROADMAP: left on purpose)
CASES = [(consumer, damage) for consumer, row in CONSUMERS.items()
         for damage in DAMAGES if row[1] or damage != "read error"]


# Plain fetch, every verdict it can reach, on a cold leaf and a cold
# branch: what each one counts, what the repair says detected it, what
# the read returns and what it costs in simulated time, pinned in
# ``golden_fetch_verdicts.json``.
FETCH_GOLDEN = Path(__file__).with_name("golden_fetch_verdicts.json")
FETCH_DAMAGES = ("forged directory", "lost write", "bit rot", "read error",
                 "bad magic", "unknown page type", "misdirected write",
                 "not a node", "fence mismatch", "index behind")
FETCH_PLACES = ("leaf", "branch")
FETCH_KEY = key_of(200)


def fetch_row(where: str, damage: str) -> dict:
    """Damage the cold ``where`` page on ``FETCH_KEY``'s path of a
    three-level tree (simulated disks), then ``client.get`` it once:
    the counter delta, the repair's ``detected_by`` (None: no repair),
    the value and the clock delta."""
    disk = dict(device_profile=HDD_PROFILE, log_profile=HDD_PROFILE,
                backup_profile=HDD_PROFILE)
    db = Database(fast_config(page_size=512, buffer_capacity=256, **disk))
    client = repro.connect(db)
    tree = db.tree(client.index_id)
    client.apply_batch([("put", key_of(i), value_of(i, 0))
                        for i in range(400)])
    db.checkpoint()
    root, branch, leaf = walk(db, tree, FETCH_KEY)
    victim = {"leaf": leaf, "branch": branch}[where]
    if damage == "lost write":
        # The split's write of the victim never reaches the device.
        db.device.inject_lost_write(victim)
        tree._split(victim)
    db.flush_everything()
    db.evict_everything()
    raw = bytearray(db.device.raw_image(victim))

    def reseal() -> None:
        page = Page.adopt(raw)
        page.seal()
        db.device.write(victim, page.data)

    if damage == "forged directory":
        struct.pack_into("<H", raw, HEADER_SIZE + 2, len(raw))
        reseal()
    elif damage == "bit rot":
        raw[300] ^= 0xFF
        db.device.write(victim, raw)
    elif damage == "read error":
        db.device.inject_read_error(victim)
    elif damage == "bad magic":
        raw[0:4] = b"JUNK"
        db.device.write(victim, raw)
    elif damage == "unknown page type":
        raw[TYPE_OFFSET] = 99
        reseal()
    elif damage == "misdirected write":
        db.device.write(victim, db.device.raw_image(root))
    elif damage == "not a node":
        raw[TYPE_OFFSET] = int(PageType.HEAP)
        reseal()
    elif damage == "fence mismatch":
        # The low fence's last byte, in place: plausible to every
        # in-page test, wrong to the parent's key beside the pointer.
        at = struct.unpack_from("<H", raw, len(raw) - 4)[0]
        assert struct.unpack_from("<H", raw, at)[0] > 0
        raw[at + 1 + struct.unpack_from("<H", raw, at)[0]] ^= 0x01
        reseal()
    elif damage == "index behind":
        partition = db.pri.partitions[db.pri.partition_of_data_page(victim)]
        partition._page_lsns[victim] = max(1, db.pri.recorded_lsn(victim) - 1)
    events = len(db.recent_failures())
    before, start = db.stats.snapshot(), db.clock.now
    value = client.get(FETCH_KEY)
    moved = db.stats.delta(before)
    elapsed = db.clock.now - start
    assert_no_pins(db)
    repairs = db.recent_failures()[events:]
    assert len(repairs) <= 1
    return {"delta": dict(sorted(moved.items())),
            "detected_by": repairs[0].detected_by if repairs else None,
            "value": value.decode(), "clock_delta": elapsed}


class TestOneVerdict:
    """Red on the parent of this change in the forged-directory rows of
    restart redo (both modes), the full backup and the standby seed:
    they ran the header half of the inspection only and laundered the
    page into a dirty frame, the backup, the replica."""

    @pytest.mark.parametrize("consumer,damage", CASES)
    def test_consumer_detects_and_repairs(self, consumer, damage):
        consume, _reads_device, dirty = CONSUMERS[consumer]
        db, victim, value = damaged(damage, dirty)
        before = db.stats.snapshot()
        image = consume(db, victim)
        moved = db.stats.delta(before)
        assert moved.get("page_failures_detected") == 1
        assert moved.get("single_page_recoveries") == 1  # handle_failure
        assert not moved.get("escalations_to_media")
        inspect_page(image, victim)
        assert db.tree(1).lookup(KEY) == value
        assert_no_pins(db)

    @pytest.mark.parametrize("damage", FETCH_DAMAGES)
    @pytest.mark.parametrize("where", FETCH_PLACES)
    def test_plain_fetch_matches_golden(self, where, damage):
        """Every plain-fetch row repairs (index behind: reconciles)
        transparently and reproduces its golden exactly: a change to the
        fetch path that skips a check, a counter or a simulated charge
        moves a row here."""
        golden = json.loads(FETCH_GOLDEN.read_text())[f"{where}: {damage}"]
        row = fetch_row(where, damage)
        assert row["value"] == value_of(200, 0).decode()
        assert row == golden


class TestBTreeCrossPageDetection:
    """Section 4.2: fence-key verification on every root-to-leaf pass
    catches corruption that in-page checks cannot."""

    def test_traversal_detects_stale_but_valid_child(self):
        """A lost write leaves a checksum-valid but outdated node; the
        PRI LSN cross-check catches it at fetch time and the traversal
        proceeds with the repaired page."""
        db, tree = loaded()
        # Grow enough that there is a branch level.
        txn = db.begin()
        for i in range(300, 900):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        page, _n, _pid = tree._descend(key_of(500), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        db.device.inject_lost_write(victim)
        txn = db.begin()
        tree.update(txn, key_of(500), b"newest")
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        assert tree.lookup(key_of(500)) == b"newest"
        assert db.stats.get("page_failures_detected") >= 1

    def test_invariant_failure_handler_invoked_on_fence_damage(self):
        """Corrupt a child's fence keys in a way that keeps the page
        internally plausible; only the cross-page check can see it."""
        db, tree = loaded()
        txn = db.begin()
        for i in range(300, 900):
            tree.insert(txn, key_of(i), value_of(i, 0))
        db.commit(txn)
        db.flush_everything()
        root_pid = db.catalog.get_root(tree.index_id)
        root_page = db.pool.fix(root_pid)
        root = BTreeNode(root_page)
        assert not root.is_leaf
        victim = root.child_pid(0)
        db.pool.unfix(root_pid)
        db.evict_everything()
        # Forge the stored page: rewrite it with a wrong low fence but
        # valid checksum, bypassing the engine (simulates firmware bugs
        # / software scribbles).
        raw = db.device.read(victim)
        forged = Page(db.config.page_size, raw)
        node = BTreeNode(forged)
        from repro.page.slotted import SlottedPage

        slotted = SlottedPage(forged)
        meta = slotted.read_record(0)
        slotted.remove(0)
        from repro.page.slotted import Record

        slotted.insert(0, Record(b"zzzz-wrong-fence", meta.value, meta.ghost))
        forged.seal()
        db.device.write(victim, forged.data)
        # The PRI cross-check cannot catch this (the LSN is intact),
        # but the fence comparison on the very next descent does, and
        # single-page recovery repairs the node in place.
        # Reset the recorded LSN so the stale check passes.
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("btree_invariant_failures") >= 1
        assert db.stats.get("single_page_recoveries") >= 1


class TestScrubbing:
    def test_scrub_clean_database_finds_nothing(self):
        db, _tree = loaded()
        report = db.scrub()
        assert report.failures_found == 0
        assert report.pages_scanned > 0

    def test_scrub_finds_and_repairs_cold_corruption(self):
        """Latent sector errors are mostly found by scrubbing [2]."""
        db, tree = loaded()
        victims = []
        for i in (0, 299):
            page, _n, _pid = tree._descend(key_of(i), for_write=False)
            victims.append(page.page_id)
            db.pool.unfix(page.page_id)
        db.evict_everything()
        db.device.inject_bit_rot(victims[0])
        db.device.inject_read_error(victims[1])
        report = db.scrub()
        assert report.failures_found == 2
        assert report.failures_repaired == 2
        assert set(report.failures_by_kind) == {"checksum-mismatch",
                                                "device-read-error"}
        # And the data is intact afterwards, without any recovery on
        # the foreground read path.
        before = db.stats.get("single_page_recoveries")
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert tree.lookup(key_of(299)) == value_of(299, 0)
        assert db.stats.get("single_page_recoveries") == before

    def test_scrub_report_only_mode(self):
        db, tree = loaded()
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        db.device.inject_bit_rot(victim)
        report = db.scrub(repair=False)
        assert report.failures_found == 1
        assert report.failures_repaired == 0
        # Damage still present; the read path repairs it on demand.
        assert tree.lookup(key_of(0)) == value_of(0, 0)
        assert db.stats.get("single_page_recoveries") == 1

    def test_scrub_reconciles_a_page_newer_than_the_index(self):
        """The fetch path's verdict has two outcomes; a scrub takes
        both (red on the parent, which ignored this one)."""
        db, tree = loaded()
        page, _n, _pid = tree._descend(key_of(0), for_write=False)
        victim = page.page_id
        db.pool.unfix(victim)
        db.evict_everything()
        actual = db.pri.recorded_lsn(victim)
        db.pri.record_write(victim, actual - 1)  # a lost PRI update
        report = db.scrub()
        assert report.failures_found == 0
        assert db.stats.get("pri_repaired_on_read") == 1
        assert db.pri.recorded_lsn(victim) == actual

    def test_scrub_flags_what_a_fetch_would(self):
        """``pri_lsn_check=False``: a stale-but-valid page is not a
        failure to a fetch, so not to a scrub (red on the parent, which
        cross-checked regardless); bit rot is one to both."""
        db, tree = loaded(pri_lsn_check=False)
        victims = []
        for i in (0, 299):
            page, _n, _pid = tree._descend(key_of(i), for_write=False)
            victims.append(page.page_id)
            db.pool.unfix(page.page_id)
        db.device.inject_lost_write(victims[0])
        txn = db.begin()
        tree.update(txn, key_of(0), b"lost")
        db.commit(txn)
        db.flush_everything()
        db.evict_everything()
        db.device.inject_bit_rot(victims[1])
        report = db.scrub(repair=False)
        assert report.failures_by_kind == {"checksum-mismatch": 1}
        assert tree.lookup(key_of(0)) == value_of(0, 0)  # stale, unflagged
        assert tree.lookup(key_of(299)) == value_of(299, 0)
        assert db.stats.get("page_failures_detected") == 1

    def test_scrub_skips_buffered_pages(self):
        db, tree = loaded()
        tree.lookup(key_of(0))  # pulls pages into the pool
        report = db.scrub()
        assert report.pages_skipped > 0


# ----------------------------------------------------------------------
# A hop that fails for good leaves no pin behind
# ----------------------------------------------------------------------
def walk(db, tree, key):
    """Page ids on ``key``'s path: permanent parents first, then the
    foster chain inside the leaf level."""
    path = [db.catalog.get_root(tree.index_id)]
    while True:
        node = BTreeNode(db.pool.fix(path[-1]))
        if node.has_foster and key >= node.foster_key:
            nxt = node.foster_pid
        elif node.is_leaf:
            nxt = None
        else:
            nxt = node.route(key)[0]
        db.pool.unfix(path[-1])
        if nxt is None:
            return path
        path.append(nxt)


def deep_tree(**overrides):
    """A resident three-level tree whose path to ``key`` ends in a
    foster hop: ``(db, client, tree, key, {where: page id})``."""
    db = Database(fast_config(page_size=512, buffer_capacity=256,
                              **overrides))
    client = repro.connect(db)
    tree = db.tree(client.index_id)
    client.apply_batch([("put", key_of(i), value_of(i, 0))
                        for i in range(400)])
    assert tree.depth() == 3
    leaf = walk(db, tree, key_of(200))[-1]
    tree._split(leaf)  # reads do no adoption: the chain stays
    node = BTreeNode(db.pool.fix(leaf))
    key = node.foster_key
    db.pool.unfix(leaf)
    root, interior, leaf, foster = walk(db, tree, key)
    assert client.get(key) is not None  # every view on the path is built
    return db, client, tree, key, dict(root=root, interior=interior,
                                       leaf=leaf, foster=foster)


def break_page(db, where, pid):
    """Make the resident page fail its hop: the root (which no parent
    vouches for) stops being a node at all, any other page's fences stop
    matching the keys beside its pointer."""
    page = db.pool.page_if_resident(pid)
    if where == "root":
        page.data[TYPE_OFFSET] = int(PageType.HEAP)
        page.view = None
    else:
        page.view.low_fence = b"forged"


def run_op(op, db, client, tree, key, spoil):
    """``spoil()`` breaks the page; the op must then raise."""
    if op == "compensate":
        txn = db.begin()
        db.locks.acquire(txn.txn_id, key)
        tree.upsert(txn, key, b"to be rolled back")
        spoil()
        db.abort(txn)  # the rollback descends to compensate
        return
    spoil()
    if op == "get":
        client.get(key)
    elif op == "put":
        client.put(key, b"new")
    elif op == "delete":
        client.delete(key)
    else:
        client.scan(key)


OPS = ("get", "put", "delete", "scan", "compensate")
PLACES = ("root", "interior", "leaf", "foster")


class TestNoPinLeftBehind:
    """Red on the parent of this change: ``_descend`` unfixed the parent
    only after the child verified, so a hop that raised left the parent
    pinned for the life of the pool."""

    @pytest.mark.parametrize("where", PLACES)
    @pytest.mark.parametrize("op", OPS)
    def test_unrepairable_hop_raises_typed_and_unpins(self, op, where):
        db, client, tree, key, pids = deep_tree()
        db.pool.repairer = None  # nothing can repair: the failure is final

        with pytest.raises(SinglePageFailure) as raised:
            run_op(op, db, client, tree, key,
                   lambda: break_page(db, where, pids[where]))
        assert raised.value.page_id == pids[where]
        assert_no_pins(db)

    @pytest.mark.parametrize("where", PLACES)
    def test_escalating_hop_raises_typed_and_unpins(self, where):
        """Without single-page recovery the repair escalates (Figure 1)."""
        db, client, tree, key, pids = deep_tree(spf_enabled=False)
        with pytest.raises(MediaFailure):
            run_op("get", db, client, tree, key,
                   lambda: break_page(db, where, pids[where]))
        assert db.stats.get("escalations_to_media") == 1
        assert_no_pins(db)

    @pytest.mark.parametrize("where", ("interior", "leaf", "foster"))
    def test_unrepaired_hop_raises_typed_and_unpins(self, where):
        """The repair succeeds but the child still differs — it is the
        *parent's* key that is wrong: ``unrepaired``, and no pin."""
        db, client, tree, key, pids = deep_tree()
        above = {"interior": "root", "leaf": "interior", "foster": "leaf"}
        parent = db.pool.page_if_resident(pids[above[where]])
        if where == "foster":
            parent.view.foster_key = key + b"!"
            probe = key + b"!!"
        else:
            keys = parent.view.keys
            slot = keys.index(BTreeNode(parent).route(key)[1])
            keys[slot] = keys[slot][:-1]  # still sorted, still routes key
            probe = key
        with pytest.raises(SinglePageFailure, match="unrepaired"):
            client.get(probe)
        assert db.stats.get("single_page_recoveries") == 1
        assert_no_pins(db)

    def test_route_error_unpins(self):
        """A branch that cannot route the key is a ``BTreeError`` out of
        the descent, not a page failure — and still no pin."""
        db, client, tree, key, pids = deep_tree()
        del db.pool.page_if_resident(pids["interior"]).view.keys[:]
        with pytest.raises(BTreeError, match="first child"):
            client.get(key)
        assert_no_pins(db)

    @pytest.mark.parametrize("repairable", (True, False))
    def test_a_branch_record_without_a_page_id_fails_the_branch(
            self, repairable):
        """A cold branch whose first data record holds a 7-byte value
        passes every in-page test; its decode fails, the branch is
        repaired on the hop like any page that is no node, or (nothing
        can repair it) a typed failure is raised — no pin either way.
        Red on the parent: a ``struct.error`` out of the key directory's
        build, the branch left pinned."""
        db, client, tree, key, pids = deep_tree()
        value = client.get(key)
        interior = pids["interior"]
        db.pool.evict(interior)
        raw = bytearray(db.device.raw_image(interior))
        pos = len(raw) - SLOT_SIZE * (DATA_START + 1)
        length_flags = struct.unpack_from("<H", raw, pos + 2)[0]
        struct.pack_into("<H", raw, pos + 2, length_flags - 1)
        page = Page.adopt(raw)
        page.seal()
        inspect_page(page.data, interior)  # plausible to the inspection
        db.device.write(interior, page.data)
        if repairable:
            assert client.get(key) == value
            assert db.stats.get("spf[btree-invariant]") == 1
            assert db.recent_failures()[-1].page_id == interior
        else:
            db.pool.repairer = None
            with pytest.raises(SinglePageFailure) as raised:
                client.get(key)
            assert raised.value.page_id == interior
        assert_no_pins(db)

    def test_second_decode_failure_is_a_page_failure(self):
        """``_fix_node``'s twin: a page that is still no node after a
        "successful" repair is a ``SinglePageFailure`` (the parent let a
        bare ``BTreeError`` escape) and is unpinned."""
        db, client, tree, key, pids = deep_tree()
        inner = db.pool.repairer

        def repair_then_break(failure):
            inner(failure)
            db.pool.fix(failure.page_id)
            break_page(db, "root", failure.page_id)
            db.pool.unfix(failure.page_id)

        db.pool.repairer = repair_then_break
        break_page(db, "root", pids["root"])
        with pytest.raises(SinglePageFailure, match="unrepaired"):
            tree.depth()  # _fix_node, no descent
        assert_no_pins(db)

    def test_adoption_unpins_the_parent_when_the_child_cannot_be_read(self):
        db, client, tree, key, pids = deep_tree()
        db.pool.evict(pids["leaf"])
        inner = db.pool.fetcher

        def unreadable(page_id):
            if page_id == pids["leaf"]:
                raise SinglePageFailure(page_id, PageFailureKind.DEVICE_READ_ERROR,
                                        "gone for good")
            return inner(page_id)

        db.pool.fetcher = unreadable
        with pytest.raises(SinglePageFailure, match="gone for good"):
            tree._adopt(pids["interior"], pids["leaf"])
        assert_no_pins(db)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    FETCH_GOLDEN.write_text(json.dumps(
        {f"{where}: {damage}": fetch_row(where, damage)
         for where in FETCH_PLACES for damage in FETCH_DAMAGES},
        indent=1) + "\n")
    print(f"wrote {FETCH_GOLDEN}")
