"""What recovery finds after a failure stream over a small FLASH pool.

One seeded key-value stream — autocommit puts and deletes, multi-key
transactions, some rolled back — runs over a 16-frame pool on the
FLASH cost model (a page write costs about five reads) and a tree
three levels deep, so every miss evicts and branch pages compete with
leaves for frames.  Into it the stream injects page faults (bit rot
and read errors on cold data pages, repaired on the next read),
checkpoints with log truncation, a full backup, crashes followed by a
restart in either mode, and one device loss restored from the backup.

Which frames the pool evicts, and when it writes them back, must not
change what any recovery finds: the key -> value map after each
recovery and at the end is checked against the stream's own model and
pinned (sha256 each).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import FLASH_PROFILE
from repro.btree.verify import verify_tree
from repro.engine.database import Database
from repro.page.page import TYPE_OFFSET, PageType
from tests.conftest import fast_config

SEED = 54
OPS = 1400
KEYS = 900
#: step -> failure injected after that step's operation
EVENTS = {150: "fault", 250: "checkpoint", 300: "backup", 380: "fault",
          450: "crash", 600: "fault", 700: "checkpoint", 760: "crash",
          850: "fault", 900: "device_loss", 1000: "checkpoint",
          1050: "fault", 1150: "crash", 1250: "fault", 1300: "checkpoint"}

#: sha256 of the key -> value map after each recovery, in stream order
#: (three restarts, then the restore), and at the end of the stream
RECOVERED_SHA256 = [
    "79b355885ad8287ef5b9c947586f87813620520797727d11a6d65cfeb2b5ca95",
    "86fb5456cca918a48d4108f75be081d7d6288cd66985fb0af2dab63f4def6f33",
    "19084a0bb65f1b781527c88cd5540005e8d7ee04cc6d4d5a1f81db9d99e2f006",
    "58932321443b1b4ae88742187c74a7b3d19e37a1fd377d38faf486ae325c236f",
]
FINAL_SHA256 = ("4926d771a4ccd6f1f83505d6160c0595"
                "cba87673db6279a93900f9356ea6ab94")


def _value(rng: random.Random, step: int) -> bytes:
    return b"%d:" % step + bytes(rng.randrange(97, 123)
                                 for _ in range(rng.randrange(20, 90)))


def map_digest(pairs: dict[bytes, bytes]) -> str:
    digest = hashlib.sha256()
    for key in sorted(pairs):
        digest.update(b"%d:%s%d:%s" % (len(key), key, len(pairs[key]),
                                       pairs[key]))
    return digest.hexdigest()


def new_db() -> Database:
    return Database(fast_config(page_size=1024, capacity_pages=2048,
                                buffer_capacity=16,
                                device_profile=FLASH_PROFILE,
                                log_profile=FLASH_PROFILE,
                                backup_profile=FLASH_PROFILE))


def _fault(db: Database, rng: random.Random) -> None:
    """Bit rot or a read error on a cold, allocated data page."""
    first = db.config.data_start
    page_id = first + rng.randrange(db.allocated_pages() - first)
    pool = db.pool
    if pool.resident(page_id) and pool.pin_count(page_id) == 0:
        pool.flush_page(page_id)
        pool.evict(page_id)
    if rng.random() < 0.5:
        db.device.inject_bit_rot(page_id)
    else:
        db.device.inject_read_error(page_id)


def _recovered_map(db: Database, index_id: int) -> dict[bytes, bytes]:
    tree = db.tree(index_id)
    assert verify_tree(tree).ok
    return dict(tree.range_scan())


def run_stream(db: Database) -> tuple[dict[bytes, bytes], list[str]]:
    """Run the stream; returns the committed model and the digest of
    the map each recovery found (each checked against the model)."""
    rng = random.Random(SEED)
    tree = db.create_index()
    index_id = tree.index_id
    model: dict[bytes, bytes] = {}
    recovered: list[str] = []
    backup_id = None
    crashes = 0
    for step in range(1, OPS + 1):
        key = b"key%05d" % rng.randrange(KEYS)
        roll = rng.random()
        if roll < 0.7:
            value = _value(rng, step)
            db.autocommit_write(tree, key, value)
            model[key] = value
        elif roll < 0.8:
            db.autocommit_write(tree, key, None)
            model.pop(key, None)
        else:
            txn = db.begin()
            staged = {}
            for _ in range(rng.randrange(2, 6)):
                key = b"key%05d" % rng.randrange(KEYS)
                staged[key] = _value(rng, step)
                tree.insert(txn, key, staged[key], replace=True)
            if rng.random() < 0.25:
                db.abort(txn)
            else:
                db.commit(txn)
                model.update(staged)
        event = EVENTS.get(step)
        if event == "fault":
            _fault(db, rng)
        elif event == "checkpoint":
            db.checkpoint()
            db.truncate_log()
        elif event == "backup":
            backup_id = db.take_full_backup()
        elif event == "crash":
            db.crash()
            crashes += 1
            db.restart(mode="on_demand" if crashes % 2 else "eager")
            db.finish_restart()
        elif event == "device_loss":
            db.device.fail_device()
            db.recover_media(backup_id, mode="on_demand")
            db.finish_restore()
        if event in ("crash", "device_loss"):
            found = _recovered_map(db, index_id)
            assert found == model, (step, event)
            recovered.append(map_digest(found))
            tree = db.tree(index_id)
    return model, recovered


@pytest.fixture(scope="module")
def stream() -> dict:
    """The stream run once for the module: what each test reads of it,
    taken before anything flushes the pool."""
    db = new_db()
    model, recovered = run_stream(db)
    final = _recovered_map(db, db.indexes[0])
    stats = {name: db.stats.get(name)
             for name in ("pages_written_back", "pages_evicted",
                          "single_page_recoveries", "system_crashes")}
    db.flush_everything()
    types = [db.device.raw_image(page_id)[TYPE_OFFSET]
             for page_id in range(db.config.data_start, db.allocated_pages())]
    return {"model": model, "recovered": recovered, "final": final,
            "stats": stats, "types": types}


def test_the_stream_evicts_dirty_leaves_and_branches(stream):
    stats = stream["stats"]
    assert stats["pages_written_back"] > 300
    assert stats["pages_evicted"] > 1000
    assert stats["single_page_recoveries"] >= 4
    assert stats["system_crashes"] == 3
    types = stream["types"]
    assert types.count(PageType.BTREE_BRANCH) >= 3
    assert types.count(PageType.BTREE_LEAF) > 60
    assert len(stream["model"]) > 500


def test_every_recovery_finds_the_pinned_map(stream):
    assert stream["recovered"] == RECOVERED_SHA256
    assert stream["final"] == stream["model"]
    assert map_digest(stream["final"]) == FINAL_SHA256
