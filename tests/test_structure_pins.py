"""Page and log bytes of three write streams, pinned unmasked.

The slotted-page mutators are the engine's one redo primitive: a
split, an adoption and a prefix extension run them forward, and every
replay of a page's chain runs them again.  Whatever their code looks
like, the bytes they leave are fixed, so each stream below pins the
sha256 of every device page image — checksum, PageLSN, update counter
and heap garbage included — and of the log's encoded records:

* ``kv_load``: the first 2 000 records of the bench's kv load, in the
  bench's 500-record ``apply_batch`` calls on its engine config;
* ``dblp_load``: the first 1 500 records of the bench's DBLP corpus,
  loaded the same way on the DBLP workload's config (a 72-frame pool,
  so write-back runs and their PRI records are in the log too);
* ``random_stream``: a seeded stream of puts, deletes and ghost
  removals on 1 KiB pages in which some prefix extension fits only
  after compaction, then an adoption whose prefix extension hardened
  cut before its commit and rolled back as a restart loser — which
  runs the prefix extension's undo kernel (``repro.wal.ops.UNDO``).

A change that means to move these bytes is a change to the page or
log format and says so; ``PYTHONPATH=src python -m
tests.test_structure_pins`` prints the digests.
"""

from __future__ import annotations

import hashlib
import random
import sys

import repro
from bench.workloads import WORKLOADS, DblpCorpus, kv_records
from repro.engine.database import Database
from repro.page.slotted import SLOT_SIZE, SlottedPage
from repro.wal.ops import EXTEND_PREFIX, REDO, UNDO
from tests import op_reference as reference
from tests.conftest import fast_config
from tests.test_structure_records import _arm, _Cut, _put
from tests.record_reference import all_records, encode

PINNED = {
    "kv_load": (
        "8856ac5cade866ab7a41b5b5b0bcae562dd7fb6a90f7da44356f8e4fb74c0994",
        "63afb261552f7c2574f2faab71742ffb0cdfc8fed88994c238bc81a5eea5abd5",
    ),
    "dblp_load": (
        "146348fd6710db6fdec536fe9eea812d4c9fc199d967ac632cdd08a2cb7ddb64",
        "7b62c959fa17b9895f85dfcc38904da2a4fa5ca5c647a261ede27af417068d26",
    ),
    "random_stream": (
        "c39f79fa1a6d17721e3c8c2483a286e191299a13e036a90b7d10ed4b7a48ad1a",
        "e22fa945f2cfcb6fb5aad237003f19fbc69b3384df26f42b2c0e595159ee1688",
    ),
}

_BATCH = 500


def _digests(db: Database) -> tuple[str, str]:
    """(sha256 of every device page image, sha256 of the log's records)
    after everything resident is written back."""
    db.flush_everything()
    pages = hashlib.sha256()
    for pid in range(db.config.capacity_pages):
        image = db.device.raw_image(pid)
        if image is not None:
            pages.update(pid.to_bytes(8, "little") + image)
    log = hashlib.sha256()
    for record in all_records(db.log):
        log.update(record.lsn.to_bytes(8, "little") + encode(record))
    return pages.hexdigest(), log.hexdigest()


def _load(workload: str, records: list[tuple[bytes, bytes]]) -> tuple[str, str]:
    client = repro.connect(WORKLOADS[workload].engine_config(1))
    for i in range(0, len(records), _BATCH):
        client.apply_batch([("put", key, value)
                            for key, value in records[i:i + _BATCH]])
    return _digests(client.db)


def kv_load() -> tuple[str, str]:
    return _load("kv_hot_embedded", kv_records(1, 8_000)[:2_000])


def dblp_load() -> tuple[str, str]:
    return _load("dblp_cold_embedded", DblpCorpus(1, 6_000).records[:1_500])


def _after_compaction(page, data, pos: int) -> bool:  # noqa: ANN001
    """Does the re-encoded run of the prefix extension encoded at
    ``data[pos:]`` fit only once the page compacts?"""
    op = reference.decode(data, pos)
    slotted = SlottedPage(page)
    run = sum(2 + len(r.key) + len(r.value) for r in
              slotted.records(include_ghosts=True)[op.slot:op.slot + op.count])
    free = page.size - slotted.slot_count * SLOT_SIZE - slotted.heap_end
    return free < run - op.count * len(op.stripped)


def random_stream(monkeypatch) -> tuple[str, str]:  # noqa: ANN001
    seen = {"compacting": 0, "undone": 0}
    kind = EXTEND_PREFIX
    redo, undo = REDO[kind], UNDO[kind]

    def extending(page, data, pos):  # noqa: ANN001, ANN202
        if _after_compaction(page, data, pos):
            seen["compacting"] += 1
        return redo(page, data, pos)

    def undoing(page, data, pos):  # noqa: ANN001, ANN202
        seen["undone"] += 1
        return undo(page, data, pos)

    db = Database(fast_config(page_size=1024, capacity_pages=2048,
                              buffer_capacity=256))
    tree = db.create_index()
    rng = random.Random("structure-pins")
    live: list[int] = []
    with monkeypatch.context() as patch:
        patch.setitem(REDO, kind, extending)
        for _round in range(12):
            txn = db.begin()
            for _ in range(40):
                if live and rng.random() < 0.3:
                    i = live.pop(rng.randrange(len(live)))
                    db.locks.acquire(txn.txn_id, b"k%05d" % i)
                    tree.delete(txn, b"k%05d" % i)
                else:
                    i = rng.randrange(3_000)
                    db.locks.acquire(txn.txn_id, b"k%05d" % i)
                    tree.upsert(txn, b"k%05d" % i, bytes([65 + i % 26])
                                * rng.randrange(4, 60))
                    if i not in live:
                        live.append(i)
            db.commit(txn)
            leaf = tree._descend(b"k%05d" % rng.randrange(3_000),
                                 for_write=False)[2]
            db.pool.unfix(leaf)
            tree.remove_ghosts(leaf)
    assert seen["compacting"], "no prefix extension needed compaction"
    _arm(db, tree, monkeypatch, "adoption, before the commit")
    for i in range(3_000, 6_000):
        try:
            _put(db, tree, [i])
        except _Cut:
            break
    else:
        raise AssertionError("no adoption extended a prefix")
    db.crash()
    monkeypatch.undo()
    monkeypatch.setitem(UNDO, kind, undoing)
    db.restart("eager")
    assert seen["undone"], "restart undid no prefix extension"
    return _digests(db)


def test_the_kv_load_leaves_its_pinned_bytes():
    assert kv_load() == PINNED["kv_load"]


def test_the_dblp_load_leaves_its_pinned_bytes():
    assert dblp_load() == PINNED["dblp_load"]


def test_a_random_stream_with_a_rolled_back_adoption_leaves_its_pinned_bytes(
        monkeypatch):
    assert random_stream(monkeypatch) == PINNED["random_stream"]


if __name__ == "__main__":
    from _pytest.monkeypatch import MonkeyPatch

    if sys.argv[1:]:
        sys.exit(__doc__)
    with MonkeyPatch().context() as patch:
        print({"kv_load": kv_load(), "dblp_load": dblp_load(),
               "random_stream": random_stream(patch)})
