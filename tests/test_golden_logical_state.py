"""What the database *holds* pinned across commits, whatever the log says.

``test_golden_write_path.py`` pins the log's bytes; this pins the state
those bytes produce, so a change to the log format (record sizes, hence
LSNs) can prove it moved nothing else.  Four seeded streams:

* ``write_path`` — the write-path golden's stream, verbatim;
* ``dblp`` — bibliographic records of 120-470 bytes whose first 10
  bytes (the mdate) are rewritten, some rewrites also growing or
  shrinking the value in its middle, some inside a ``client.txn()`` that
  rolls back, beside inserts, deletes and checkpoints;
* ``dirty_victims`` — the same records through a 16-frame pool, where
  most misses meet a dirty victim: a ``client.txn()`` held open across
  evictions and a checkpoint, a leaf whose write-back the device loses
  (detected stale and repaired), and a crash that loses the last
  write-back's page-recovery-index record;
* ``sorted_load`` — sorted batches of new keys, as the benchmark loads
  its records, through a 16-frame pool: 8 000 kv keys in 500-put
  batches, a sorted DBLP-shaped batch into a populated tree, a batch
  whose runs an existing key, a ghost, a duplicate, a descending pair
  and a delete break, and a sorted batch that rolls back.

For each, the sha256 of the key -> value map and of every B-tree page
(device image, checksum and PageLSN fields masked: both follow from the
log's LSNs) is pinned at four points: after the stream; after a crash —
with a loser transaction's rewrites forced but not committed — and an
eager restart; after the same crash and an on-demand restart, drained;
and after bit rot on every leaf of the eager copy is repaired through
the fetch path.  The same three recoveries run once more from a fresh
engine whose log holds ``LogRecord.decode(r.encode())`` of every
record (:func:`decoded_twin`) and must give the same digests: what
recovery reads is what the log's bytes say.

A digest may change only when a change *means* to move what the
database holds; then regenerate in the same diff and say why in
CHANGES.md::

    PYTHONPATH=src python tests/test_golden_logical_state.py --regen
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import repro
from repro import EngineConfig
from repro.btree.node import BTreeNode
from repro.core.backup import BackupPolicy
from repro.engine.database import Database
from repro.errors import PageFailureKind
from repro.page.page import TYPE_OFFSET, PageType
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecordKind
if __name__ == "__main__":
    # Run as a script: ``tests`` is a package at the repository root,
    # which ``python tests/<this file>.py`` does not put on the path.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.conftest import clone_crashed
from tests.test_golden_write_path import CASES as WRITE_CASES
from tests.test_golden_write_path import write_stream
from tests.record_reference import LogRecord, all_records, encode, records_from

GOLDEN = Path(__file__).with_name("golden_logical_state.json")

#: the page-header bytes a digest masks: checksum, PageLSN
_MASKED = ((4, 8), (16, 24))


class _Abort(Exception):
    """Raised inside a ``client.txn()`` block to make it roll back."""


class _DblpShape:
    """Bibliographic records of 120-470 bytes and their rewrites, drawn
    from ``rng``."""

    TEXT = b"abcdefghijklmnopqrstuvwxyz ,.;-ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.serial = 0

    def mdate(self) -> bytes:
        rng = self.rng
        return b"20%02d-%02d-%02d" % (rng.randint(10, 25), rng.randint(1, 12),
                                      rng.randint(1, 28))

    def paper(self) -> tuple[bytes, bytes]:
        rng = self.rng
        self.serial += 1
        key = b"Author_%03d/%d/p%06d" % (rng.randrange(300),
                                         1995 + rng.randrange(30), self.serial)
        body = bytes(rng.choice(self.TEXT) for _ in range(rng.randint(109, 459)))
        return key, self.mdate() + b"\x1f" + body

    def rewrite(self, old: bytes) -> bytes:
        """A new mdate; a third of the time the value also grows or
        shrinks by a few bytes in its middle, within 120..470."""
        rng = self.rng
        roll = rng.random()
        at = rng.randint(11, len(old) - 1)
        if roll < 0.17 and len(old) <= 460:
            extra = bytes(rng.choice(self.TEXT)
                          for _ in range(rng.randint(1, 10)))
            return self.mdate() + old[10:at] + extra + old[at:]
        if roll < 0.34 and len(old) >= 130:
            return self.mdate() + old[10:at] + old[at + rng.randint(1, 10):]
        return self.mdate() + old[10:]


def dblp_stream(seed: int, frames: int, n_records: int, n_ops: int):  # noqa: ANN201
    """Rewrites of DBLP-shaped records; returns the client."""
    rng = random.Random(seed)
    client = repro.connect(EngineConfig(page_size=4096, capacity_pages=8192,
                                        buffer_capacity=frames, seed=seed))
    db = client.db
    values: dict[bytes, bytes] = {}
    shape = _DblpShape(rng)
    paper, rewrite = shape.paper, shape.rewrite

    client.apply_batch([("put", *paper()) for _ in range(n_records)])
    values.update(client.scan())
    db.checkpoint()
    for step in range(n_ops):
        roll = rng.random()
        live = sorted(values)
        if roll < 0.55:
            key = rng.choice(live)
            values[key] = rewrite(values[key])
            client.put(key, values[key])
        elif roll < 0.65:
            key, value = paper()
            values[key] = value
            client.put(key, value)
        elif roll < 0.70:
            key = rng.choice(live)
            del values[key]
            client.delete(key)
        elif roll < 0.85:
            keys = rng.sample(live, rng.randint(1, 3))
            rollback = rng.random() < 0.5
            try:
                with client.txn() as txn:
                    for key in keys:
                        new = rewrite(values[key])
                        txn.put(key, new)
                        if not rollback:
                            values[key] = new
                    if rollback:
                        raise _Abort
            except _Abort:
                pass
        else:
            key = rng.choice(live)
            assert client.get(key) == values[key]
        if step % 500 == 499:
            db.checkpoint()
    assert dict(client.scan()) == values
    return client


def leaf_of(db, index_id: int, key: bytes) -> int:  # noqa: ANN001
    page, _node, _pid = db.tree(index_id)._descend(key, for_write=False)
    db.pool.unfix(page.page_id)
    return page.page_id


def dirty_victims_stream(seed: int, frames: int, n_records: int,  # noqa: ANN201
                         n_ops: int):
    """DBLP-shaped rewrites through a pool so small that most misses
    meet a dirty victim: autocommit rewrites, inserts and reads around a
    ``client.txn()`` held open across evictions and a checkpoint, then
    a leaf whose next write-back the device loses — read back, it is
    found stale (Figure 8's PageLSN cross-check) and repaired.  Returns
    the client.

    Page copies are off: the Section-6 policy runs at write-back and
    resets the in-page update counter, so with it on the pinned images
    would record *when* pages were written back, not what they hold."""
    rng = random.Random(seed)
    client = repro.connect(EngineConfig(
        page_size=4096, capacity_pages=8192, buffer_capacity=frames,
        seed=seed, backup_policy=BackupPolicy.disabled()))
    db, index_id = client.db, client.index_id
    shape = _DblpShape(rng)
    client.apply_batch([("put", *shape.paper()) for _ in range(n_records)])
    values = dict(client.scan())
    held: set[bytes] = set()  # keys the open transaction has locked
    db.checkpoint()

    def burst(n: int) -> None:
        for _ in range(n):
            roll = rng.random()
            if roll < 0.6:
                key = rng.choice(sorted(values.keys() - held))
                values[key] = shape.rewrite(values[key])
                client.put(key, values[key])
            elif roll < 0.7:
                key, value = shape.paper()
                values[key] = value
                client.put(key, value)
            else:
                key = rng.choice(sorted(values))
                assert client.get(key) == values[key]

    burst(n_ops // 3)
    written = db.stats.get("pages_written_back")
    with client.txn() as txn:
        for half in range(2):
            for key in rng.sample(sorted(values.keys() - held), 4):
                values[key] = shape.rewrite(values[key])
                txn.put(key, values[key])
                held.add(key)
            burst(n_ops // 6)
            if not half:
                db.checkpoint()
    held.clear()
    assert db.stats.get("pages_written_back") > written

    # A lost write: the leaf's next write-back never reaches the device.
    live = sorted(values)
    at = rng.randrange(len(live))
    key = live[at]
    values[key] = shape.rewrite(values[key])
    client.put(key, values[key])
    leaf = leaf_of(db, index_id, key)
    db.device.inject_lost_write(leaf)
    far = live[:max(0, at - 60)] + live[at + 60:]
    for _ in range(20 * frames):
        if not db.pool.resident(leaf):
            break
        other = rng.choice(far)
        assert client.get(other) == values[other]
    assert not db.pool.resident(leaf)
    assert client.get(key) == values[key]
    assert [e.detected_by for e in db.recent_failures()
            if e.page_id == leaf] == [PageFailureKind.STALE_LSN.value]

    burst(n_ops // 3)
    assert dict(client.scan()) == values
    return client


def sorted_load_stream(seed: int, frames: int, n_kv: int,  # noqa: ANN201
                       n_dblp: int):
    """Sorted batches of new keys, the bench's set-up shape, through a
    ``frames``-frame pool: ``n_kv`` kv puts of 100-byte values in
    500-put batches; ``n_dblp`` DBLP-shaped records in random order,
    then as many again as one sorted batch among them; then batches
    that break sorted runs — an existing key, a ghost, a duplicate, a
    descending pair, a delete — and a sorted batch that rolls back on a
    malformed last op.  Returns the client."""
    rng = random.Random(seed)
    # Capacity for the spare sectors every leaf's repair remaps into.
    client = repro.connect(EngineConfig(page_size=4096, capacity_pages=16384,
                                        buffer_capacity=frames, seed=seed))
    db = client.db
    for start in range(0, n_kv, 500):
        client.apply_batch([("put", b"user%012d" % i, rng.randbytes(100))
                            for i in range(start, min(start + 500, n_kv))])
    db.checkpoint()
    shape = _DblpShape(rng)
    client.apply_batch([("put", *shape.paper()) for _ in range(n_dblp)])
    client.apply_batch(sorted(("put", *shape.paper()) for _ in range(n_dblp)))
    db.checkpoint()
    values = dict(client.scan())
    live = sorted(values)
    ghost = live[len(live) // 3]
    assert client.delete(ghost)
    del values[ghost]
    existing = live[len(live) // 2]
    news = sorted(b"user%012d/%03d" % (i, j)
                  for i in rng.sample(range(n_kv), 40) for j in range(3))
    ops = [("put", key, rng.randbytes(rng.choice((20, 100, 300))))
           for key in news]
    ops[3:3] = [("put", existing, b"rewritten")]
    ops[9:9] = [("put", ghost, b"revived")]
    ops[15:15] = [ops[14]]                       # a duplicate
    ops[20], ops[21] = ops[21], ops[20]          # a descending pair
    ops[30:30] = [("delete", live[len(live) // 4])]
    client.apply_batch(ops)
    for op in ops:
        if op[0] == "put":
            values[op[1]] = op[2]
        else:
            values.pop(op[1], None)
    with pytest.raises(repro.ConfigError):
        client.apply_batch(sorted(("put", *shape.paper()) for _ in range(60))
                           + [("frob",)])
    assert dict(client.scan()) == values
    return client


def write_back_under(db, index_id: int, seed: int) -> None:  # noqa: ANN001
    """Read far and wide until the loser's dirty pages have been
    written back as victims: the last write-back's PRI record is left in
    the volatile tail, so the crash that follows loses it."""
    rng = random.Random(seed)
    tree = db.tree(index_id)
    keys = [key for key, _ in tree.range_scan()]
    for key in rng.sample(keys, 200):
        tree.lookup(key)
    assert any(record.kind == LogRecordKind.PRI_UPDATE
               for record in records_from(db.log, db.log.durable_lsn))


#: name -> (stream, its arguments, what runs between the loser and the crash)
CASES = {
    "dblp": (dblp_stream, (26, 48, 1_200, 2_500), None),
    "dirty_victims": (dirty_victims_stream, (27, 16, 600, 1_500),
                      write_back_under),
    "sorted_load": (sorted_load_stream, (28, 16, 8_000, 600), None),
    "write_path": (write_stream, WRITE_CASES["stream"], None),
}


def tree_pages(db, index_id: int) -> list[int]:  # noqa: ANN001
    """Every page reachable from the tree's root (children, foster
    children), in page-id order."""
    found, stack = [], [db.catalog.get_root(index_id)]
    while stack:
        pid = stack.pop()
        found.append(pid)
        page = db.pool.fix(pid)
        try:
            node = BTreeNode(page)
            if node.has_foster:
                stack.append(node.foster_pid)
            if not node.is_leaf:
                stack.extend(node.child_pid(i) for i in range(node.nrecs))
        finally:
            db.pool.unfix(pid)
    return sorted(found)


def state(db, index_id: int) -> dict:  # noqa: ANN001
    """Digests of the key -> value map and of the tree's pages."""
    rows = list(db.tree(index_id).range_scan())
    db.flush_everything()
    pages = tree_pages(db, index_id)
    kv, images = hashlib.sha256(), hashlib.sha256()
    for key, value in rows:
        kv.update(len(key).to_bytes(2, "little") + key
                  + len(value).to_bytes(2, "little") + value)
    for pid in pages:
        image = bytearray(db.device.raw_image(pid))
        for start, end in _MASKED:
            image[start:end] = bytes(end - start)
        images.update(pid.to_bytes(8, "little") + image)
    return {"keys": len(rows), "kv_sha256": kv.hexdigest(),
            "pages": len(pages), "pages_sha256": images.hexdigest()}


def open_loser(db, index_id: int, seed: int) -> None:  # noqa: ANN001
    """A transaction that rewrites a few values in their middle (one of
    them grows) and is forced but never commits: restart rolls it back."""
    rng = random.Random(seed)
    tree = db.tree(index_id)
    rows = list(tree.range_scan())
    txn = db.begin()
    for n, (key, old) in enumerate(rng.sample(rows, 8)):
        mid = len(old) // 2
        new = old[:mid] + b"LOSER" + old[mid + 5:]
        if n == 0:
            new += b"+grown"
        db.update(tree, key, new, txn=txn)
    db.log.force()


def decoded_twin(db):  # noqa: ANN001, ANN201
    """A fresh engine over a copy of the crashed ``db``'s durable parts
    whose log holds ``LogRecord.decode(r.encode())`` of every record:
    what the log's bytes say, not the objects that were appended."""
    twin = copy.deepcopy(db)
    old = twin.durable.log
    log = LogManager(old.clock, old.profile, old.stats,
                     segment_bytes=twin.config.log_segment_bytes)
    for record in all_records(old):
        log.adopt(record.lsn, encode(LogRecord.decode(encode(record))))
    assert log.end_lsn == old.end_lsn == old.durable_lsn
    log.master_checkpoint_lsn = old.master_checkpoint_lsn
    twin.durable.log = log
    fresh = Database(twin.config, clock=twin.clock, stats=twin.stats,
                     injector=twin.injector, durable=twin.durable)
    fresh.tm.restore_txn_id_floor(twin.tm.next_txn_id - 1)
    return fresh


def _recover(db, lazy, index_id: int) -> dict:  # noqa: ANN001
    """Both restarts of one crash image (``lazy`` is a copy of the
    crashed ``db``), then every leaf of the eager one bit-rotted and
    repaired through the fetch path."""
    out = {}
    db.restart("eager")
    out["eager_restart"] = state(db, index_id)
    lazy.restart("on_demand")
    lazy.drain_pending()
    out["on_demand_restart"] = state(lazy, index_id)
    db.flush_everything()
    db.evict_everything()
    leaves = 0
    for pid in tree_pages(db, index_id):
        if db.device.raw_image(pid)[TYPE_OFFSET] == PageType.BTREE_LEAF:
            db.device.inject_bit_rot(pid)
            leaves += 1
    db.evict_everything()
    repairs = db.stats.get("single_page_recoveries")
    out["leaves_repaired"] = state(db, index_id)
    out["leaves_repaired"]["repairs"] = (
        db.stats.get("single_page_recoveries") - repairs)
    out["leaves_repaired"]["leaves"] = leaves
    return out


def _run(stream, args, before_crash,  # noqa: ANN001
         decoded: bool = False) -> dict:
    """The stream's digests; with ``decoded``, also what the same
    crash recovers to from a :func:`decoded_twin`, under
    ``"decoded"``."""
    client = stream(*args)
    db, index_id = client.db, client.index_id
    out = {"after_stream": state(db, index_id)}
    open_loser(db, index_id, args[0])
    if before_crash is not None:
        before_crash(db, index_id, args[0])
    db.crash()
    if decoded:
        twin = _recover(decoded_twin(db), decoded_twin(db), index_id)
    out.update(_recover(db, clone_crashed(db), index_id))
    if decoded:
        out["decoded"] = twin
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_logical_state_matches_golden(name: str) -> None:
    golden = json.loads(GOLDEN.read_text())[name]
    ours = _run(*CASES[name], decoded=True)
    # The log's bytes, decoded, recover exactly what its objects do.
    decoded = ours.pop("decoded")
    assert decoded == {phase: ours[phase] for phase in decoded}
    # The loser rolled back, both ways, and every leaf was repaired.
    for phase in ("eager_restart", "on_demand_restart", "leaves_repaired"):
        assert ours[phase]["kv_sha256"] == ours["after_stream"]["kv_sha256"]
    assert ours["on_demand_restart"] == ours["eager_restart"]
    repaired = ours["leaves_repaired"]
    assert repaired["repairs"] == repaired["leaves"] > 0
    assert ours == golden, f"'{name}' moved; see this module's docstring"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(
        {name: _run(*case) for name, case in sorted(CASES.items())},
        indent=2) + "\n")
    print(f"wrote {GOLDEN}")
