"""Extension — a sorted load logs one UPDATE per leaf run, not per row.

The paper prices the page recovery index at "the same number of log
records as today's efficient implementations", and an efficient
implementation logs a bulk insertion once per page (Graefe, "A survey
of B-tree logging and recovery techniques", TODS 2012).  A batch put
of a new key, with the sorted new keys after it that land in the same
leaf, is written as one *leaf run*: one UPDATE carrying a bulk insert
(``repro.wal.ops.bulk_insert``) of the rows and one undo naming every
key (``FosterBTree.apply_batch``).

The load is the key-value workloads' own: 8 000 keys of 16 bytes with
100-byte values, in ascending order, in 500-put batches through
``Client.apply_batch``.  Beside it, the same rows written one key at a
time (``upsert`` in transactions of 500) — the per-key path every batch
took before runs.  Asserted: at most 1 100 user UPDATEs, 4 100 log
records and 2.4 MB of log for the batched load (the per-key path logs
8 000 user UPDATEs and about 11 000 records), and the two leave every
tree page byte for byte the same, checksum and PageLSN masked (both
follow from LSNs).

The load's splits and prefix extensions log each row they move once:
the split's foster child receives the moved half in one
bulk insert, the source page's bulk delete names only the slot
range, and a prefix extension is one extend-prefix op naming the
range and the stripped bytes.  While the removal logged its rows again
and an extension logged every row of the node twice, the batched load
logged 10 099 records and 5.30 MB; then 9 597 and 2.48 MB.

And a structure change logs one record per page it changes, as the
survey describes efficient implementations logging a structural
change: the page's ops in one sequence (``repro.wal.ops.sequence``).  A split logs its
allocation, the foster child's format, the foster child's UPDATE and
the source page's — 4 records where it logged 9 — and an adoption one
UPDATE of the parent and one of the child, where it logged 5 to 8.
The batched load logged 9 597 records and 2.48 MB while each op was a
record; it now logs 4 049 and 2.35 MB.
"""

from __future__ import annotations

import hashlib
import random

import repro
from benchmarks.common import print_table
from repro.btree.node import BTreeNode
from repro.engine.config import EngineConfig
from repro.sim.iomodel import NULL_PROFILE
from repro.wal.records import LogRecordKind
from tests.record_reference import all_records

N_KEYS, BATCH = 8_000, 500
#: page-header bytes that follow from LSNs: checksum, PageLSN
_MASKED = ((4, 8), (16, 24))


def _records() -> list[tuple[bytes, bytes]]:
    rng = random.Random("sorted-load")
    return [(b"user%012d" % i, rng.randbytes(100)) for i in range(N_KEYS)]


def _tree_pages_sha256(db, index_id: int) -> str:  # noqa: ANN001
    """sha256 of every tree page's masked device image, in page order."""
    db.flush_everything()
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
    digest = hashlib.sha256()
    for pid in sorted(found):
        image = bytearray(db.device.raw_image(pid))
        for start, end in _MASKED:
            image[start:end] = bytes(end - start)
        digest.update(pid.to_bytes(8, "little") + image)
    return digest.hexdigest()


def load(batched: bool) -> dict:
    client = repro.connect(EngineConfig(
        page_size=4096, capacity_pages=16384, buffer_capacity=4096,
        device_profile=NULL_PROFILE, log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE))
    db = client.db
    tree = db.tree(client.index_id)
    start = len(all_records(db.log))
    records = _records()
    for at in range(0, N_KEYS, BATCH):
        rows = records[at:at + BATCH]
        if batched:
            client.apply_batch([("put", key, value) for key, value in rows])
            continue
        txn = db.begin()
        for key, value in rows:
            db.locks.acquire(txn.txn_id, key)
            tree.upsert(txn, key, value)
        db.commit(txn)
    logged = all_records(db.log)[start:]
    return {"path": "leaf runs" if batched else "per key",
            "records": len(logged),
            "user_updates": sum(r.kind == LogRecordKind.UPDATE
                                and r.undo is not None for r in logged),
            "log_bytes": sum(len(db.log.encoding_at(r.lsn)) for r in logged),
            "pages_sha256": _tree_pages_sha256(db, client.index_id)}


def test_ext_sorted_load(benchmark):
    runs = benchmark.pedantic(lambda: load(True), rounds=1, iterations=1)
    per_key = load(False)

    assert runs["user_updates"] <= 1_100
    assert runs["records"] <= 4_100
    assert runs["log_bytes"] <= 2_400_000
    assert per_key["user_updates"] == N_KEYS
    assert runs["pages_sha256"] == per_key["pages_sha256"]

    print_table(
        "Extension: a sorted 8 000-key load, leaf runs vs per-key UPDATEs",
        ["path", "log records", "user UPDATEs", "log bytes", "pages sha256"],
        [[r["path"], r["records"], r["user_updates"], r["log_bytes"],
          r["pages_sha256"][:16]] for r in (runs, per_key)])
