"""The write path's log bytes and counters pinned *across commits*.

One seeded stream of writes through ``repro.connect`` — autocommit
rewrites of live keys, inserts that split their leaf, ghost revivals,
deletes (of present and absent keys), ``client.txn()`` commits and
rollbacks, two interleaved transactions, ``apply_batch``,
``db.group_commit()`` blocks, checkpoints and write-backs that harden a
transaction's last record before it commits, and, last, one
``Session`` commit over the cross-thread
barrier with its deferred force — must leave the same log at every
commit: the sha256 of every record's encoding in LSN order (commit bits
included), the log's end and durable LSNs, the full
``Stats.snapshot()`` and the simulated clock.  ``records_sha256`` hashes
what every record *says* in LSN order, without its LSN-valued fields or
its compressed image (:func:`lsn_free`): a change to how records are
encoded moves the byte counts and the digest of the encodings, but
must reproduce this one.  A change to how a write
is logged, committed or forced that moves one byte, one force or one
count fails here before a client could see it.

A value may change only when the change *means* to move it; then
regenerate in the same diff and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_write_path.py --regen
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

import repro
from repro import EngineConfig
from repro.wal.records import BackupRefKind, LogRecordKind

GOLDEN = Path(__file__).with_name("golden_write_path.json")

#: name -> (seed, buffer frames, preloaded keys, ops)
CASES = {
    "stream": (25, 40, 1_500, 4_000),
}


class _Abort(Exception):
    """Raised inside a ``client.txn()`` block to make it roll back."""


def _key(i: int) -> bytes:
    return b"user%07d" % i


def write_stream(seed: int, frames: int, preload: int, n_ops: int):  # noqa: ANN201
    """The seeded stream; returns its client, every transaction finished.
    ``tests/test_golden_logical_state.py`` pins what it leaves behind."""
    rng = random.Random(seed)
    client = repro.connect(EngineConfig(page_size=2048, capacity_pages=4096,
                                        buffer_capacity=frames, seed=seed))
    db = client.db
    universe = preload * 2  # half the keys start absent: puts insert and split

    def value() -> bytes:
        return bytes([65 + rng.randrange(26)]) * rng.choice((24, 60, 60, 140))

    def key() -> bytes:
        return _key(rng.randrange(universe))

    client.apply_batch([("put", _key(2 * i), value()) for i in range(preload)])
    db.checkpoint()
    for step in range(n_ops):
        roll = rng.random()
        if roll < 0.40:
            client.put(key(), value())      # rewrite, insert or revive
        elif roll < 0.55:
            client.delete(key())            # ghost, or an empty commit
        elif roll < 0.70:
            try:
                with client.txn() as txn:
                    for _ in range(rng.randrange(1, 4)):
                        txn.put(key(), value())
                    if rng.random() < 0.3:
                        txn.delete(key())
                    if rng.random() < 0.25:
                        raise _Abort    # rollback: compensation records
            except _Abort:
                pass
        elif roll < 0.80:
            client.apply_batch([("put", key(), value()) if rng.random() < 0.8
                                else ("delete", key())
                                for _ in range(rng.randrange(2, 12))])
        elif roll < 0.86:
            with db.group_commit():         # bits set, one force at the end
                for _ in range(rng.randrange(2, 6)):
                    client.put(key(), value())
        elif roll < 0.88:
            # A transaction whose last record hardens before it commits.
            with client.txn() as txn:
                txn.put(key(), value())
                if rng.random() < 0.5:
                    db.checkpoint()
                else:
                    db.log.force()
        elif roll < 0.90:
            # Two open transactions: the inner one's record lands after
            # the outer one's last, and commits first — inside a
            # group_commit block the outer's last record is then still
            # volatile but no longer the log's tail.
            i = rng.randrange(universe - 1)
            with db.group_commit() if rng.random() < 0.5 else nullcontext():
                with client.txn() as outer:
                    outer.put(_key(i), value())
                    with client.txn() as inner:
                        inner.put(_key(i + 1), value())
        else:
            client.get(key())
        if step % 400 == 399:
            db.checkpoint()
    # Last, because it turns the cross-thread barrier on for good: one
    # Session commit (bit under the latch, force deferred to the
    # barrier), then autocommit puts that now force through it.
    session = db.session()
    session.begin()
    session.upsert(db.tree(client.index_id), key(), value())
    session.commit()
    for _ in range(20):
        client.put(key(), value())
    return client


#: backup references whose value is an LSN, not a location or an id
_LSN_REFS = (BackupRefKind.LOG_IMAGE, BackupRefKind.FORMAT_RECORD)


def lsn_free(record) -> bytes:  # noqa: ANN001
    """What ``record`` says besides LSNs: kind, commit bit, txn, page,
    index, the op and undo with all their fields, the pages of a PRI
    update, backup and 2PC ids.  Left out: prev_lsn, page_prev_lsn,
    undo_next_lsn, page_lsn, PRI entry LSNs, checkpoint tables, LSN-valued
    backup references and compressed images."""
    ref = record.backup_ref
    return repr((
        int(record.kind), record.commits, record.txn_id, record.page_id,
        record.index_id, record.op, record.undo,
        [page_id for page_id, _page_lsn in record.writes],
        record.backup_id, record.gtid,
        ref and (int(ref.kind), None if ref.kind in _LSN_REFS else ref.value),
    )).encode()


def _run(seed: int, frames: int, preload: int, n_ops: int) -> dict:
    db = write_stream(seed, frames, preload, n_ops).db
    records = db.log.all_records()
    digest, content = hashlib.sha256(), hashlib.sha256()
    for record in records:
        digest.update(record.lsn.to_bytes(8, "little"))
        digest.update(record.encode())
        content.update(lsn_free(record))
    return {
        "log_records": len(records),
        "commit_bits": sum(r.commits for r in records),
        "commit_records": sum(r.kind in (LogRecordKind.COMMIT,
                                         LogRecordKind.SYS_COMMIT)
                              for r in records),
        "log_sha256": digest.hexdigest(),
        "records_sha256": content.hexdigest(),
        "end_lsn": db.log.end_lsn, "durable_lsn": db.log.durable_lsn,
        "clock_now": db.clock.now,
        "stats": dict(sorted(db.stats.snapshot().items())),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_path_matches_golden(name: str) -> None:
    golden = json.loads(GOLDEN.read_text())[name]
    ours = _run(*CASES[name])
    moved = {counter: (golden["stats"].get(counter), ours["stats"].get(counter))
             for counter in sorted(set(golden["stats"]) | set(ours["stats"]))
             if golden["stats"].get(counter) != ours["stats"].get(counter)}
    assert not moved, f"'{name}' counters moved (golden, ours): {moved}"
    assert ours == golden, f"'{name}' moved; see this module's docstring"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(
        {name: _run(*case) for name, case in sorted(CASES.items())},
        indent=2) + "\n")
    print(f"wrote {GOLDEN}")
