"""What the database *holds* pinned across commits, whatever the log says.

``test_golden_write_path.py`` pins the log's bytes; this pins the state
those bytes produce, so a change to the log format (record sizes, hence
LSNs) can prove it moved nothing else.  Two seeded streams:

* ``write_path`` — the write-path golden's stream, verbatim;
* ``dblp`` — bibliographic records of 120-470 bytes whose first 10
  bytes (the mdate) are rewritten, some rewrites also growing or
  shrinking the value in its middle, some inside a ``client.txn()`` that
  rolls back, beside inserts, deletes and checkpoints.

For each, the sha256 of the key -> value map and of every B-tree page
(device image, checksum and PageLSN fields masked: both follow from the
log's LSNs) is pinned at four points: after the stream; after a crash —
with a loser transaction's rewrites forced but not committed — and an
eager restart; after the same crash and an on-demand restart, drained;
and after bit rot on every leaf of the eager copy is repaired through
the fetch path.

A digest may change only when a change *means* to move what the
database holds; then regenerate in the same diff and say why in
CHANGES.md::

    PYTHONPATH=src python tests/test_golden_logical_state.py --regen
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import repro
from repro import EngineConfig
from repro.btree.node import BTreeNode
from repro.page.page import TYPE_OFFSET, PageType
from tests.conftest import clone_crashed
from tests.test_golden_write_path import CASES as WRITE_CASES
from tests.test_golden_write_path import write_stream

GOLDEN = Path(__file__).with_name("golden_logical_state.json")

#: the page-header bytes a digest masks: checksum, PageLSN
_MASKED = ((4, 8), (16, 24))


class _Abort(Exception):
    """Raised inside a ``client.txn()`` block to make it roll back."""


def dblp_stream(seed: int, frames: int, n_records: int, n_ops: int):  # noqa: ANN201
    """Rewrites of DBLP-shaped records; returns the client."""
    rng = random.Random(seed)
    client = repro.connect(EngineConfig(page_size=4096, capacity_pages=8192,
                                        buffer_capacity=frames, seed=seed))
    db = client.db
    text = b"abcdefghijklmnopqrstuvwxyz ,.;-ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    values: dict[bytes, bytes] = {}
    serial = 0

    def mdate() -> bytes:
        return b"20%02d-%02d-%02d" % (rng.randint(10, 25), rng.randint(1, 12),
                                      rng.randint(1, 28))

    def paper() -> tuple[bytes, bytes]:
        nonlocal serial
        serial += 1
        key = b"Author_%03d/%d/p%06d" % (rng.randrange(300),
                                         1995 + rng.randrange(30), serial)
        body = bytes(rng.choice(text) for _ in range(rng.randint(109, 459)))
        return key, mdate() + b"\x1f" + body

    def rewrite(old: bytes) -> bytes:
        """A new mdate; a third of the time the value also grows or
        shrinks by a few bytes in its middle, within 120..470."""
        roll = rng.random()
        at = rng.randint(11, len(old) - 1)
        if roll < 0.17 and len(old) <= 460:
            extra = bytes(rng.choice(text) for _ in range(rng.randint(1, 10)))
            return mdate() + old[10:at] + extra + old[at:]
        if roll < 0.34 and len(old) >= 130:
            return mdate() + old[10:at] + old[at + rng.randint(1, 10):]
        return mdate() + old[10:]

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


#: name -> (stream, its arguments)
CASES = {
    "dblp": (dblp_stream, (26, 48, 1_200, 2_500)),
    "write_path": (write_stream, WRITE_CASES["stream"]),
}


def tree_pages(db, index_id: int) -> list[int]:  # noqa: ANN001
    """Every page reachable from the tree's root (children, foster
    children), in page-id order."""
    found, stack = [], [db.get_root(index_id)]
    while stack:
        pid = stack.pop()
        found.append(pid)
        page = db.fix(pid)
        try:
            node = BTreeNode(page)
            if node.has_foster:
                stack.append(node.foster_pid)
            if not node.is_leaf:
                stack.extend(node.child_pid(i) for i in range(node.nrecs))
        finally:
            db.unfix(pid)
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


def _run(stream, args) -> dict:  # noqa: ANN001
    client = stream(*args)
    db, index_id = client.db, client.index_id
    out = {"after_stream": state(db, index_id)}
    open_loser(db, index_id, args[0])
    db.crash()
    lazy = clone_crashed(db)
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_logical_state_matches_golden(name: str) -> None:
    golden = json.loads(GOLDEN.read_text())[name]
    ours = _run(*CASES[name])
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
