"""Buffer and descent bookkeeping pinned *across commits*.

The chaos digests (``test_golden_chaos_traces.py``) pin what a client
can observe; this pins what it cannot: for two seeded op streams through
``repro.connect`` the full ``Stats.snapshot()``, the simulated clock, the
log's end LSN and the sha256 of the flushed device must be the same at
every commit.  A change to the fix path that pins one page more or less,
re-fixes a page it already holds, lets the clock pick another victim or
verifies a hop fewer moves ``buffer_hits``, ``buffer_misses``,
``btree_hops_verified``, ``pages_evicted`` or ``pages_written_back``
here before it moves anything a client sees.

* ``resident`` — the pool is larger than the tree: every fix is a hit.
* ``evicting`` — a 48-frame pool under a tree several times that size,
  with scans, deletes, splits and checkpoints: most leaf hops miss,
  evict, and some write back.

Both forge a resident leaf's fence now and then, so the counters of the
hop that fails and is repaired are pinned too.

A count may change only when the change *means* to move it; then
regenerate in the same diff and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_hit_path_counters.py --regen
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

GOLDEN = Path(__file__).with_name("golden_hit_path_counters.json")

#: name -> (seed, buffer frames, preloaded keys, ops)
CASES = {
    "resident": (20, 1024, 2_000, 4_000),
    "evicting": (21, 48, 3_000, 4_000),
}


class _Abort(Exception):
    """Raised inside a ``client.txn()`` block to make it roll back."""


def _key(i: int) -> bytes:
    return b"user%07d" % i


def _run(seed: int, frames: int, preload: int, n_ops: int) -> dict:
    rng = random.Random(seed)
    client = repro.connect(EngineConfig(page_size=2048, capacity_pages=4096,
                                        buffer_capacity=frames, seed=seed))
    db = client.db
    universe = preload * 2  # half the keys start absent: puts insert and split

    def value() -> bytes:
        return bytes([65 + rng.randrange(26)]) * rng.choice((24, 60, 60, 140))

    client.apply_batch([("put", _key(2 * i), value()) for i in range(preload)])
    db.checkpoint()
    tree = db.tree(client.index_id)
    for step in range(n_ops):
        key = _key(rng.randrange(universe))
        roll = rng.random()
        if step % 1000 == 700:
            # A resident leaf whose fences stop matching its parent's
            # keys: the op below detects it on the hop and repairs it.
            page, _node, _pid = tree._descend(key, for_write=False)
            page.view.low_fence = b"forged"
            db.pool.unfix(page.page_id)
        if roll < 0.45:
            client.get(key)
        elif roll < 0.75:
            client.put(key, value())
        elif roll < 0.82:
            client.delete(key)
        elif roll < 0.88:
            client.scan(key, _key(int(key[4:]) + 60))
        else:
            other = _key(rng.randrange(universe))
            try:
                with client.txn() as txn:
                    txn.get(key)
                    txn.put(key, value())
                    txn.put(other, value())
                    if rng.random() < 0.3:
                        raise _Abort  # rollback: compensating descents
            except _Abort:
                pass
        if step % 500 == 499:
            db.checkpoint()
    db.flush_everything()
    device = hashlib.sha256()
    for page_id in range(db.allocated_pages()):
        device.update(bytes(db.device.raw_image(page_id) or b""))
    return {"stats": dict(sorted(db.stats.snapshot().items())),
            "clock_now": db.clock.now, "log_end_lsn": db.log.end_lsn,
            "device_sha256": device.hexdigest()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_counters_match_golden(name: str) -> None:
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
