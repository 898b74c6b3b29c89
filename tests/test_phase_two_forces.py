"""A cross-shard commit's log writes, pinned per shard.

One seeded stream of router transactions — most of them span both
shards of a 2-shard ``inproc`` fleet and commit in two phases, some
touch one shard or roll back — with autocommit puts and gets between
them.  For each shard the test pins:

* ``records_sha256`` — the LSN-free content of every log record, in
  LSN order (:func:`tests.test_golden_write_path.lsn_free`);
* ``state_sha256`` — the key -> value map the shard serves;
* ``log_forces`` — the shard log's synchronous forces, as they were
  while phase two forced its COMMIT;
* ``phase_two_commits`` — the prepared branches it committed.

Phase two appends its COMMIT unforced, as the coordinator's forced
decision covers it: the content and the map reproduce, and each shard
forces its log exactly once less per phase-two commit.

    PYTHONPATH=src:. python tests/test_phase_two_forces.py --print
"""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

import repro
from repro import ShardConfig
from tests.test_golden_write_path import lsn_free
from tests.record_reference import all_records

SEED = 52
N_OPS = 240
N_KEYS = 48

#: shard -> what the stream leaves on it
PINNED = {
    0: {"records_sha256": "190ea4dba4e245052f75883cc8928df5"
                          "af2d02665ca00f641568e0b8f37ce34f",
        "state_sha256": "6ee7d259589fa70229d3eb402f30860b"
                        "d70490aae27b787053f90eb7423c7b91",
        "log_forces": 300, "phase_two_commits": 129},
    1: {"records_sha256": "2434b4623b98720168ad6ca8f3896aa9"
                          "8116d2ced6d220cd77cceab57213437f",
        "state_sha256": "5b8884b5439ac7e1727b448338990ff6"
                        "9160344418f4a1996b49883d7a86153e",
        "log_forces": 290, "phase_two_commits": 129},
}


class _Rollback(Exception):
    """Raised inside a ``client.txn()`` block to make it roll back."""


def _run_stream(seed: int = SEED) -> dict:
    rnd = random.Random(seed)
    keys = [b"p2%04d" % i for i in range(N_KEYS)]
    client = repro.connect(ShardConfig(n_shards=2, transport="inproc"))
    router = client.router
    by_shard = {idx: [key for key in keys if router.shard_of(key) == idx]
                for idx in (0, 1)}

    def value() -> bytes:
        return b"v%06d|" % rnd.randrange(10**6) + b"y" * rnd.randrange(40)

    try:
        for _ in range(N_OPS):
            roll = rnd.random()
            if roll < 0.15:
                client.put(rnd.choice(keys), value())
                continue
            if roll < 0.25:
                client.get(rnd.choice(keys))
                continue
            shards = (0, 1) if roll < 0.85 else (rnd.randrange(2),)
            try:
                with client.txn() as txn:
                    for idx in shards:
                        for key in rnd.sample(by_shard[idx],
                                              rnd.randrange(1, 3)):
                            if rnd.random() < 0.85:
                                txn.put(key, value())
                            else:
                                txn.delete(key)
                    if rnd.random() < 0.08:
                        raise _Rollback
            except _Rollback:
                pass
        pins = {}
        for idx, shard in enumerate(router.shards):
            db = shard.worker.db
            records = hashlib.sha256()
            for record in all_records(db.log):
                records.update(lsn_free(record))
            state = repr(router._call(idx, "scan", b"", None))
            counters = db.stats.snapshot()
            pins[idx] = {
                "records_sha256": records.hexdigest(),
                "state_sha256": hashlib.sha256(state.encode()).hexdigest(),
                "log_forces": counters["log_forces"],
                "phase_two_commits": counters["prepared_txns_committed"],
            }
        return pins
    finally:
        client.close()


@pytest.fixture(scope="module")
def pins() -> dict:
    return _run_stream()


@pytest.mark.parametrize("idx", [0, 1])
def test_phase_two_reproduces_content_and_state(pins, idx) -> None:
    pinned = PINNED[idx]
    assert pins[idx]["records_sha256"] == pinned["records_sha256"]
    assert pins[idx]["state_sha256"] == pinned["state_sha256"]
    assert pins[idx]["phase_two_commits"] == pinned["phase_two_commits"]
    assert pinned["phase_two_commits"] > 0


@pytest.mark.parametrize("idx", [0, 1])
def test_phase_two_forces_nothing(pins, idx) -> None:
    pinned = PINNED[idx]
    assert (pins[idx]["log_forces"]
            == pinned["log_forces"] - pinned["phase_two_commits"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--print"]:
        sys.exit(__doc__)
    for idx, pin in _run_stream().items():
        print(idx, pin)
