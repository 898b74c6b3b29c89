"""What a point read sees of an open transaction's writes.

A point read (``Session.lookup``, the embedded ``get``) takes no key
lock today: it reads under the shared latch only, so it can return a
value whose writer has not committed.  The four-step history below is
Adya's G1a (aborted read): a committed transaction read, and wrote on,
a value that its writer then rolled back.  ROADMAP item 12 chooses each
surface's isolation level; the test asserts that this history cannot
happen, and is expected to fail until that choice forbids it.
"""

from __future__ import annotations

import pytest

from repro import Database
from tests.conftest import fast_config


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="point reads take no key lock: G1a is possible "
                   "(ROADMAP item 12)")
def test_no_committed_transaction_reads_an_aborted_write() -> None:
    db = Database(fast_config())
    tree = db.create_index()
    db.insert(tree, b"k", b"before")
    writer, reader = db.session(), db.session()
    # 1. The writer upserts k and stays open.
    writer.begin()
    writer.upsert(tree, b"k", b"dirty")
    # 2. The reader reads k; 3. writes what it read to j and commits.
    reader.begin()
    seen = reader.lookup(tree, b"k")
    reader.upsert(tree, b"j", seen)
    reader.commit()
    # 4. The writer aborts.
    writer.abort()
    assert tree.lookup(b"k") == b"before"
    assert tree.lookup(b"j") != b"dirty", (
        "G1a: a committed transaction wrote the value of an aborted one")
