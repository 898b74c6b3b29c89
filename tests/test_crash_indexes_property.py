"""Property: after a crash, the log's derived indexes are a function of
the bytes it kept.

The per-page chain-head index is how single-page recovery reaches a
failed page's log chain, and the full-backup index is how media
recovery finds a backup's log position.  Whatever a crash leaves of the
log, both must say what a fresh :class:`LogManager` says after adopting
exactly the surviving records — as must ``end_lsn`` and
``durable_lsn``.  Hypothesis draws sequences of chain records (UPDATE
and COMPENSATION extending a page's chain, a FORMAT_PAGE that reuses a
page) and full-page images (one with PageLSN 0) on a few pages, and
BACKUP_FULL records of a few backups (an id may be logged again),
interleaved with forces, truncations and crashes, over segments small
enough that every cut crosses segment boundaries.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimClock
from repro.sim.iomodel import NULL_PROFILE
from repro.sim.stats import Stats
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN
from repro.wal.ops import insert
from repro.wal.records import (LogRecordKind, backup_full, clr, encode_update,
                               format_page, full_page_image, txn_end)

PAGES = range(4)
BACKUPS = range(1, 4)

_steps = st.one_of(
    st.tuples(st.sampled_from(["update", "compensation", "format"]),
              st.sampled_from(PAGES)),
    st.tuples(st.just("image"), st.sampled_from(PAGES), st.booleans()),
    st.tuples(st.just("backup"), st.sampled_from(BACKUPS)),
    st.tuples(st.just("commit")),
    st.tuples(st.sampled_from(["force", "force_through", "truncate"]),
              st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("crash")),
)


def _make_log() -> LogManager:
    return LogManager(SimClock(), NULL_PROFILE, Stats(), segment_bytes=96)


def _record(step: tuple, log: LogManager, txn_id: int) -> bytes:
    kind = step[0]
    if kind == "backup":
        return backup_full(step[1])
    if kind == "commit":
        return txn_end(LogRecordKind.COMMIT, txn_id, NULL_LSN)
    page_id = step[1]
    head = log.page_chain_head(page_id)
    if kind == "image":
        return full_page_image(page_id, NULL_LSN if step[2] else head,
                               b"image%d" % page_id)
    if kind == "format":  # page reuse: a new incarnation's chain
        return format_page(txn_id, NULL_LSN, page_id, 0, insert(0, b"", b""))
    op = insert(0, b"k%d" % txn_id, b"v")
    if kind == "update":
        return encode_update(txn_id, NULL_LSN, page_id, head, 0, op, None,
                             False)
    return clr(txn_id, NULL_LSN, page_id, head, 0, op, NULL_LSN)


def _check_against_adopted(log: LogManager) -> None:
    """``log``'s indexes and bounds against a fresh log that adopted
    only the records ``log`` retains."""
    survivors = log.encodings_from(NULL_LSN)
    fresh = _make_log()
    for lsn, encoding in survivors:
        fresh.adopt(lsn, bytes(encoding))
    for page_id in PAGES:
        assert log.page_chain_head(page_id) == fresh.page_chain_head(page_id)
    for backup_id in BACKUPS:
        assert (log.backup_full_lsn(backup_id)
                == fresh.backup_full_lsn(backup_id))
    if survivors:
        assert log.end_lsn == fresh.end_lsn
        assert log.durable_lsn == fresh.durable_lsn
    else:  # nothing left to adopt: the log ends at its durable prefix
        assert log.end_lsn == max(log.durable_lsn, fresh.end_lsn)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_steps, max_size=60))
def test_crash_leaves_indexes_of_the_surviving_bytes(steps):
    log = _make_log()
    lsns: list[int] = []
    for txn_id, step in enumerate(steps, start=1):
        action = step[0]
        if action == "crash":
            log.crash()
            _check_against_adopted(log)
            lsns = [lsn for lsn in lsns if lsn < log.end_lsn]
        elif action == "force":
            log.force()
        elif action in ("force_through", "truncate"):
            if lsns:
                lsn = lsns[min(int(step[1] * len(lsns)), len(lsns) - 1)]
                if action == "truncate":
                    log.truncate(lsn)
                else:
                    log.force_through(lsn)
        else:
            lsns.append(log.append(_record(step, log, txn_id)))
    log.crash()
    _check_against_adopted(log)
