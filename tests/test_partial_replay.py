"""A replay that fails inside a record never hands on its page.

A structure change logs one record per page it changes, that page's
ops in one sequence (``repro.wal.ops.sequence``), and redo applies the members in order: a
member the kernel refuses leaves the members before it applied.  Here
the second member of a split's record of its source page has its kind
byte overwritten — the row-free removal before it applies, then the
kernel refuses (``repro.errors.LogError``).  Whoever replays the record
drops the page: the demand fix of an on-demand restart, its drain,
single-page repair and the hot standby each fail typed or escalate, and
no partly applied page reaches the buffer pool, the device or a copy
the standby serves.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.single_page import replay_records
from repro.errors import (LogError, MediaFailure, ReplicationError,
                          SystemFailure)
from repro.page.page import Page
from repro.wal.ops import BULK_DELETE, SEQUENCE, bulk_delete, redo
from repro.wal.records import LogRecordKind, op_span, read_header
from tests.conftest import fast_config

#: a kind byte no op has
_NO_KIND = 250


def _split(db: Database, tree) -> tuple[int, int]:  # noqa: ANN001
    """Insert, one transaction, until a leaf splits; returns the LSN of
    the split's record of its source page and that page's id."""
    start = db.log.end_lsn
    txn = db.begin()
    for i in range(1, 400, 2):
        db.insert(tree, b"key%05d" % i, b"x" * 48, txn=txn)
        for lsn, encoding in db.log.encodings_from(start):
            kind, _commits, _txn, page_id, _prev = read_header(encoding)
            if kind != LogRecordKind.UPDATE:
                continue
            begin, _end, _rows = op_span(encoding, kind)
            if (encoding[begin] == SEQUENCE
                    and encoding[begin + 3] == BULK_DELETE):
                db.commit(txn)
                return lsn, page_id
    raise AssertionError("no leaf split")


def _loaded() -> tuple[Database, object]:
    db = Database(fast_config())
    tree = db.create_index()
    for i in range(0, 400, 2):
        db.insert(tree, b"key%05d" % i, b"v" * 48)
    db.checkpoint()
    db.flush_everything()
    return db, tree


def _second_member(db: Database, lsn: int) -> tuple[bytearray, int]:
    """The log segment's bytes and the offset in them of the kind byte
    of the second member of the sequence the record at ``lsn``
    carries."""
    encoding = db.log.encoding_at(lsn)
    begin, _end, _rows = op_span(encoding, LogRecordKind.UPDATE)
    second = begin + 3 + len(bulk_delete(0, 1))
    (segment,) = [s for s in db.log._dir._segments
                  if s.base_lsn <= lsn < s.end_lsn]
    return segment.data, lsn - segment.base_lsn + second


def _break_second_member(db: Database, lsn: int) -> None:
    """Overwrite that kind byte, in the log's own bytes."""
    data, at = _second_member(db, lsn)
    _mended[db, lsn] = data[at]
    data[at] = _NO_KIND


def _mend_second_member(db: Database, lsn: int) -> None:
    data, at = _second_member(db, lsn)
    data[at] = _mended.pop((db, lsn))


_mended: dict = {}


def _source_image(db: Database, lsn: int, page_id: int) -> Page:
    """The split's source page as it stood just before the split: its
    image on the device, brought up to the record before the split's."""
    page = Page(db.config.page_size, db.device.raw_image(page_id))
    prev = read_header(db.log.encoding_at(lsn))[4]
    replay_records(page, db.log_reader.walk_page_chain(prev, page.page_lsn,
                                                       page_id))
    assert page.page_lsn == prev
    return page


def test_the_broken_record_applies_its_first_member_before_it_is_refused():
    """What every caller below guards against: the kernel refuses the
    second member after the first has changed the page."""
    db, tree = _loaded()
    lsn, page_id = _split(db, tree)
    _break_second_member(db, lsn)
    encoding = db.log.encoding_at(lsn)
    begin, end, _rows = op_span(encoding, LogRecordKind.UPDATE)
    page = _source_image(db, lsn, page_id)
    before = bytes(page.data)
    with pytest.raises(LogError, match=f"unknown page-op kind {_NO_KIND}"):
        redo(page, encoding, begin, end)
    assert bytes(page.data) != before


def _crashed_after_split(broken: bool = True) -> tuple[Database, int, int]:
    """A split hardened and its source page never written back, then a
    crash and an on-demand restart: the page is pending, its chain
    through the split's record (``broken``: the broken record)."""
    db, tree = _loaded()
    lsn, page_id = _split(db, tree)
    if broken:
        _break_second_member(db, lsn)
    db.crash()
    db.restart("on_demand")
    assert page_id in db.pending_recovery.pending_pages
    return db, lsn, page_id


def test_a_demand_fix_over_the_broken_record_fails_typed_and_installs_nothing():
    db, _lsn, page_id = _crashed_after_split()
    for _attempt in range(2):
        with pytest.raises(LogError):
            db.pool.fix(page_id)
        assert page_id not in db.pool.resident_pages()
        assert page_id in db.pending_recovery.pending_pages


def test_a_demand_fix_falls_back_from_the_source_image(monkeypatch):
    """A demand fix replays the page's chain, and where that fails it
    replays the records analysis listed for the page.  Here only the
    chain walk hands back the broken record — the log is intact — so the
    fallback succeeds, and it must start from the page's image, not
    from the page the failed replay left with the record half applied:
    it installs the page an undisturbed restart installs."""
    db, lsn, page_id = _crashed_after_split(broken=False)
    walk = db.log_reader.walk_page_chain

    def walk_to_broken_bytes(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
        chain = walk(*args, **kwargs)
        assert lsn in dict(chain)
        _break_second_member(db, lsn)
        try:
            return [(at, db.log.encoding_at(at)) for at, _bytes in chain]
        finally:
            _mend_second_member(db, lsn)

    monkeypatch.setattr(db.log_reader, "walk_page_chain",
                        walk_to_broken_bytes)
    fallbacks = db.stats.get("chain_forward_fallbacks")
    page = db.pool.fix(page_id)
    try:
        fixed = bytes(page.data)
    finally:
        db.pool.unfix(page_id)
    assert db.stats.get("chain_forward_fallbacks") == fallbacks + 1
    undisturbed, _lsn, _page_id = _crashed_after_split(broken=False)
    page = undisturbed.pool.fix(page_id)
    try:
        assert fixed == bytes(page.data)
    finally:
        undisturbed.pool.unfix(page_id)


def test_a_drain_over_the_broken_record_fails_typed_and_delivers_nothing():
    db, _lsn, page_id = _crashed_after_split()
    image = db.device.raw_image(page_id)
    with pytest.raises(LogError):
        db.drain_pending()
    assert page_id in db.pending_recovery.pending_pages
    assert page_id not in db.pool.resident_pages()
    assert db.device.raw_image(page_id) == image


def test_a_repair_over_the_broken_record_escalates():
    db, tree = _loaded()
    db.take_full_backup()
    lsn, page_id = _split(db, tree)
    db.flush_everything()
    db.evict_everything()
    _break_second_member(db, lsn)
    db.device.inject_bit_rot(page_id)
    failures = db.stats.get("spf_recovery_failures")
    with pytest.raises((MediaFailure, SystemFailure),
                       match="single-page recovery failed"):
        db.pool.fix(page_id)
    assert db.stats.get("spf_recovery_failures") == failures + 1
    assert page_id not in db.pool.resident_pages()


def test_a_standby_that_meets_the_broken_record_stops_and_serves_nothing():
    db, tree = _loaded()
    standby = db.attach_standby()
    db.log.force()
    shipper = db.log.shipper
    shipper.sever()
    lsn, page_id = _split(db, tree)
    _break_second_member(db, lsn)
    with pytest.raises(ReplicationError, match="diverged"):
        shipper.restore()
    assert not standby.running
    assert standby.serve_page(page_id, 0) is None
    with pytest.raises(ReplicationError, match="down"):
        standby.promote()
