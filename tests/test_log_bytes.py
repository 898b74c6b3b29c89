"""The log holds bytes, and every reader decodes them: hostile bytes in
a segment fail typed.

The log keeps each record's encoding and nothing else, so every reader
of a record's bytes is a boundary inside the engine: a byte flipped in
a segment, a record's length field cut short or the segment's tail cut
off must surface from the readers of every field, ``scan_from`` and a
repair's chain walk as a :class:`repro.errors.LogError` (a chain walk
that reads a record of another page, or one whose pointer does not
decrease, is a :class:`repro.errors.RecoveryError`, as before), never
as ``struct.error`` or ``IndexError``.  A repair that meets such bytes
cannot complete and escalates (Figure 8).  A record is read with
:func:`tests.record_reference.record_at`: the engine's readers of every
field must refuse what the reference decoder refuses, and read what it
reads.
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.errors import LogError, MediaFailure, RecoveryError, SystemFailure
from repro.wal.lsn import NULL_LSN
from repro.wal.records import (CHAIN_KINDS, NARROW_HEADER_SIZE,
                               WIDE_HEADER_SIZE, LogRecordKind,
                               checkpoint_end)
from tests.conftest import fast_config
from tests.record_reference import record_at


def _db() -> tuple[Database, object, dict[bytes, bytes]]:
    """A database whose log holds every record shape a workload writes:
    autocommit puts and deletes, listed rewrites, inserts, a rollback,
    splits, write-backs and a checkpoint."""
    rng = random.Random(45)
    db = Database(fast_config())
    tree = db.create_index()
    model: dict[bytes, bytes] = {}
    for i in range(120):
        key, value = b"key%04d" % i, rng.randbytes(rng.randint(10, 60))
        db.insert(tree, key, value)
        model[key] = value
    db.checkpoint()
    for _ in range(3):
        txn = db.begin()
        for key in rng.sample(sorted(model), 4):
            model[key] = rng.randbytes(len(model[key]))
            db.update(tree, key, model[key], txn=txn)
        db.commit(txn)
    loser = db.begin()
    db.update(tree, b"key0003", b"rolled back", txn=loser)
    db.abort(loser)
    db.delete(tree, b"key0007")
    del model[b"key0007"]
    db.flush_everything()
    db.log.force()
    return db, tree, model


def _segments(db: Database) -> list:
    return db.log._dir._segments


def _lsns(db: Database) -> list[int]:
    return [lsn for segment in _segments(db) for lsn in segment.starts]


def _chains(db: Database) -> dict[int, int]:
    """page id -> the LSN its chain starts at."""
    return dict(db.log._chain_heads)


def _read_everything(db: Database, lsns: list[int],
                     chains: dict[int, int]) -> list[Exception]:
    """Every reader over the whole log; returns what they raised, and
    fails on anything that is not typed."""
    raised: list[Exception] = []

    def attempt(read, typed) -> None:  # noqa: ANN001
        try:
            read()
        except typed as exc:
            raised.append(exc)

    for lsn in lsns:
        attempt(lambda lsn=lsn: record_at(db.log, lsn), LogError)

    def scan() -> None:
        for lsn, *_header in db.log_reader.scan_from(lsns[0]):
            record_at(db.log, lsn)

    attempt(scan, LogError)
    for page_id, head in chains.items():
        attempt(lambda page_id=page_id, head=head:
                db.log_reader.walk_page_chain(head, NULL_LSN, page_id),
                (LogError, RecoveryError))
    return raised


def test_an_intact_log_decodes_everywhere():
    db, _tree, _model = _db()
    lsns, chains = _lsns(db), _chains(db)
    assert len(lsns) > 100 and len(chains) > 2
    assert _read_everything(db, lsns, chains) == []
    scanned = db.log_reader.scan_from(lsns[0])
    assert [entry[0] for entry in scanned] == lsns
    for lsn, kind, commits, txn_id, page_id in scanned:
        record = record_at(db.log, lsn)
        assert (kind, commits, txn_id, page_id) == (
            record.kind, record.commits_txn, record.txn_id, record.page_id)


def test_every_flipped_byte_fails_typed_or_decodes():
    """Flip each byte of the log in turn (a sample of bit patterns):
    every reader either decodes something or raises a typed error."""
    db, _tree, _model = _db()
    lsns, chains = _lsns(db), _chains(db)
    rng = random.Random(7)
    refused = 0
    for segment in _segments(db):
        data = segment.data
        for pos in range(len(data)):
            if rng.random() > 0.04:
                continue
            original = data[pos]
            data[pos] = original ^ (1 << rng.randrange(8))
            try:
                refused += bool(_read_everything(db, lsns, chains))
            finally:
                data[pos] = original
    assert refused > 20
    assert _read_everything(db, lsns, chains) == []


@pytest.mark.parametrize("cut", [1, 2, 5])
def test_a_length_field_cut_short_is_a_log_error_everywhere(cut: int):
    """Each record's length field made ``cut`` bytes shorter: its
    ``record_at``, the scan over it and the chain walk through it all
    raise :class:`LogError`."""
    db, _tree, _model = _db()
    lsns = _lsns(db)
    rng = random.Random(cut)
    for lsn in rng.sample(lsns, 40):
        record = record_at(db.log, lsn)
        segment = next(s for s in _segments(db)
                       if s.base_lsn <= lsn < s.end_lsn)
        data, at = segment.data, lsn - segment.base_lsn + 1
        width = 4 if data[at - 1] & 0x40 else 2
        original = bytes(data[at:at + width])
        total = int.from_bytes(original, "little")
        data[at:at + width] = (total - cut).to_bytes(width, "little")
        try:
            with pytest.raises(LogError):
                record_at(db.log, lsn)
            with pytest.raises(LogError):
                db.log_reader.scan_from(lsns[0])
            if record.kind in CHAIN_KINDS and record.page_id >= 0:
                with pytest.raises(LogError):
                    db.log_reader.walk_page_chain(lsn, NULL_LSN,
                                                  record.page_id)
        finally:
            data[at:at + width] = original
    assert _read_everything(db, lsns, _chains(db)) == []


def test_a_segment_cut_short_is_a_log_error():
    """The newest segment loses its last bytes: the record they held,
    a scan over it and a chain walk through it raise :class:`LogError`;
    every record before it still decodes."""
    db, _tree, _model = _db()
    lsns = _lsns(db)
    segment = _segments(db)[-1]
    last = segment.starts[-1]
    for lsn in reversed(segment.starts):
        if record_at(db.log, lsn).kind == LogRecordKind.UPDATE:
            break
    record = record_at(db.log, lsn)
    cut = segment.end_lsn - lsn - 3  # inside the UPDATE's own bytes
    del segment.data[len(segment.data) - cut:]
    with pytest.raises(LogError):
        record_at(db.log, lsn)
    with pytest.raises(LogError):
        db.log_reader.scan_from(lsns[0])
    with pytest.raises(LogError):
        db.log_reader.walk_page_chain(lsn, NULL_LSN, record.page_id)
    for earlier in lsns[:lsns.index(lsn)]:
        record_at(db.log, earlier)
    if last != lsn:
        with pytest.raises(LogError):
            record_at(db.log, last)


def _checkpoints_of_both_forms() -> tuple[Database, list[int]]:
    """The LSNs of two CHECKPOINT_END records in one engine's log, each
    with a dirty page and an active transaction: a narrow one, then a
    wide one, whose transaction's id needs i64."""
    db, tree, _model = _db()
    lsns = []
    for floor in (0, 2**32):
        if floor:
            db.tm.restore_txn_id_floor(floor)
        # Dirtied after the master, the page stays dirty in the table.
        db.flush_everything()
        txn = db.begin()
        db.update(tree, b"key%04d" % (10 + len(lsns)), b"open", txn=txn)
        lsns.append(db.checkpoint())
        db.abort(txn)
    return db, lsns


@pytest.mark.parametrize("form", ["narrow", "wide"])
def test_a_checkpoints_tables_fail_typed_or_decode_as_built(form: str):
    """Flip each bit of each byte of a checkpoint record in turn: the
    decoder raises :class:`LogError` — always for the tables' length
    and counts — or reads tables whose builder writes exactly the
    flipped bytes back; cut short, the tables are a :class:`LogError`."""
    db, lsns = _checkpoints_of_both_forms()
    data, start, end = db.log._dir.locate(lsns[form == "wide"])
    intact = record_at(db.log, lsns[form == "wide"]).checkpoint
    assert intact.dirty_pages and intact.active_txns and intact.pri_images
    assert bool(data[start] & 0x40) is (form == "wide")
    tables = start + (WIDE_HEADER_SIZE if form == "wide"
                      else NARROW_HEADER_SIZE) + 4
    refused = set()
    for pos in range(start, end):
        original = data[pos]
        for bit in range(8):
            data[pos] = original ^ (1 << bit)
            try:
                record = record_at(db.log, lsns[form == "wide"])
            except LogError:
                refused.add((pos, bit))
            else:
                if pos >= tables:
                    assert checkpoint_end(record.checkpoint) == bytes(
                        data[start:end])
            finally:
                data[pos] = original
    # The tables' length and their three counts admit no other value.
    assert {(pos, bit) for pos in range(tables - 4, tables + 12)
            for bit in range(8)} <= refused
    length_at = tables - 4
    for cut in (1, 4, 8, 9):
        original = bytes(data[length_at:length_at + 4])
        size = int.from_bytes(original, "little")
        data[length_at:length_at + 4] = (size - cut).to_bytes(4, "little")
        try:
            with pytest.raises(LogError):
                record_at(db.log, lsns[form == "wide"])
        finally:
            data[length_at:length_at + 4] = original
    assert record_at(db.log, lsns[form == "wide"]).checkpoint == intact


@pytest.mark.parametrize("field", ["kind", "length"])
def test_a_broken_retained_record_fails_the_crash_that_reads_it(field: str):
    """A record the crash keeps gets a kind byte that names no kind, or
    a length one byte off: the crash rebuilds the log's indexes from
    every kept header, so ``crash()`` + ``restart()`` raise
    :class:`LogError` wherever the record lies — never a restart that
    completes over chain heads its bytes do not say.  Mended, the next
    crash rebuilds the heads the log had."""
    db, tree, model = _db()
    lsns, heads = _lsns(db), _chains(db)
    for lsn in random.Random(46).sample(lsns, 12):
        segment = next(s for s in _segments(db)
                       if s.base_lsn <= lsn < s.end_lsn)
        data, at = segment.data, lsn - segment.base_lsn
        original = bytes(data[at:at + 3])
        if field == "kind":
            data[at] |= 0x3F  # no record kind
        else:
            data[at + 1] ^= 1  # the low byte of its length
        try:
            with pytest.raises(LogError):
                db.crash()
                db.restart()
        finally:
            data[at:at + 3] = original
    db.crash()
    assert _chains(db) == heads
    db.restart()
    tree = db.tree(tree.index_id)
    assert {key: tree.lookup(key) for key in model} == model


def test_a_repair_over_a_broken_chain_escalates():
    """A leaf fails while its chain holds a record whose bytes encode
    nothing: single-page recovery cannot complete and escalates, as
    Figure 8 says any failed repair does."""
    db, tree, _model = _db()
    key = b"key0050"
    _page, _node, pid = tree._descend(key, for_write=False)
    db.pool.unfix(pid)
    db.evict_everything()
    head = db.log.page_chain_head(pid)
    assert head != NULL_LSN
    segment = next(s for s in _segments(db)
                   if s.base_lsn <= head < s.end_lsn)
    assert record_at(db.log, head).page_id == pid
    segment.data[head - segment.base_lsn] = 0x3F  # no record kind
    db.device.inject_bit_rot(pid)
    failures = db.stats.get("spf_recovery_failures")
    with pytest.raises((MediaFailure, SystemFailure),
                       match="single-page recovery failed"):
        tree.lookup(key)
    assert db.stats.get("spf_recovery_failures") == failures + 1
