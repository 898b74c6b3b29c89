"""Shared helpers for the experiment benchmarks.

Every ``test_*.py`` here regenerates one of the paper's figures or
tables, or one claim of an extension built on it.  Each prints the
paper-shaped rows (visible with ``pytest benchmarks -s``) and asserts
the claim where it computes it: the qualitative *shape* — who wins,
by roughly what factor — since our substrate is a simulator, not the
authors' hardware, and a literal bound on every simulated-time or
I/O-count quantity a change could quietly make worse.

Two kinds of measurements appear side by side:

* **simulated seconds** — charged by the I/O cost models; these are
  the quantities Section 6 reasons about, and the ones asserted;
* **wall time** — what pytest-benchmark prints for the kernel it
  wraps: for the record only.  A wall-clock number that is compared
  with anything comes from ``bench/`` (``python3 -m bench.run``).
"""

from __future__ import annotations

import sys

from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.iomodel import HDD_PROFILE, NULL_PROFILE
from repro.sim.stats import Handle
from repro.wal.records import PAGE_UPDATE_KINDS, read_header


def fast_db(n_keys: int = 300, **overrides) -> tuple[Database, object]:
    """Database on free I/O, loaded with ``n_keys`` committed keys."""
    base = dict(
        page_size=4096,
        capacity_pages=2048,
        buffer_capacity=128,
        device_profile=NULL_PROFILE,
        log_profile=NULL_PROFILE,
        backup_profile=NULL_PROFILE,
        backup_policy=BackupPolicy(every_n_updates=64),
    )
    base.update(overrides)
    db = Database(EngineConfig(**base))
    tree = db.create_index()
    txn = db.begin()
    for i in range(n_keys):
        tree.insert(txn, key_of(i), value_of(i, 0))
    db.commit(txn)
    db.flush_everything()
    db.evict_everything()
    return db, tree


def timed_db(n_keys: int = 300, **overrides) -> tuple[Database, object]:
    """Database on realistic disk profiles (simulated seconds matter)."""
    overrides.setdefault("device_profile", HDD_PROFILE)
    overrides.setdefault("log_profile", HDD_PROFILE)
    overrides.setdefault("backup_profile", HDD_PROFILE)
    return fast_db(n_keys, **overrides)


def incs_during(call) -> int:  # noqa: ANN001
    """How many counter ``inc()`` calls ``call()`` makes, whatever the
    amounts: what an operation pays for being counted is this times the
    price of one ``inc()``."""
    made = 0
    plain = Handle.inc

    def counting(handle: Handle, n: int = 1) -> None:
        nonlocal made
        made += 1
        plain(handle, n)

    Handle.inc = counting
    try:
        call()
    finally:
        Handle.inc = plain
    return made


def python_calls(call) -> int:  # noqa: ANN001
    """How many Python functions of the ``repro`` package ``call()``
    enters: ``sys.setprofile`` "call" events of frames that run in a
    ``repro`` module, dataclass-generated ``__init__`` included.  C
    functions and the caller's own frames do not count."""
    made = 0

    def profile(frame, event: str, _arg) -> None:  # noqa: ANN001
        nonlocal made
        if (event == "call"
                and frame.f_globals.get("__name__", "").split(".")[0] == "repro"):
            made += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return made


def key_of(i: int) -> bytes:
    return b"k%06d" % i


def value_of(i: int, version: int) -> bytes:
    return b"v%d.%d|" % (i, version) + b"x" * 16


def leaf_of(db: Database, tree, i: int = 0) -> int:  # noqa: ANN001
    """Page id of the leaf holding key i; leaves the buffer pool cold."""
    page, _node, _pid = tree._descend(key_of(i), for_write=False)
    pid = page.page_id
    db.pool.unfix(pid)
    db.evict_everything()
    return pid


def mirrored(db: Database):  # noqa: ANN201 - (Standby, SegmentShipper)
    """Section 2's mirror as of now: attach the hot standby and hold its
    shipping link down, so the stream outstanding at a repair grows."""
    standby = db.attach_standby()
    db.standby_link.sever()
    return standby, db.standby_link


def shipped_page_updates(log, start: int, end: int) -> tuple[int, set[int]]:  # noqa: ANN001
    """Page-update records in the log span ``[start, end)`` — what a
    standby catching up over it applies — and the pages they touch,
    read from the records' headers."""
    records, pages = 0, set()
    for lsn, encoding in log.encodings_from(start):
        if lsn >= end:
            break
        kind, _commits, _txn_id, page_id, _prev = read_header(encoding)
        if kind in PAGE_UPDATE_KINDS and page_id >= 0:
            records += 1
            pages.add(page_id)
    return records, pages


def mirror_catch_up(db: Database, link) -> tuple[int, set[int]]:  # noqa: ANN001
    """Restore the held link: the page updates it shipped and the pages
    they touch."""
    start = link.shipped_lsn
    link.restore()
    return shipped_page_updates(db.log, start, link.shipped_lsn)


class _Cut(Exception):
    """The crash that stops a write-back run between two device writes."""


def cut_run_after(db: Database, j: int, run=None) -> list[int]:  # noqa: ANN001
    """Write the dirty pages back as one run — every one, or those
    ``run`` (a checkpoint, say) writes — and stop it after ``j`` device
    writes, before the run's PRI record is forced (Figure 11's window
    C); returns the pages written."""
    written, write = [], db.device.write

    def write_or_crash(page_id, data, sequential=False):  # noqa: ANN001
        if len(written) == j:
            raise _Cut
        write(page_id, data, sequential)
        written.append(page_id)

    db.device.write = write_or_crash
    try:
        (run or db.flush_everything)()
    except _Cut:
        pass
    finally:
        del db.device.write
    assert db.log.durable_lsn < db.log.end_lsn  # nothing forced the record
    return written


def print_table(title: str, headers: list[str],
                rows: list[list[object]]) -> None:
    """Print one experiment table in a stable, grep-friendly format."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print("  " + " | ".join(_fmt(cell).ljust(w)
                                for cell, w in zip(row, widths)))


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:,.2f}"
        return f"{cell:.4f}"
    return str(cell)
