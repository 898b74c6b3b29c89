"""Declared metrics: the catalogue of what the engine counts, and the
per-engine registry that holds the counts.

Everything the engine counts is declared exactly once in
:data:`CATALOGUE` — name, unit, layer, one line of help — and a
component asks its :class:`Stats` for a counter :class:`Handle` *once*,
where it is constructed (``self._buffer_hits =
stats.counter("buffer_hits")``); a name the catalogue does not know
raises there, not at first use.  Counting is then
``self._buffer_hits.inc()``: one method call and one attribute add, no
name lookup and no lock — the paper's premise is that watching every
page access "merely delays" it, so the watching must cost less than
what it watches.

Experiments assert on these counts (for example, Figure 4's claim that
logging completed writes lets restart redo skip page reads is verified
by counting ``device_reads`` during recovery).

``python -m repro.sim.stats`` prints the catalogue as the Markdown table
in the README's "Observability" section.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from repro.sync import Mutex

#: the nine layers of ``bench/trace.py``, plus the chaos simulator
LAYERS = ("client", "shard", "engine", "txn", "btree", "buffer", "wal",
          "core", "storage", "sim")


class Metric(NamedTuple):
    """One declaration.  A ``name`` with ``<...>`` in it is a *family*:
    the bracketed part is built at run time — ``<device>`` stands for
    any text, ``<restart|restore>`` for one of the alternatives listed."""

    name: str
    unit: str
    layer: str
    help: str
    kind: str = "counter"  # or "gauge": a high-water mark (note_max)


CATALOGUE: tuple[Metric, ...] = (
    # -- buffer: the pool -------------------------------------------------
    Metric("buffer_hits", "fixes", "buffer", "demand fix found the page resident"),
    Metric("buffer_misses", "fixes", "buffer", "demand fix had to load the page"),
    Metric("pages_written_back", "pages", "buffer",
           "dirty pages written to the device (Figure 11 write-back)"),
    Metric("pages_evicted", "pages", "buffer", "frames evicted to make room"),
    Metric("frames_dropped", "pages", "buffer",
           "frames discarded without write-back (untrustworthy image)"),
    Metric("pool_repairs", "pages", "buffer",
           "resident pages that failed a cross-page check and were sent to repair"),
    # -- btree --------------------------------------------------------------
    Metric("btree_lookups", "ops", "btree", "point lookups that found a live record"),
    Metric("btree_inserts", "ops", "btree", "records inserted (ghost revivals included)"),
    Metric("btree_updates", "ops", "btree", "values replaced in place"),
    Metric("btree_deletes", "ops", "btree", "records turned into ghosts"),
    Metric("btree_hops_verified", "hops", "btree",
           "parent-to-child and foster hops whose fences matched the parent"),
    Metric("btree_invariant_failures", "hops", "btree",
           "hops whose child disagreed with its parent (Section 4.2 detection)"),
    Metric("btree_splits", "ops", "btree", "node splits (foster child created)"),
    Metric("btree_adoptions", "ops", "btree", "foster children adopted by the parent"),
    Metric("btree_root_growths", "ops", "btree", "root splits that grew the tree a level"),
    Metric("btree_compensations", "ops", "btree", "logical undo actions applied"),
    Metric("btree_ghosts_removed", "records", "btree", "ghost records reclaimed"),
    # -- txn ----------------------------------------------------------------
    Metric("user_txns_started", "txns", "txn", "user transactions begun"),
    Metric("system_txns_started", "txns", "txn", "system transactions begun"),
    Metric("user_txns_committed", "txns", "txn", "user transactions committed"),
    Metric("system_txns_committed", "txns", "txn", "system transactions committed"),
    Metric("txns_aborted", "txns", "txn", "transactions rolled back"),
    Metric("txns_prepared", "txns", "txn", "2PC branches that forced a PREPARE"),
    Metric("prepared_txns_committed", "txns", "txn", "prepared branches told to commit"),
    Metric("prepared_txns_aborted", "txns", "txn", "prepared branches told to abort"),
    Metric("group_commit_batches", "batches", "txn",
           "group_commit() blocks that forced once for several commits"),
    Metric("group_commit_batched_commits", "txns", "txn",
           "commits hardened by those batched forces"),
    Metric("page_updates_logged", "records", "txn", "page-update records logged"),
    Metric("pages_formatted", "records", "txn", "page-format records logged"),
    Metric("compensations_logged", "records", "txn", "compensation records (CLRs) logged"),
    # -- wal ----------------------------------------------------------------
    Metric("log_records", "records", "wal", "records appended to the log"),
    Metric("log_bytes", "bytes", "wal", "bytes appended to the log"),
    Metric("log_forces", "forces", "wal", "forces that hardened at least one byte"),
    Metric("log_forced_bytes", "bytes", "wal", "bytes hardened by forces"),
    Metric("group_commit_rider_bytes", "bytes", "wal",
           "bytes past the committing record that hardened in its force"),
    Metric("group_commit_leads", "forces", "wal",
           "cross-thread commits that led a group force"),
    Metric("group_commit_riders", "txns", "wal",
           "cross-thread commits hardened by another thread's force"),
    Metric("log_truncations", "ops", "wal", "log truncations"),
    Metric("log_bytes_truncated", "bytes", "wal", "bytes freed by truncation"),
    Metric("log_crashes", "events", "wal", "crashes that discarded the unforced tail"),
    Metric("log_page_reads", "pages", "wal", "log pages read at random (cache misses)"),
    Metric("log_scans", "scans", "wal", "sequential log scans"),
    Metric("standby_log_records", "records", "wal", "records appended to a standby's log"),
    Metric("standby_log_bytes", "bytes", "wal", "bytes appended to a standby's log"),
    # -- core: detection, single-page recovery, backups ---------------------
    Metric("pages_fetched_clean", "pages", "core", "device reads that passed every test"),
    Metric("page_failures_detected", "pages", "core",
           "single-page failures handed to the Figure-8 dispatch"),
    Metric("pri_repaired_on_read", "pages", "core",
           "recovery-index entries found older than the page and corrected"),
    Metric("single_page_recoveries", "pages", "core", "single-page recoveries started"),
    Metric("spf[<kind>]", "pages", "core",
           "single-page recoveries by the test that detected the failure"),
    Metric("spf_from_replica", "pages", "core", "repairs served by the standby's copy"),
    Metric("spf_records_applied", "records", "core",
           "log records replayed onto backup images by single-page recovery"),
    Metric("spf_recovery_failures", "pages", "core",
           "single-page recoveries that failed and escalated"),
    Metric("escalations_to_media", "events", "core",
           "page failures escalated to a media failure (Figure 1)"),
    Metric("escalations_to_system", "events", "core",
           "media failures escalated to a system failure (single-device node)"),
    Metric("coordinated_recoveries", "ops", "core",
           "coordinated multi-page recoveries (one shared log scan)"),
    Metric("coordinated_pages_recovered", "pages", "core", "pages those recoveries rebuilt"),
    Metric("scrub_passes", "ops", "core", "scrubber sweeps completed"),
    Metric("scrub_failures_found", "pages", "core", "failed pages a scrub found"),
    Metric("full_backups_taken", "backups", "core", "full backups written"),
    Metric("full_backups_restored", "backups", "core",
           "full backups read back whole (one sequential read)"),
    Metric("full_backups_retired", "backups", "core", "full backups retired"),
    Metric("backup_page_fetches", "pages", "core",
           "single images fetched from a full backup or a page copy"),
    Metric("page_copies_taken", "copies", "core", "individual page copies written"),
    Metric("page_copies_freed", "copies", "core", "superseded page copies released"),
    Metric("page_copy_write_failures", "copies", "core",
           "page-copy writes the backup medium failed"),
    # -- storage ------------------------------------------------------------
    Metric("device_reads", "reads", "storage", "page reads charged, all devices"),
    Metric("device_writes", "writes", "storage", "page writes charged, all devices"),
    Metric("device_reads[<device>]", "reads", "storage", "page reads charged, per device"),
    Metric("device_writes[<device>]", "writes", "storage", "page writes charged, per device"),
    Metric("device_write_requests", "requests", "storage",
           "write extents charged a latency: consecutive sectors in one request are one"),
    Metric("device_read_errors", "reads", "storage", "reads the device itself failed"),
    Metric("device_remaps", "pages", "storage", "pages remapped to a spare sector"),
    Metric("proof_read_failures", "writes", "storage",
           "writes whose read-back did not return what was written"),
    # -- engine: checkpoints, backup policy, restart, restore, standby ------
    Metric("checkpoints", "ops", "engine", "checkpoints completed"),
    Metric("pri_persists", "ops", "engine", "recovery-index snapshots persisted"),
    Metric("pri_update_records", "records", "engine",
           "PRI-update records logged after completed writes, one per "
           "write-back run (Figure 11)"),
    Metric("policy_page_copies", "copies", "engine",
           "page copies the update-count policy took before a write-back"),
    Metric("page_copy_policy_failures", "copies", "engine",
           "policy copies skipped because the backup medium failed"),
    Metric("copy_forward_backups", "copies", "engine",
           "page copies taken so the log below them could be truncated"),
    Metric("backup_images_repaired", "pages", "engine",
           "failed device images repaired while taking a full backup"),
    Metric("system_crashes", "events", "engine", "simulated system failures"),
    Metric("restarts", "ops", "engine", "restarts (analysis completed)"),
    Metric("instant_restarts", "ops", "engine",
           "restarts that opened with redo and undo still pending"),
    Metric("instant_restart_completions", "ops", "engine",
           "pending restarts whose last item resolved"),
    Metric("restart_undo_txns", "txns", "engine", "loser transactions rolled back"),
    Metric("indoubt_txns_recovered", "txns", "engine",
           "prepared, undecided 2PC branches found by analysis"),
    Metric("pri_pages_repaired", "pages", "engine",
           "recovery-index pages rebuilt at restart"),
    Metric("pri_repair_records", "records", "engine",
           "PRI-update records regenerated for writes whose record was lost "
           "(Figure 12)"),
    Metric("media_recoveries", "ops", "engine", "media recoveries (analysis completed)"),
    Metric("instant_restores", "ops", "engine",
           "media recoveries that opened with pages still to restore"),
    Metric("instant_restore_completions", "ops", "engine",
           "pending restores whose last item resolved"),
    Metric("txns_killed_by_media_failure", "txns", "engine",
           "user transactions a media failure aborted"),
    Metric("<restart|restore>_pending_pages", "pages", "engine",
           "pages a recovery registered as pending when it was installed"),
    Metric("<restart|restore>_pending_losers", "txns", "engine",
           "loser transactions a recovery registered as pending"),
    Metric("<restart|restore>_drain_pages", "pages", "engine",
           "pending pages resolved by background drains"),
    Metric("<restart|restore>_drain_losers", "txns", "engine",
           "pending losers rolled back by background drains"),
    Metric("lazy_redo_pages", "pages", "engine", "restart: pending pages brought current"),
    Metric("lazy_redo_records", "records", "engine", "restart: records replayed onto them"),
    Metric("chain_forward_fallbacks", "pages", "engine",
           "restart: demand fixes that replayed the analysis list because the "
           "page chain did not connect"),
    Metric("lazy_redo_superseded", "pages", "engine",
           "restart: pending pages reformatted before their first read"),
    Metric("lazy_undo_on_conflict", "txns", "engine",
           "restart: losers rolled back because a lock request hit them"),
    Metric("lazy_undo_txns", "txns", "engine", "restart: pending losers rolled back"),
    Metric("restore_pages", "pages", "engine", "restore: pending pages brought current"),
    Metric("restore_records", "records", "engine", "restore: records replayed onto them"),
    Metric("restore_chain_fallbacks", "pages", "engine",
           "restore: demand fixes that replayed the analysis list"),
    Metric("restore_superseded", "pages", "engine",
           "restore: pending pages reformatted before their first read"),
    Metric("restore_undo_on_conflict", "txns", "engine",
           "restore: losers rolled back because a lock request hit them"),
    Metric("restore_undo_txns", "txns", "engine", "restore: pending losers rolled back"),
    Metric("standby_attaches", "ops", "engine", "standbys attached (or re-seeded)"),
    Metric("standby_seeds", "ops", "engine", "standby seedings from the primary"),
    Metric("standby_seed_bytes", "bytes", "engine", "page and log bytes copied by seeding"),
    Metric("standby_seed_images_repaired", "pages", "engine",
           "failed device images repaired while seeding a standby"),
    Metric("standby_pages_served", "pages", "engine",
           "page images a standby served to single-page recovery"),
    Metric("standby_serve_lagging", "pages", "engine",
           "repair requests a standby declined because its copy was behind"),
    Metric("standby_crashes", "events", "engine", "standby failures"),
    Metric("standby_promotions", "ops", "engine", "standbys promoted to primary"),
    Metric("ship_batches", "batches", "engine", "log batches shipped to the standby"),
    Metric("ship_bytes", "bytes", "engine", "log bytes shipped to the standby"),
    Metric("ship_acks", "events", "engine",
           "commits that waited for the standby's acknowledgement"),
    Metric("ship_link_severs", "events", "engine", "shipping link taken down"),
    Metric("ship_link_restores", "events", "engine", "shipping link brought back"),
    Metric("ship_gap_breaks", "events", "engine",
           "links broken because truncation outran the standby"),
    # -- sim: what the chaos harness itself counts --------------------------
    Metric("chaos_txn_failures", "txns", "sim",
           "scheduled transactions that aborted (by fate or by lock conflict)"),
    Metric("chaos_replication_lag_commits", "txns", "sim",
           "commits hardened locally whose replication ack failed"),
    Metric("chaos_backup_losses", "backups", "sim", "full backups a schedule destroyed"),
    Metric("chaos_max_pending_after_recovery", "pages", "sim",
           "most pages any recovery of the run left pending", "gauge"),
)


def _family_pattern(name: str) -> re.Pattern[str]:
    parts = re.split(r"<([^>]*)>", name)
    pattern = "".join(
        re.escape(part) if i % 2 == 0
        else f"(?:{part})" if "|" in part else ".+"
        for i, part in enumerate(parts))
    return re.compile(pattern)


_BY_NAME = {metric.name: metric for metric in CATALOGUE if "<" not in metric.name}
_FAMILIES = tuple((_family_pattern(metric.name), metric)
                  for metric in CATALOGUE if "<" in metric.name)


def declared(name: str, kind: str = "counter") -> Metric:
    """The declaration ``name`` falls under; :class:`KeyError` if the
    catalogue has none of that ``kind``."""
    metric = _BY_NAME.get(name)
    if metric is None:
        metric = next((m for pattern, m in _FAMILIES
                       if pattern.fullmatch(name)), None)
    if metric is None or metric.kind != kind:
        raise KeyError(f"no {kind} named {name!r} is declared in "
                       f"repro.sim.stats.CATALOGUE")
    return metric


class Handle:
    """Handle of one counter of one :class:`Stats`.  ``value`` is
    ``None`` until the first :meth:`inc` (the name is not in
    ``snapshot()`` until then) and again after ``reset()``."""

    __slots__ = ("value", "_mutex")

    def __init__(self, mutex: Mutex) -> None:
        self.value: int | None = None
        self._mutex = mutex

    def inc(self, n: int = 1) -> None:
        """Count ``n`` more (``n`` may be 0; counters only increase)."""
        if n < 0:
            raise ValueError("counters only increase")
        try:
            self.value += n
        except TypeError:  # first count since construction or reset()
            self.value = n


class _ArmedHandle(Handle):
    """What every handle of a :class:`Stats` becomes — in place, the
    layout is the same — once :meth:`Stats.enable_locking` has armed
    cross-thread mode: the add runs under the registry's mutex."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        with self._mutex:
            self.value = (self.value or 0) + n


class Stats:
    """One engine's registry of declared counters, plus high-water-mark
    gauges (:meth:`note_max`) for quantities that are observed rather
    than accumulated — e.g. the peak number of pending restore pages
    during a chaos run.  An ``inc()`` takes no lock until
    :meth:`enable_locking` has armed cross-thread mode and loses no
    increment afterwards, on handles handed out before as well as
    after."""

    def __init__(self) -> None:
        self._handles: dict[str, Handle] = {}
        self._handle_type: type[Handle] = Handle
        self._maxima: dict[str, int] = {}
        self._mutex = Mutex()

    def counter(self, name: str) -> Handle:
        """The handle of counter ``name`` — one per name, shared by
        everyone who asks.  Raises :class:`KeyError` for a name the
        catalogue does not declare."""
        handle = self._handles.get(name)
        if handle is None:
            declared(name)
            with self._mutex:
                handle = self._handles.setdefault(
                    name, self._handle_type(self._mutex))
        return handle

    def enable_locking(self) -> None:
        """Arm cross-thread mode: every increment now takes the mutex.

        One-way for the lifetime of this Stats — once sessions from
        multiple threads may race, increments must stay atomic.
        """
        with self._mutex:
            self._handle_type = _ArmedHandle
            for handle in self._handles.values():
                handle.__class__ = _ArmedHandle

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never counted)."""
        handle = self._handles.get(name)
        return 0 if handle is None else handle.value or 0

    def note_max(self, name: str, value: int) -> None:
        """Record ``value`` for gauge ``name`` if it is a new maximum."""
        declared(name, "gauge")
        with self._mutex:
            if value > self._maxima.get(name, value - 1):
                self._maxima[name] = value

    def get_max(self, name: str) -> int:
        """High-water mark of gauge ``name`` (0 if never noted)."""
        return self._maxima.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A copy of all counters, for diffing before/after a phase."""
        with self._mutex:
            return {name: handle.value
                    for name, handle in self._handles.items()
                    if handle.value is not None}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """What changed since ``before`` (a prior :meth:`snapshot`)."""
        changed = {}
        for name, value in self.snapshot().items():
            previous = before.get(name, 0)
            if value != previous:
                changed[name] = value - previous
        return changed

    def reset(self) -> None:
        """Zero out all counters and gauges, in place: handles handed
        out before keep counting into this registry."""
        with self._mutex:
            for handle in self._handles.values():
                handle.value = None
            self._maxima.clear()

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self.snapshot().items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"Stats({inner})"


def catalogue_markdown() -> str:
    """The catalogue as a Markdown table, in declaration order."""
    rows = ["| metric | unit | layer | what it counts |", "|---|---|---|---|"]
    for metric in CATALOGUE:
        what = metric.help if metric.kind == "counter" else f"{metric.help} (gauge)"
        rows.append(f"| `{metric.name}` | {metric.unit} | {metric.layer} "
                    f"| {what} |")
    return "\n".join(rows)


if __name__ == "__main__":
    print(catalogue_markdown())
