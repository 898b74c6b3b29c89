"""The metric catalogue and how each value is computed.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units, directions and bounds; ``BENCHMARK.json`` mirrors them (the smoke
test checks both ways) and ``bench/README.md`` explains them.

The builder's contract wants every end-to-end metric on every workload,
non-zero and steady, so ``END_TO_END`` holds the six that are.  The
user-visible metrics only some workloads have (``txn_p50_us``,
``repair_get_p50_us``, ...) sit at the head of ``PER_LAYER`` with their
bound and workloads, and ``bench.compare`` gates them like the others; the
tail percentiles sit there too, reported but not gated.

Throughput is the median round; a percentile metric is the median over
rounds of the per-round percentile when every round holds enough samples
of that class, else the percentile of the pooled rounds.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from bench.runner import Round, Runner
from bench.trace import LAYERS, SpanTable

ALL = ("kv_hot_embedded", "dblp_cold_embedded", "kv_fleet_process",
       "failures_embedded")
KV = ("kv_hot_embedded", "kv_fleet_process")
EMBEDDED = ("kv_hot_embedded", "dblp_cold_embedded", "failures_embedded")
DBLP = ("dblp_cold_embedded",)
FLEET = ("kv_fleet_process",)
FAILURES = ("failures_embedded",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "higher" | "lower"
    bound: float | None = None  # allowed worsening; None = not gated
    workloads: tuple[str, ...] = ALL

    def spec(self) -> dict:
        """The entry ``BENCHMARK.json`` carries for this metric."""
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self in END_TO_END:
            entry["bound"] = self.bound
        return entry


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("get_p50_us", "us", "lower", 0.25),
    Metric("put_p50_us", "us", "lower", 0.25),
    Metric("sim_us_per_op", "us", "lower", 0.04),
    Metric("log_bytes_per_user_byte", "B/B", "lower", 0.04),
)

PER_LAYER = (
    # User-visible, but too unsteady on this container to gate (README).
    Metric("get_p95_us", "us", "lower"),
    Metric("get_p99_us", "us", "lower"),
    Metric("put_p95_us", "us", "lower"),
    Metric("put_p99_us", "us", "lower"),
    # User-visible, but not on every workload (see the module docstring).
    Metric("txn_p50_us", "us", "lower", 0.20, KV),
    Metric("batch_p50_us", "us", "lower", 0.20, KV),
    Metric("scan_p50_us", "us", "lower", 0.20, DBLP),
    Metric("repair_get_p50_us", "us", "lower", 0.20, FAILURES),
    Metric("repair_get_p99_us", "us", "lower", workloads=FAILURES),
    Metric("restart_open_ms", "ms", "lower", 0.20, FAILURES),
    Metric("stored_bytes_per_user_byte", "B/B", "lower", 0.04, EMBEDDED),
    Metric("failed_ops_share", "ratio", "lower", 0.0),
    # client
    Metric("client.self_us_per_op", "us", "lower"),
    Metric("client.healthy_get_p50_us", "us", "lower", workloads=FAILURES),
    # shard
    Metric("shard.calls_per_op", "count", "lower", workloads=FLEET),
    Metric("shard.calls_per_get", "count", "lower", workloads=FLEET),
    Metric("shard.calls_per_put", "count", "lower", workloads=FLEET),
    Metric("shard.calls_per_batch", "count", "lower", workloads=FLEET),
    Metric("shard.twopc_calls_per_txn", "count", "lower", workloads=FLEET),
    Metric("shard.rpc_roundtrip_us", "us", "lower", workloads=FLEET),
    Metric("shard.codec_us_per_msg", "us", "lower", workloads=FLEET),
    Metric("shard.request_bytes_per_op", "B", "lower", workloads=FLEET),
    Metric("shard.router_self_us_per_op", "us", "lower", workloads=FLEET),
    Metric("shard.transport_us_per_op", "us", "lower", workloads=FLEET),
    Metric("shard.worker_us_per_op", "us", "lower", workloads=FLEET),
    Metric("shard.batch_overlap", "ratio", "higher", workloads=FLEET),
    # engine
    Metric("engine.checkpoint_ms_p50", "ms", "lower"),
    Metric("engine.restart_ms_p50", "ms", "lower", workloads=FAILURES),
    Metric("engine.post_restart_op_p50_us", "us", "lower", workloads=FAILURES),
    Metric("engine.lazy_redo_pages_per_restart", "pages", "lower",
           workloads=FAILURES),
    Metric("engine.lazy_redo_records_per_restart", "records", "lower",
           workloads=FAILURES),
    Metric("engine.restore_open_ms_p50", "ms", "lower", workloads=FAILURES),
    Metric("engine.restore_pages_per_restore", "pages", "lower",
           workloads=FAILURES),
    Metric("engine.full_backup_ms_p50", "ms", "lower", workloads=FAILURES),
    # txn
    Metric("txn.commit_us_p50", "us", "lower"),
    Metric("txn.lock_us_per_op", "us", "lower"),
    Metric("txn.aborts", "count", "lower"),
    # btree
    Metric("btree.lookup_self_us_p50", "us", "lower"),
    Metric("btree.write_self_us_p50", "us", "lower"),
    Metric("btree.pages_fixed_per_op", "pages", "lower"),
    Metric("btree.splits_per_kput", "count", "lower"),
    Metric("btree.scan_rows_per_s", "1/s", "higher", workloads=DBLP),
    # buffer
    Metric("buffer.hit_rate", "ratio", "higher"),
    Metric("buffer.fix_self_us_per_call", "us", "lower"),
    Metric("buffer.miss_us_p50", "us", "lower",
           workloads=("dblp_cold_embedded", "failures_embedded")),
    Metric("buffer.evictions_per_op", "pages", "lower"),
    Metric("buffer.writebacks_per_op", "pages", "lower"),
    # wal
    Metric("wal.records_per_user_write", "records", "lower"),
    Metric("wal.pri_record_share", "ratio", "lower"),
    Metric("wal.bytes_per_record", "B", "lower"),
    Metric("wal.forces_per_commit", "count", "lower"),
    Metric("wal.append_self_us_per_record", "us", "lower"),
    Metric("wal.force_us_p50", "us", "lower"),
    Metric("wal.log_page_reads_per_repair", "pages", "lower",
           workloads=FAILURES),
    # core
    Metric("core.repairs", "count", "lower"),
    Metric("core.escalations", "count", "lower"),
    Metric("core.repair_us_p50", "us", "lower", workloads=FAILURES),
    Metric("core.repair_sim_ms_p50", "ms", "lower", workloads=FAILURES),
    Metric("core.repair_delay_ratio", "ratio", "lower", workloads=FAILURES),
    Metric("core.records_replayed_per_repair", "records", "lower",
           workloads=FAILURES),
    Metric("core.backup_fetches_per_repair", "count", "lower",
           workloads=FAILURES),
    Metric("core.page_copies_per_kput", "count", "lower"),
    Metric("core.detect_self_us_per_read", "us", "lower",
           workloads=("dblp_cold_embedded", "failures_embedded")),
    # page, storage
    Metric("page.checksum_us_per_page", "us", "lower"),
    Metric("storage.reads_per_op", "count", "lower"),
    Metric("storage.writes_per_op", "count", "lower"),
    Metric("storage.read_self_us_per_call", "us", "lower",
           workloads=("dblp_cold_embedded", "failures_embedded")),
    Metric("storage.remaps", "count", "lower"),
    # trace: share of traced client-op and maintenance time each layer
    # spends in its own code, and what recording it cost
    *(Metric(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    Metric("trace.overhead_share", "ratio", "lower"),
    # reference kernel's measured time / its reference time during the
    # untraced rounds: raw wall time = reported wall time x this
    Metric("machine.slowdown", "ratio", "lower"),
)

CATALOGUE = {metric.name: metric for metric in END_TO_END + PER_LAYER}

#: a round's percentile needs at least 10 samples beyond it
MIN_BEYOND = 10


def percentile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def value(v: float, rounds: list[float] | None = None, n: int | None = None) -> dict:
    """One measured metric; ``rounds`` are the per-round values behind a
    median (their quartiles are the spread ``bench.compare`` reads)."""
    out: dict = {"value": v}
    if rounds is not None and len(rounds) >= 2:
        # Inclusive: the rounds are the run's whole population, and with
        # six of them the exclusive method all but reports the range.
        q1, _median, q3 = statistics.quantiles(rounds, n=4, method="inclusive")
        out.update(q1=q1, q3=q3, rounds=rounds)
    if n is not None:
        out["samples"] = n
    return out


def class_percentile(rounds: list[Round], cls: str, q: float) -> dict:
    """``cls`` latency percentile in µs (0 when the class never ran)."""
    per_round = [rnd.lat[cls] for rnd in rounds if cls in rnd.lat]
    pooled = [ns for samples in per_round for ns in samples]
    if not pooled:
        return value(0.0, n=0)
    enough = MIN_BEYOND / (1 - q)
    if len(per_round) == len(rounds) and min(map(len, per_round)) >= enough:
        each = [percentile(samples, q) / 1e3 for samples in per_round]
        return value(statistics.median(each), each, len(pooled))
    return value(percentile(pooled, q) / 1e3, n=len(pooled))


def _median_ms(samples_ns: list[int]) -> dict:
    if not samples_ns:
        return value(0.0, n=0)
    return value(statistics.median(samples_ns) / 1e6, n=len(samples_ns))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Totals:
    """Counter deltas summed over the timed rounds of an untraced run."""

    def __init__(self, rounds: list[Round]) -> None:
        self.rounds = rounds
        self.ops = sum(rnd.ops for rnd in rounds)
        self.user_bytes = sum(rnd.user_bytes for rnd in rounds)
        self.sim_seconds = sum(rnd.sim_seconds for rnd in rounds)

    def __getitem__(self, counter: str) -> int:
        return sum(rnd.counters.get(counter, 0) for rnd in self.rounds)


def end_to_end(rounds: list[Round],
               setup_seconds: list[float]) -> dict[str, dict]:
    totals = Totals(rounds)
    per_round = [rnd.ops / (rnd.busy_ns / 1e9) for rnd in rounds]
    return {
        "setup_s": value(statistics.median(setup_seconds), setup_seconds),
        "ops_per_s": value(statistics.median(per_round), per_round, totals.ops),
        "get_p50_us": class_percentile(rounds, "get", 0.50),
        "put_p50_us": class_percentile(rounds, "put", 0.50),
        "sim_us_per_op": value(totals.sim_seconds * 1e6 / totals.ops),
        "log_bytes_per_user_byte": value(
            _ratio(totals["log_bytes"], totals.user_bytes)),
    }


def per_layer(runner: Runner, rounds: list[Round], traced: Runner,
              traced_rounds: list[Round], worker: Runner | None,
              probes: dict[str, float]) -> dict[str, dict]:
    """Counts from the untraced run's counter deltas, times from the
    traced run's spans.  A fleet's workers are out of the tracer's reach,
    so its engine-layer times come from the same stream traced on the
    in-process transport (``worker``)."""
    totals = Totals(rounds)
    ops = totals.ops
    spans = SpanTable(traced.tracer, traced.slowdown)
    traced_ops = sum(rnd.ops for rnd in traced_rounds)
    #: where the engine layers' spans are (``worker`` replays the same ops)
    inner = (spans if worker is None
             else SpanTable(worker.tracer, worker.slowdown))
    out: dict[str, dict] = {}

    def put(name: str, v: float | dict) -> None:
        out[name] = v if isinstance(v, dict) else value(v)

    def p50_us(rows: list[tuple], column: int) -> dict:
        if not rows:
            return value(0.0, n=0)
        return value(statistics.median(row[column] for row in rows) / 1e3,
                     n=len(rows))

    # -- user-visible -------------------------------------------------
    for cls in ("get", "put"):
        put(f"{cls}_p95_us", class_percentile(rounds, cls, 0.95))
        put(f"{cls}_p99_us", class_percentile(rounds, cls, 0.99))
    put("txn_p50_us", class_percentile(rounds, "txn", 0.50))
    put("batch_p50_us", class_percentile(rounds, "batch", 0.50))
    put("scan_p50_us", class_percentile(rounds, "scan", 0.50))
    repair_get = class_percentile(rounds, "repair_get", 0.50)
    put("repair_get_p50_us", repair_get)
    put("repair_get_p99_us", class_percentile(rounds, "repair_get", 0.99))
    put("restart_open_ms", _median_ms(runner.restart_open_ns))
    put("stored_bytes_per_user_byte",
        _ratio(runner.stored_bytes(), runner.live_user_bytes())
        if runner.db is not None else 0.0)
    put("failed_ops_share", _ratio(runner.failed, runner.attempted))

    # -- client --------------------------------------------------------
    put("client.self_us_per_op", _ratio(spans.self_us("client."), traced_ops))
    healthy_get = class_percentile(rounds, "healthy_get", 0.50)
    put("client.healthy_get_p50_us", healthy_get)

    # -- shard ---------------------------------------------------------
    calls = spans.by_name.get("shard.transport.call", [])
    by_class: dict[str, int] = {}
    for _sid, _ns, _self_ns, op in calls:
        if op >= 0:
            by_class[traced.op_class[op]] = by_class.get(traced.op_class[op], 0) + 1
    traced_classes = {cls: sum(len(rnd.lat.get(cls, ())) for rnd in traced_rounds)
                      for cls in ("get", "put", "txn", "batch")}
    put("shard.calls_per_op", _ratio(sum(by_class.values()), traced_ops))
    for cls, name in (("get", "shard.calls_per_get"), ("put", "shard.calls_per_put"),
                      ("batch", "shard.calls_per_batch"),
                      ("txn", "shard.twopc_calls_per_txn")):
        put(name, _ratio(by_class.get(cls, 0), traced_classes[cls]))
    put("shard.rpc_roundtrip_us",
        probes.get("rpc_roundtrip_us", 0.0) / runner.slowdown)
    put("shard.codec_us_per_msg",
        probes.get("codec_us_per_msg", 0.0) / runner.slowdown)
    put("shard.request_bytes_per_op", probes.get("request_bytes", 0.0))
    put("shard.router_self_us_per_op",
        _ratio(spans.self_us("shard.router."), traced_ops))
    put("shard.transport_us_per_op",
        _ratio(spans.total_us("shard.transport.call"), traced_ops))
    put("shard.worker_us_per_op",
        _ratio(inner.total_us("shard.worker.call"), traced_ops))
    batch_ops = {op for op, cls in enumerate(traced.op_class) if cls == "batch"}
    put("shard.batch_overlap", _ratio(
        sum(ns for _sid, ns, _self, op in calls if op in batch_ops),
        sum(row[1] for row in spans.by_name.get("client.batch", []))))

    # -- engine --------------------------------------------------------
    restarts = len(runner.calls["restart"])
    restores = len(runner.calls["recover_media"])
    put("engine.checkpoint_ms_p50", _median_ms(runner.calls["checkpoint"]))
    put("engine.restart_ms_p50", _median_ms(runner.calls["restart"]))
    put("engine.post_restart_op_p50_us", value(
        statistics.median(runner.post_restart_ns) / 1e3
        if runner.post_restart_ns else 0.0, n=len(runner.post_restart_ns)))
    put("engine.lazy_redo_pages_per_restart",
        _ratio(totals["lazy_redo_pages"], restarts))
    put("engine.lazy_redo_records_per_restart",
        _ratio(totals["lazy_redo_records"], restarts))
    put("engine.restore_open_ms_p50", _median_ms(runner.restore_open_ns))
    put("engine.restore_pages_per_restore",
        _ratio(totals["restore_pages"], restores))
    put("engine.full_backup_ms_p50", _median_ms(runner.calls["full_backup"]))

    # -- txn -----------------------------------------------------------
    put("txn.commit_us_p50", p50_us(inner.by_name.get("txn.commit", []), 1))
    put("txn.lock_us_per_op", _ratio(inner.total_us("txn.lock_"), traced_ops))
    put("txn.aborts", totals["txns_aborted"])

    # -- btree ---------------------------------------------------------
    user_writes = (totals["btree_inserts"] + totals["btree_updates"]
                   + totals["btree_deletes"])
    tree_ops = user_writes + totals["btree_lookups"]
    fixes = totals["buffer_hits"] + totals["buffer_misses"]
    put("btree.lookup_self_us_p50",
        p50_us(inner.by_name.get("btree.lookup", []), 2))
    put("btree.write_self_us_p50", p50_us(
        [row for name in ("btree.insert", "btree.update", "btree.delete")
         for row in inner.by_name.get(name, [])], 2))
    put("btree.pages_fixed_per_op", _ratio(fixes, tree_ops))
    put("btree.splits_per_kput", _ratio(1e3 * totals["btree_splits"], user_writes))
    put("btree.scan_rows_per_s", _ratio(
        sum(rnd.scan_rows for rnd in rounds),
        sum(ns for rnd in rounds for ns in rnd.lat.get("scan", ())) / 1e9))

    # -- buffer --------------------------------------------------------
    fix_spans = inner.by_name.get("buffer.fix", [])
    put("buffer.hit_rate", _ratio(totals["buffer_hits"], fixes))
    put("buffer.fix_self_us_per_call",
        _ratio(inner.self_us("buffer.fix"), len(fix_spans)))
    put("buffer.miss_us_p50",
        p50_us(inner.with_child("buffer.fix", "core.fetch_page"), 1))
    put("buffer.evictions_per_op", _ratio(totals["pages_evicted"], ops))
    put("buffer.writebacks_per_op", _ratio(totals["pages_written_back"], ops))

    # -- wal -----------------------------------------------------------
    put("wal.records_per_user_write", _ratio(totals["log_records"], user_writes))
    put("wal.pri_record_share",
        _ratio(totals["pri_update_records"], totals["log_records"]))
    put("wal.bytes_per_record", _ratio(totals["log_bytes"], totals["log_records"]))
    put("wal.forces_per_commit",
        _ratio(totals["log_forces"], totals["user_txns_committed"]))
    put("wal.append_self_us_per_record", _ratio(
        inner.self_us("wal.append"), len(inner.by_name.get("wal.append", []))))
    put("wal.force_us_p50", p50_us(inner.by_name.get("wal.commit_force", []), 1))

    # -- core ----------------------------------------------------------
    repairs = runner.repair_results
    mean = lambda field: _ratio(  # noqa: E731
        sum(getattr(r, field) for r in repairs), len(repairs))
    put("core.repairs", totals["single_page_recoveries"])
    put("core.escalations",
        totals["escalations_to_media"] + totals["escalations_to_system"])
    put("core.repair_us_p50",
        p50_us(inner.by_name.get("core.handle_failure", []), 1))
    put("core.repair_sim_ms_p50", value(
        statistics.median(r.elapsed_simulated for r in repairs) * 1e3
        if repairs else 0.0, n=len(repairs)))
    put("core.repair_delay_ratio",
        _ratio(repair_get["value"], healthy_get["value"]))
    put("core.records_replayed_per_repair", mean("records_applied"))
    put("core.backup_fetches_per_repair", mean("backup_fetches"))
    put("wal.log_page_reads_per_repair", mean("log_pages_read"))
    put("core.page_copies_per_kput",
        _ratio(1e3 * totals["page_copies_taken"], user_writes))
    put("core.detect_self_us_per_read", _ratio(
        inner.self_us("core.fetch_page"),
        len(inner.by_name.get("core.fetch_page", []))))

    # -- page, storage -------------------------------------------------
    put("page.checksum_us_per_page",
        probes["checksum_us_per_page"] / runner.slowdown)
    put("storage.reads_per_op", _ratio(totals["device_reads"], ops))
    put("storage.writes_per_op", _ratio(totals["device_writes"], ops))
    put("storage.read_self_us_per_call", _ratio(
        inner.self_us("storage.read"), len(inner.by_name.get("storage.read", []))))
    put("storage.remaps", totals["device_remaps"])

    # -- trace ---------------------------------------------------------
    layer_self = {layer: spans.self_us(layer + ".") for layer in LAYERS}
    for layer, self_us in layer_self.items():
        put(f"{layer}.self_share", _ratio(self_us, sum(layer_self.values())))
    untraced_ns = sum(rnd.busy_ns for rnd in rounds[:len(traced_rounds)])
    traced_ns = sum(rnd.busy_ns for rnd in traced_rounds)
    put("trace.overhead_share", _ratio(traced_ns - untraced_ns, untraced_ns))
    put("machine.slowdown", runner.slowdown)
    return out
