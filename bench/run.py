"""One command for every number: ``python3 -m bench.run --seed N``.

    python3 -m bench.run --seed 1                      # all four workloads
    python3 -m bench.run --seed 1 --workload kv_hot_embedded --out a.json
    python3 -m bench.run --seed 1 --scale smoke        # seconds, for tests

The builder's driver calls it per workload with ``--seconds S --trace 0|1``:
``--trace 0`` measures untraced and prints the end-to-end metrics,
``--trace 1`` adds a traced rerun at one-third length and prints the
per-layer metrics.  Without ``--trace`` both sets are printed.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import ROOT, SRC

SETUP_REPEATS = 3           # set-ups per run; setup_s is their median
SMOKE_ROUNDS, SMOKE_ROUND_OPS = 2, 200
DEFAULT_SECONDS = 10

# A busy loop at the lowest priority, pinned to one core, that ends when
# its parent does.
_SPINNER = """
import os, sys
os.nice(19)
os.sched_setaffinity(0, {int(sys.argv[2])})
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(1_000_000):
        pass
"""


@contextlib.contextmanager
def steady_machine():  # noqa: ANN201
    """Keep every core out of idle and this run on one of them.

    On the 2-vCPU container a vCPU that goes idle is halted, and whatever
    wakes on it next pays 0.1-3 ms: an idle-fleet ping had p99 = 3 ms,
    the process fleet ran 400-600 ops/s, and even the single-threaded
    embedded workloads had a 1 ms p99 ``get``.  One nice-19 busy loop per
    core removes that (ping p99 0.2 ms, fleet 1 500-1 800 ops/s, embedded
    p99 ``get`` 0.2 ms); the spinners lose every scheduling contest
    against the benchmark's own processes.  Pinning the run - and the
    shard workers it forks - to one core removes the other bimodality,
    same-core against cross-core wake-ups (a 20 us against a 95 us ping):
    fleet ``get_p50_us`` was 117-175 unpinned, 107-110 pinned (README,
    "Noise").
    """
    cores = sorted(os.sched_getaffinity(0))
    spinners = [subprocess.Popen([sys.executable, "-c", _SPINNER,
                                  str(os.getpid()), str(core)])
                for core in cores]
    os.sched_setaffinity(0, {cores[-1]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)
        for spinner in spinners:
            spinner.terminate()
        for spinner in spinners:
            spinner.wait()


def measure(name: str, seed: int, seconds: float, smoke: bool,
            trace: bool, out_dir: Path) -> dict:
    """Run workload ``name`` once (untraced, then traced if asked)."""
    from bench import metrics
    from bench.runner import Runner
    from bench.trace import Tracer
    from bench.workloads import ROUNDS, WORKLOADS

    workload = WORKLOADS[name]
    n_records = workload.records // 20 if smoke else workload.records
    round_ops = SMOKE_ROUND_OPS if smoke else workload.round_ops(seconds)
    rounds = SMOKE_ROUNDS if smoke else ROUNDS

    def fresh(n_rounds: int = rounds, **kwargs) -> Runner:  # noqa: ANN003
        return Runner(workload, seed, n_records, round_ops, n_rounds, **kwargs)

    # Set up several times and report the median; the last one is used.
    runner, setup_seconds = None, []
    for _ in range(1 if smoke else SETUP_REPEATS):
        if runner is not None:
            runner.close()
        runner = fresh()
        setup_seconds.append(runner.setup())
    gc.collect()
    gc.freeze()
    timed = runner.run()
    correct = runner.verify_final()
    result = {
        "workload": name, "seed": seed, "rounds": rounds, "round_ops": round_ops,
        "metrics": metrics.end_to_end(timed, setup_seconds),
    }
    if trace:
        probes = micro_probes(runner, batches=4 if smoke else 20)
    runner.close()
    gc.unfreeze()

    if trace:
        # Same seed, same stream: the traced rounds replay the first third
        # of the untraced ones, so their wall times compare op for op.
        traced_rounds = max(1, rounds // 3)
        traced = fresh(traced_rounds, tracer=Tracer())
        traced.setup()
        traced_timed = traced.run()
        traced.close()
        worker = None
        if workload.fleet:
            worker = fresh(traced_rounds, tracer=Tracer(), transport="inproc")
            worker.setup()
            worker.run()
            worker.close()
        result["metrics"].update(metrics.per_layer(
            runner, timed, traced, traced_timed, worker, probes))
        out_dir.mkdir(exist_ok=True)
        traced.tracer.dump(out_dir / f"trace-{name}.json")
        if worker is not None:
            worker.tracer.dump(out_dir / f"trace-{name}-inproc.json")
        correct = (correct and traced.failed == 0
                   and (worker is None or worker.failed == 0))

    for metric_name, entry in result["metrics"].items():
        entry["unit"] = metrics.CATALOGUE[metric_name].unit
    result.update(attempted=runner.attempted, failed=runner.failed,
                  correct=bool(correct and runner.failed == 0),
                  errors=dict(runner.errors))
    return result


def micro_probes(runner, batches: int) -> dict[str, float]:  # noqa: ANN001
    """Costs too small to span: one page checksum, one idle RPC, one
    message through the RPC codec.  Each is a median of batch means."""
    from repro.page.checksum import compute_checksum
    from repro.page.page import Page, PageType
    from repro.shard.rpc import recv_msg, send_msg

    def median_us(fn, per_batch: int = 100) -> float:  # noqa: ANN001
        means = []
        for _ in range(batches):
            start = time.perf_counter_ns()
            for _ in range(per_batch):
                fn()
            means.append((time.perf_counter_ns() - start) / per_batch / 1e3)
        return statistics.median(means)

    page = Page.format(4096, 1, PageType.BTREE_LEAF)
    probes = {"checksum_us_per_page":
              median_us(lambda: compute_checksum(page.data))}
    if runner.router is not None:
        shard = runner.router.shards[0]
        probes["rpc_roundtrip_us"] = median_us(lambda: shard.call(("ping",)))
        key, put_value = next(iter(runner.oracle.items()))
        near, far = socket.socketpair()
        try:
            send_msg(near, ("put", key, put_value))
            probes["request_bytes"] = float(len(far.recv(1 << 16)))

            def codec() -> None:
                send_msg(near, ("put", key, put_value))
                recv_msg(far)

            probes["codec_us_per_msg"] = median_us(codec)
        finally:
            near.close()
            far.close()
    return probes


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def header(seed: int) -> dict:
    """Noise hygiene: what the numbers below were measured on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "steady_machine": "full scale: run pinned to one core, one nice-19 "
                          "spinner per core; wall times at reference speed",
        "seed": seed,
        "engine_seeds": "EngineConfig.seed = ShardConfig.seed = --seed",
    }


def print_result(result: dict) -> None:
    print(f"\n== {result['workload']}  seed={result['seed']}  "
          f"{result['rounds']} rounds x {result['round_ops']} ops  "
          f"attempted={result['attempted']} failed={result['failed']} ==")
    for name, entry in result["metrics"].items():
        line = f"{name:38s} {entry['value']:>16.6g} {entry['unit']:8s}"
        if "q1" in entry:
            line += f" rounds q1={entry['q1']:.6g} q3={entry['q3']:.6g}"
        if "samples" in entry:
            line += f" n={entry['samples']}"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase the op counts are "
                             "sized for (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; omitted: both")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write every result as JSON to FILE")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench.run: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    from bench import metrics
    from bench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    head = header(args.seed)
    print("# " + json.dumps(head))
    results = []
    smoke = args.scale == "smoke"
    with contextlib.nullcontext() if smoke else steady_machine():
        for name in names:
            result = measure(name, args.seed, args.seconds, smoke,
                             trace=args.trace != 0, out_dir=ROOT / "bench-out")
            if args.trace is not None:
                wanted = (metrics.END_TO_END if args.trace == 0
                          else metrics.PER_LAYER)
                result["metrics"] = {m.name: result["metrics"][m.name]
                                     for m in wanted}
            print_result(result)
            results.append(result)
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"header": head, "results": results}, out, indent=1)

    # The contract's last line.  One workload: plain metric names; several:
    # "<workload>/<metric>".
    final_metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for name, entry in result["metrics"].items():
            final_metrics[prefix + name] = {"value": entry["value"],
                                            "unit": entry["unit"]}
    correct = all(result["correct"] for result in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": final_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin str/bytes hashing so set iteration order inside the engine
        # cannot differ between two runs of one seed.
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
