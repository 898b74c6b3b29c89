"""Smoke test of the benchmark itself (collected by tier-1, seconds long).

Checks the plumbing, not the numbers: every name in BENCHMARK.json is
printed and vice versa, the contract's limits hold, one seed gives one
stream and one set of exact counts, and ``bench.compare`` gates.
"""

from __future__ import annotations

import json
import re
from itertools import islice

import pytest

from bench import ROOT, compare, metrics, run
from bench.workloads import WORKLOADS, Workload

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT = ("sim_us_per_op", "log_bytes_per_user_byte")


def stream_prefix(workload: Workload, seed: int, n_records: int,
                  n_ops: int) -> list[tuple]:
    _records, stream = workload.inputs(seed, n_records, n_ops)
    return list(islice(stream, n_ops))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict[str, dict]:
    out_dir = tmp_path_factory.mktemp("bench-out")
    return {name: run.measure(name, seed=7, seconds=1, smoke=True, trace=True,
                              out_dir=out_dir)
            for name in WORKLOADS}


def test_benchmark_json_mirrors_the_catalogue() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "-m", "bench.run"]
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    assert SPEC["end_to_end"] == [m.spec() for m in metrics.END_TO_END]
    assert SPEC["per_layer"] == [m.spec() for m in metrics.PER_LAYER]


def test_contract_limits() -> None:
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_every_name_is_printed_and_every_answer_right(smoke: dict) -> None:
    for name, result in smoke.items():
        assert set(result["metrics"]) == set(metrics.CATALOGUE), name
        assert result["correct"] and result["failed"] == 0, result["errors"]
        assert all(result["metrics"][m.name]["value"] > 0
                   for m in metrics.END_TO_END), name


def test_workloads_separate_the_layers(smoke: dict) -> None:
    value = lambda w, m: smoke[w]["metrics"][m]["value"]  # noqa: E731
    for name in WORKLOADS:
        assert value(name, "core.escalations") == 0
        fleet, failures = name == "kv_fleet_process", name == "failures_embedded"
        assert (value(name, "shard.self_share") > 0) == fleet
        assert (value(name, "shard.calls_per_op") > 0) == fleet
        assert (value(name, "core.repairs") > 0) == failures
    assert value("kv_hot_embedded", "buffer.hit_rate") >= 0.99


def test_same_seed_same_exact_counts(smoke: dict, tmp_path) -> None:  # noqa: ANN001
    for name in WORKLOADS:
        again = run.measure(name, seed=7, seconds=1, smoke=True, trace=False,
                            out_dir=tmp_path)
        for exact in EXACT:
            assert (again["metrics"][exact]["value"]
                    == smoke[name]["metrics"][exact]["value"]), (name, exact)
        assert again["attempted"] == smoke[name]["attempted"]


def test_streams_come_from_the_seed() -> None:
    for workload in WORKLOADS.values():
        first = stream_prefix(workload, 1, 500, 400)
        assert first == stream_prefix(workload, 1, 500, 400)
        assert first != stream_prefix(workload, 2, 500, 400)


def test_fleet_stream_is_a_prefix_of_the_hot_stream() -> None:
    hot = stream_prefix(WORKLOADS["kv_hot_embedded"], 3, 500, 900)
    fleet = stream_prefix(WORKLOADS["kv_fleet_process"], 3, 500, 300)
    assert fleet == hot[:300]


def test_last_line_is_the_contract(capsys: pytest.CaptureFixture) -> None:
    code = run.main(["--workload", "kv_hot_embedded", "--seed", "3",
                     "--seconds", "1", "--scale", "smoke", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == {m.name for m in metrics.END_TO_END}
    assert all(set(entry) == {"value", "unit"}
               for entry in last["metrics"].values())


def test_compare_gates(smoke: dict) -> None:
    base = smoke
    rows, acceptable = compare.compare(base, base)
    assert acceptable and {row[-1] for row in rows} == {"same"}

    slower = json.loads(json.dumps(base))
    entry = slower["kv_hot_embedded"]["metrics"]["sim_us_per_op"]
    entry["value"] *= 1.5
    rows, acceptable = compare.compare(base, slower)
    assert not acceptable
    assert [row[:2] for row in rows if row[-1] == "worse"] == [
        ("sim_us_per_op", "kv_hot_embedded")]

    failing = json.loads(json.dumps(base))
    failing["failures_embedded"]["failed"] += 1
    assert not compare.compare(base, failing)[1]
