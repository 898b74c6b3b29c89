"""``python3 -m bench.compare A.json B.json`` — is B worse than A?

A and B are files written by ``python3 -m bench.run --out``.  For every
gated metric (one with a bound in ``bench.metrics``) and every workload it
applies to, prints both values, the change from A to B, the bound and a
verdict:

* ``worse`` / ``better`` — B differs from A by more than the bound;
* ``same`` — within the bound;
* ``unresolved`` — the quartile spread between rounds, on either side,
  is wider than the bound and the change does not clear it, so "same"
  cannot be claimed.

Exits non-zero on any ``worse`` and on any rise in failed operations.
"""

from __future__ import annotations

import json
import sys

from bench.metrics import END_TO_END, PER_LAYER, Metric


def load(path: str) -> dict[str, dict]:
    with open(path) as handle:
        return {result["workload"]: result
                for result in json.load(handle)["results"]}


def spread(entry: dict) -> float:
    """Inter-round quartile distance as a share of the value."""
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(metric: Metric, a: dict, b: dict) -> tuple[float, str]:
    """(relative change A -> B, verdict) for one metric on one workload."""
    before, after = a["value"], b["value"]
    if before == after:
        return 0.0, "same"
    if not before:
        return float("inf"), "worse" if metric.better == "lower" else "better"
    change = (after - before) / abs(before)
    worsening = change if metric.better == "lower" else -change
    noise = max(spread(a), spread(b))
    if noise > metric.bound and abs(change) <= noise:
        return change, "unresolved"
    if worsening > metric.bound:
        return change, "worse"
    if -worsening > metric.bound:
        return change, "better"
    return change, "same"


def compare(a: dict[str, dict], b: dict[str, dict]) -> tuple[list[tuple], bool]:
    """Rows (metric, workload, A, B, change, bound, verdict) and whether
    B is acceptable."""
    rows, acceptable = [], True
    for metric in END_TO_END + PER_LAYER:
        if metric.bound is None:
            continue
        for workload in metric.workloads:
            if workload not in a or workload not in b:
                continue
            ours = a[workload]["metrics"].get(metric.name)
            theirs = b[workload]["metrics"].get(metric.name)
            if ours is None or theirs is None:
                continue
            change, word = verdict(metric, ours, theirs)
            acceptable = acceptable and word != "worse"
            rows.append((metric.name, workload, ours["value"], theirs["value"],
                         change, metric.bound, word))
    for workload in a.keys() & b.keys():
        if b[workload]["failed"] > a[workload]["failed"]:
            acceptable = False
    return rows, acceptable


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows, acceptable = compare(load(args[0]), load(args[1]))
    print(f"{'metric':28s} {'workload':20s} {'A':>14s} {'B':>14s} "
          f"{'change':>9s} {'bound':>6s}  verdict")
    for name, workload, before, after, change, bound, word in rows:
        print(f"{name:28s} {workload:20s} {before:14.6g} {after:14.6g} "
              f"{change:+9.3%} {bound:6.0%}  {word}")
    print("acceptable" if acceptable else "NOT acceptable: B is worse than A")
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())
