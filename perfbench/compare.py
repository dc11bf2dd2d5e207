#!/usr/bin/env python3
"""Compare two versions of the program on the benchmark, in paired runs.

Usage::

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10
    python3 perfbench/compare.py --load pairs.json

``--parent`` and ``--change`` are two checkouts of the repository, each with
the same ``perfbench/``.  Every run lasts ``run_seconds`` of ``BENCHMARK.json``,
the length its bounds were measured at.  Pair ``i`` runs both on seed
``FIRST_SEED + i``, parent first when ``i`` is even and change first when it
is odd.  For every (workload, end-to-end metric) the report gives each
side's median and quartiles and a verdict:

- ``change better`` / ``change worse``: that side was better in at least
  9/10 of the pairs (ties count for neither) and the medians differ by more
  than the parent's interquartile range;
- ``unresolved``: no such win, and the run-to-run spread (interquartile
  range over median) of either side exceeds the metric's bound;
- ``regression``: no such win, and the change's median is worse than the
  parent's by more than the bound;
- ``no change``: within the bound.

A side whose runs failed an output check wins nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
#: Seed of the first pair: away from the pinned default seed 0.
FIRST_SEED = 1000
RUN_TIMEOUT_S = 900


def _bench_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "perfbench").glob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    digest.update((checkout / "BENCHMARK.json").read_bytes())
    return digest.hexdigest()


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=checkout, capture_output=True,
                               text=True, timeout=RUN_TIMEOUT_S)
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": completed.stderr[-2000:]}


def run_pairs(parent: Path, change: Path, workloads, pairs: int,
              seconds: float) -> list[dict]:
    records = []
    for workload in workloads:
        for index in range(pairs):
            seed = FIRST_SEED + index
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            record = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                record[side] = _run(parent if side == "parent" else change,
                                    workload, seed, seconds)
            print(f"{workload} seed {seed}: "
                  f"parent {'ok' if record['parent'].get('correct') else 'FAILED'}, "
                  f"change {'ok' if record['change'].get('correct') else 'FAILED'}",
                  flush=True)
            records.append(record)
    return records


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, parent: list[float], change: list[float],
            failed: bool) -> tuple[str, int, int]:
    """The module docstring's rule for one metric: (verdict, change wins,
    parent wins) over the pairs ``zip(parent, change)``."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if failed:
        return "failed checks", change_wins, parent_wins
    if not parent:
        return "no runs", change_wins, parent_wins
    p_q1, p_median, p_q3 = _summary(parent)
    c_q1, c_median, c_q3 = _summary(change)
    apart = abs(c_median - p_median) > p_q3 - p_q1
    if change_wins >= WIN_SHARE * len(parent) and apart:
        return "change better", change_wins, parent_wins
    if parent_wins >= WIN_SHARE * len(parent) and apart:
        return "change worse", change_wins, parent_wins
    spread = max((p_q3 - p_q1) / abs(p_median) if p_median else 0.0,
                 (c_q3 - c_q1) / abs(c_median) if c_median else 0.0)
    if spread > metric["bound"]:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "change better", change_wins, parent_wins
        return "unresolved", change_wins, parent_wins
    if p_median and sign * (p_median - c_median) / abs(p_median) > metric["bound"]:
        return "regression", change_wins, parent_wins
    return "no change", change_wins, parent_wins


def _cell(values: list[float]) -> str:
    q1, median, q3 = _summary(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def report(records: list[dict], spec: dict) -> int:
    """Print one row per (workload, metric); 1 if the change lost anywhere."""
    print(f"{'workload':15s} {'metric':13s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'delta':>8s} {'wins c/p':>9s}  verdict")
    losses = 0
    for workload in dict.fromkeys(record["workload"] for record in records):
        rows = [r for r in records if r["workload"] == workload]
        failed = any(not r[side].get("correct")
                     for r in rows for side in ("parent", "change"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(r["parent"]["metrics"][name]["value"],
                      r["change"]["metrics"][name]["value"])
                     for r in rows
                     if r["parent"].get("correct") and r["change"].get("correct")]
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            outcome, change_wins, parent_wins = verdict(metric, parent, change, failed)
            p_median, c_median = _summary(parent)[1], _summary(change)[1]
            delta = (c_median / p_median - 1.0) * 100.0 if p_median else float("nan")
            print(f"{workload:15s} {name:13s} {_cell(parent):>36s} {_cell(change):>36s} "
                  f"{delta:>+7.2f}% {change_wins:>4d}/{parent_wins:<4d}  {outcome}")
            losses += outcome in ("change worse", "regression", "failed checks")
    return 1 if losses else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--save", type=Path, help="write the paired results here")
    parser.add_argument("--load", type=Path, help="report on saved paired results")
    args = parser.parse_args(argv)

    if args.load is not None:
        saved = json.loads(args.load.read_text())
        return report(saved["records"], saved["benchmark"])
    if args.parent is None or args.change is None:
        parser.error("give --parent and --change, or --load")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    if _bench_digest(args.parent) != _bench_digest(args.change):
        print("compare: the two checkouts carry different benchmark code; "
              "compare them with identical perfbench/ and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    records = run_pairs(args.parent.resolve(), args.change.resolve(), workloads,
                        args.pairs, spec["run_seconds"])
    if args.save is not None:
        args.save.write_text(json.dumps({"benchmark": spec, "records": records},
                                        indent=2) + "\n")
    return report(records, spec)


if __name__ == "__main__":
    sys.exit(main())
