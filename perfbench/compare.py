"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py --parent parent.jsonl --change change.jsonl

Each file holds the --record lines of run.py.  Within a workload, the i-th
parent run and the i-th change run form a pair; run them back to back and
alternate which side goes first, with the same --seconds and seeds on both
sides; a workload whose pairs differ in seed or --seconds is not compared.
For every end-to-end metric of BENCHMARK.json and every workload the verdict
is one of:

- gain: at least 10 pairs, the change wins at least 9/10 of them (ties count
  for neither), the medians differ by more than the parent's quartile spread,
  in the better direction, and the change's runs failed no more ops than the
  parent's;
- regression: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
- unresolved: the parent's own quartile spread is wider than the bound, and
  not every change run beats every parent run;
- same: none of the above.

Exit code 1 when any metric regressed or a workload's pairs did not match,
else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    """The untraced records of a --record file, by workload, in file order."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                runs[rec["workload"]].append(rec)
    return runs


def mismatched_pairs(parent: list[dict], change: list[dict]) -> list[int]:
    """Indexes of the pairs whose two runs differ in seed or run length."""
    return [i for i, (p, c) in enumerate(zip(parent, change))
            if (p["seed"], p["seconds"]) != (c["seed"], c["seconds"])]


def failed_ops(runs: list[dict]) -> int:
    return sum(r["result"]["failed"] for r in runs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_better: bool, bound: float,
            more_failures: bool) -> dict:
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    scale = abs(pmed) or 1.0
    worse = (cmed - pmed) / scale if lower_better else (pmed - cmed) / scale
    spread = (p3 - p1) / scale
    all_better = all(better(c, p) for c in change for p in parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and not more_failures
            and better(cmed, pmed) and abs(cmed - pmed) > p3 - p1):
        word = "gain"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif worse > bound:
        word = "regression"
    else:
        word = "same"
    return {"parent": pmed, "change": cmed, "worse": worse, "spread": spread,
            "pairs": len(pairs), "wins": wins, "verdict": word}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text())
    parent, change = load(args.parent), load(args.change)
    regressed = False
    print(f"{'workload':9s} {'metric':20s} {'parent':>12s} {'change':>12s} {'worse':>8s} "
          f"{'spread':>7s} {'bound':>6s} {'wins':>7s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        runs_p, runs_c = parent[workload], change[workload]
        bad_pairs = mismatched_pairs(runs_p, runs_c)
        if bad_pairs:
            regressed = True
            print(f"{workload}: pairs {bad_pairs} differ in seed or seconds, not compared")
            continue
        more_failures = failed_ops(runs_c[:len(runs_p)]) > failed_ops(runs_p[:len(runs_c)])
        if more_failures:
            print(f"{workload}: the change failed more ops than the parent, no gain counts")
        for m in spec["end_to_end"]:
            name = m["name"]
            v = verdict([r["result"]["metrics"][name]["value"] for r in runs_p],
                        [r["result"]["metrics"][name]["value"] for r in runs_c],
                        m["better"] == "lower", m["bound"], more_failures)
            regressed |= v["verdict"] == "regression"
            print(f"{workload:9s} {name:20s} {v['parent']:12.5g} {v['change']:12.5g} "
                  f"{v['worse']:+8.3f} {v['spread']:7.3f} {m['bound']:6.3g} "
                  f"{v['wins']:3d}/{v['pairs']:<3d}  {v['verdict']}")
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload}: results on one side only, not compared")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
