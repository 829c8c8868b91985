"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is a result written by ``run.py --out``.  Runs are grouped by
workload; within a workload the i-th parent run (by start time) is paired
with the i-th change run.  For every (metric, workload) pair the verdict
is one of:

* ``gain``: at least 10 pairs, run in alternating order, the change wins at
  least 9 in 10 of them (ties count for neither side), and the medians
  differ by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved``: not a regression, but the parent's own interquartile
  spread is wider than the bound, and not every change run reads better
  than every parent run;
* ``no regression``: none of the above.

Per-layer metrics have no bound; they get ``gain`` or ``no gain shown``,
and a count that repeats exactly on both sides is marked ``exact``.
``--spread`` instead reports, for one set of runs, each metric's
interquartile range as a share of its median against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(paths: list[str]) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        by_workload.setdefault(data["detail"]["workload"], []).append(data)
    for runs in by_workload.values():
        runs.sort(key=lambda r: r["detail"]["started_unix"])
    return by_workload


def metric_specs() -> dict[str, dict]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    out = {m["name"]: m for m in spec["end_to_end"]}
    out.update({m["name"]: {**m, "bound": None} for m in spec["per_layer"]})
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[dict], change: list[dict], name: str, spec: dict) -> dict:
    lower = spec["better"] == "lower"
    p = [r["result"]["metrics"][name]["value"] for r in parent]
    c = [r["result"]["metrics"][name]["value"] for r in change]
    pairs = list(zip(parent, change))
    firsts = [a["detail"]["started_unix"] < b["detail"]["started_unix"] for a, b in pairs]
    alternating = all(x != y for x, y in zip(firsts, firsts[1:]))

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(better(b["result"]["metrics"][name]["value"], a["result"]["metrics"][name]["value"]) for a, b in pairs)
    p_q1, p_med, p_q3 = quartiles(p)
    c_q1, c_med, c_q3 = quartiles(c)
    iqr = p_q3 - p_q1
    gain_by = (p_med - c_med) if lower else (c_med - p_med)
    out = {
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "wins": wins,
        "pairs": len(pairs),
        "alternating": alternating,
    }
    if len(pairs) >= 10 and alternating and wins >= 0.9 * len(pairs) and gain_by > iqr:
        out["verdict"] = "gain"
        return out
    bound = spec["bound"]
    if bound is None:
        exact = len(set(p)) == 1 and len(set(c)) == 1
        out["verdict"] = "exact" if exact else "no gain shown"
        return out
    scale = abs(p_med) or 1.0
    all_better = all(better(x, y) for x in c for y in p)
    if -gain_by / scale > bound:
        out["verdict"] = "regression"
    elif iqr / scale > bound and not all_better:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "no regression"
    return out


def spread_report(runs: dict[str, list[dict]], specs: dict[str, dict]) -> int:
    worst = 0
    for workload, rs in sorted(runs.items()):
        names = rs[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                worst = max(worst, 0 if spread <= bound else 1)
            print(f"{workload:14s} {name:40s} n={len(values):2d} median={med:.6g} iqr/median={spread:.4f} bound={bound} {flag}")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--spread", nargs="+", default=[], help="result files of one commit")
    args = parser.parse_args(argv)
    specs = metric_specs()
    if args.spread:
        return spread_report(load_runs(args.spread), specs)
    if not args.parent or not args.change:
        parser.error("give --parent and --change result files, or --spread")
    parent, change = load_runs(args.parent), load_runs(args.change)
    status = 0
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload}: runs on one side only, not compared")
            status = 1
            continue
        names = parent[workload][0]["result"]["metrics"]
        for name in names:
            if name not in specs:
                continue
            v = verdict(parent[workload], change[workload], name, specs[name])
            pq, cq = v["parent"], v["change"]
            print(
                f"{workload:14s} {name:40s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                f"  wins {v['wins']}/{v['pairs']}{'' if v['alternating'] else ' (not alternating)'}"
                f"  {v['verdict']}"
            )
            if v["verdict"] == "regression":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
