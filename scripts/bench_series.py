#!/usr/bin/env python3
"""Summarise alternating perfbench runs of a parent commit and a change
into one BENCH_<n>.json.

    python3 scripts/bench_series.py RUNS --parent-commit 2ff33ac \
        --host "2-vCPU shared host, Python 3.11.7" --out BENCH_8.json

RUNS holds one directory per side, `parent/` and `change/`. Each holds
run directories as `perfbench/run.py` leaves them under `perfbench/work/`,
`<workload>-seed<S>-trace<T>/result.json`: copy a run's directory into
its side's directory once the run ends, before the next run (of the same
workload and seed) replaces it. Run the two sides as alternating pairs,
one run at a time, each from its own checkout.

Untraced runs (trace 0) are paired by workload and seed. For each
end-to-end metric that BENCHMARK.json declares, the summary gives each
side's median and quartiles, the number of pairs in which the change was
better, the ratio of the medians and a verdict, the first of these that
holds:

- better: the change wins at least 9 in 10 pairs (ties count for neither
  side), and its median beats the parent's by more than the parent's
  quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's relative `bound` in BENCHMARK.json;
- unresolved: the parent's quartile distance over its median exceeds the
  bound, too wide to call the change flat;
- flat.

Traced runs (trace 1) are listed per workload with their per-layer
metrics side by side.

    python3 scripts/bench_series.py --trend BENCH_*.json

prints, for each workload, the change-side median of every end-to-end
metric in each BENCH_<n>.json, in file-number order, and exits 1 on a
file that lacks one.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_DIR = re.compile(
    r"^(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])$")
BENCH_FILE = re.compile(r"^BENCH_(?P<number>\d+)\.json$")


def end_to_end_metrics():
    """{name: (better, bound)} of BENCHMARK.json's end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load_runs(runs_dir):
    """{side: {(workload, trace): {seed: result}}} from RUNS."""
    runs = {}
    for side in SIDES:
        by_key = runs[side] = {}
        for path in sorted((runs_dir / side).glob("*/result.json")):
            m = RUN_DIR.match(path.parent.name)
            if m is None:
                raise SystemExit(f"unexpected run directory {path.parent}")
            key = (m["workload"], int(m["trace"]))
            result = json.loads(path.read_text(encoding="utf-8"))
            by_key.setdefault(key, {})[int(m["seed"])] = result
    return runs


def spread(values):
    """Median and quartiles (statistics.quantiles' default method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median}


def verdict(parent, change, wins, pairs, better, bound):
    """better, worse, unresolved or flat; see the module docstring."""
    p, c = parent["median"], change["median"]
    gain = p - c if better == "lower" else c - p
    if 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"]:
        return "better"
    if -gain > bound * p:
        return "worse"
    if parent["iqr_over_median"] > bound:
        return "unresolved"
    return "flat"


def summarise(parent, change, end_to_end):
    """Per-metric summary of the seeds both sides ran."""
    seeds = sorted(parent)
    if seeds != sorted(change):
        raise SystemExit(f"unpaired seeds: parent {sorted(parent)}, "
                         f"change {sorted(change)}")
    if len(seeds) < 2:
        raise SystemExit("at least two pairs are needed for quartiles")
    summary = {}
    for name, (better, bound) in end_to_end.items():
        p = [parent[s]["metrics"][name]["value"] for s in seeds]
        c = [change[s]["metrics"][name]["value"] for s in seeds]
        wins = sum((b < a) if better == "lower" else (b > a)
                   for a, b in zip(p, c))
        p_spread, c_spread = spread(p), spread(c)
        summary[name] = {
            "parent": p_spread,
            "change": c_spread,
            "change_better_pairs": wins,
            "pairs": len(seeds),
            "median_ratio": statistics.median(c) / statistics.median(p),
            "bound": bound,
            "verdict": verdict(p_spread, c_spread, wins, len(seeds), better,
                               bound),
        }
    for key in ("failed", "attempted"):
        summary[f"{key}_ops"] = {
            side: sum(runs[s][key] for s in seeds)
            for side, runs in zip(SIDES, (parent, change))}
    return seeds, summary


def side_by_side(parent, change):
    """{metric: [parent value, change value]} of two traced results."""
    names = list(parent["metrics"])
    names += [n for n in change["metrics"] if n not in parent["metrics"]]
    return {n: [side["metrics"].get(n, {}).get("value")
                for side in (parent, change)] for n in names}


def build(runs_dir, parent_commit, host, description):
    end_to_end = end_to_end_metrics()
    runs = load_runs(runs_dir)
    doc = {"description": description, "parent_commit": parent_commit,
           "host": host, "workloads": {}, "traced": {}}
    keys = sorted(set(runs["parent"]) | set(runs["change"]))
    for workload, trace in keys:
        parent = runs["parent"].get((workload, trace), {})
        change = runs["change"].get((workload, trace), {})
        if trace == 0:
            seeds, summary = summarise(parent, change, end_to_end)
            doc["workloads"][workload] = {
                "seeds": seeds, "summary": summary,
                "runs": {"parent": {str(s): parent[s] for s in seeds},
                         "change": {str(s): change[s] for s in seeds}}}
            continue
        for seed in sorted(set(parent) & set(change)):
            doc["traced"].setdefault(workload, {})[str(seed)] = {
                "command": f"python3 perfbench/run.py --workload {workload} "
                           f"--seed {seed} --trace 1",
                "metrics": side_by_side(parent[seed], change[seed]),
            }
    return doc


def trend(paths, metrics):
    """{workload: {file name: [change-side median of each metric]}} of
    BENCH_<n>.json files, in file-number order. Exits 1 on a file that
    summarises no workload, or lacks a metric's median for one."""
    def number(path):
        m = BENCH_FILE.match(path.name)
        if m is None:
            raise SystemExit(f"{path}: not named BENCH_<n>.json")
        return int(m["number"])

    table = {}
    for path in sorted(paths, key=number):
        try:
            workloads = json.loads(
                path.read_text(encoding="utf-8"))["workloads"]
            medians = {w: [float(entry["summary"][m]["change"]["median"])
                           for m in metrics]
                       for w, entry in workloads.items()}
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"{path}: no change-side medians "
                             f"({type(exc).__name__}: {exc})")
        if not medians:
            raise SystemExit(f"{path}: no workloads")
        for workload, row in medians.items():
            table.setdefault(workload, {})[path.name] = row
    return table


def render_trend(table, metrics):
    lines = []
    for workload in sorted(table):
        lines.append(workload)
        lines.append(f"  {'file':14}" + "".join(f"{m:>13}" for m in metrics))
        for name, row in table[workload].items():
            lines.append(f"  {name:14}" + "".join(f"{v:13.4f}" for v in row))
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", type=Path, nargs="?", help="directory holding "
                   "parent/ and change/ run directories")
    p.add_argument("--trend", type=Path, nargs="+", metavar="BENCH_JSON",
                   help="print the change-side medians across these "
                   "BENCH_<n>.json files instead")
    p.add_argument("--parent-commit")
    p.add_argument("--host",
                   help="hardware and software the runs were made on")
    p.add_argument("--description", default=(
        "perfbench result.json of the parent commit and of the change, run "
        "as alternating pairs, each side from its own checkout, one run at "
        "a time"))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.trend:
        if args.runs is not None:
            p.error("--trend takes no RUNS directory")
        metrics = list(end_to_end_metrics())
        print(render_trend(trend(args.trend, metrics), metrics))
        return 0
    missing = [name for name, value in (
        ("RUNS", args.runs), ("--parent-commit", args.parent_commit),
        ("--host", args.host), ("--out", args.out)) if value is None]
    if missing:
        p.error("the following arguments are required: "
                + ", ".join(missing))
    doc = build(args.runs, args.parent_commit, args.host, args.description)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, entry in doc["workloads"].items():
        for name, s in entry["summary"].items():
            if "median_ratio" in s:
                print(f"{workload:6} {name:12} {s['parent']['median']:12.4f} "
                      f"-> {s['change']['median']:12.4f}  "
                      f"better {s['change_better_pairs']}/{s['pairs']}  "
                      f"{s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
