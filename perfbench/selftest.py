#!/usr/bin/env python3
"""Self-test for the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with `--tiny --inject-failure`, untraced and traced,
and checks that:
- the last stdout line is the result object, with exactly the metrics
  BENCHMARK.json declares, under their declared units;
- every end-to-end and per-layer metric is printed by name with its unit;
- the injected failing op (a missing model path) is counted in `failed`
  and `error_rate` and the harness still finishes with exit status 0;
- the tracer rebinds every by-name import of a traced function and
  restores the originals afterwards;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
TIMEOUT_S = 300

E2E = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
       "peak_rss_mb": "MB", "error_rate": "fraction"}
PER_LAYER = {
    "gbtree.fit_s": "s", "gbtree.fit_calls": "count",
    "gbtree.trees_built": "count", "gbtree.leaves_built": "count",
    "gbtree.fit_ms_per_tree": "ms", "gbtree.tree_predict_s": "s",
    "gbtree.tree_predict_calls": "count",
    "gbtree.useful_tree_ratio": "fraction", "gbtree.predict_s": "s",
    "gbtree.predict_rows_per_s": "1/s", "gbtree.load_model_s": "s",
    "gbtree.model_json_bytes": "bytes", "gbtree.save_model_s": "s",
    "gbtree.save_model_failures": "count", "dataset.load_csv_s": "s",
    "dataset.load_csv_rows_per_s": "1/s",
    "dataset.generate_synthetic_s": "s", "dataset.write_csv_s": "s",
    "encoding.expand_temporal_s": "s", "features.build_matrix_s": "s",
    "features.build_matrix_calls": "count",
    "evaluation.cross_validate_s": "s", "evaluation.cv_folds": "count",
    "evaluation.holdout_rmse": "kW", "evaluation.score_rmse": "kW",
    "evaluation.cv_best_score": "kW", "tuner.optimize_s": "s",
    "tuner.gp_fit_s": "s", "tuner.gp_fit_calls": "count",
    "tuner.objective_s": "s", "tuner.acquisition_s": "s",
    "tuner.trials": "count", "tuner.failed_trials": "count",
    "cli.import_s": "s", "cli.self_s": "s", "proc.cpu_s": "s",
    "proc.cpu_util": "fraction", "trace.overhead_s": "s",
}

failures = []


def expect(cond, message):
    print(("PASS " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def printed(stdout, name):
    match = re.search(rf"^metric {re.escape(name)} = (\S+) (\S+)", stdout,
                      re.MULTILINE)
    return (float(match.group(1)), match.group(2)) if match else None


def check_run(bench, workload, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--inject-failure"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, cwd=ROOT)
    what = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{what}: exit status 0 "
           f"(got {proc.returncode}: {proc.stderr.strip()[-300:]})")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys")
    expect(result["correct"] is True, f"{what}: correct")
    expect(result["attempted"] >= 2 and result["failed"] >= 1,
           f"{what}: injected failure counted "
           f"({result['failed']} of {result['attempted']} failed)")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    expect({m["name"]: m["unit"] for m in declared}
           == {n: v["unit"] for n, v in result["metrics"].items()},
           f"{what}: result metrics and units match BENCHMARK.json")
    expect(all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values()),
           f"{what}: every metric value is a number")
    names = PER_LAYER if trace else E2E
    missing = [n for n, unit in names.items()
               if (printed(proc.stdout, n) or (None, None))[1] != unit]
    expect(not missing, f"{what}: every metric printed with its unit "
           f"(missing {missing})")
    if trace:
        expect("tracing: untraced wall" in proc.stdout
               and re.search(r"^layer\s+setup self s", proc.stdout, re.M),
               f"{what}: tracing overhead and layer self-time table printed")
        expect((HERE / "work" / f"{workload}-seed3-trace1" / "spans.jsonl")
               .is_file(), f"{what}: spans written")
    else:
        rate = printed(proc.stdout, "error_rate")
        expect(rate is not None and rate[0] > 0, f"{what}: error_rate > 0")


def check_bindings():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cyclecast.cli as cli
    from cyclecast import evaluation, features
    from tracing import Tracer
    original = features.build_matrix
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = features.build_matrix
        ok = (wrapped is not original and cli.build_matrix is wrapped
              and evaluation.build_matrix is wrapped)
    finally:
        tracer.uninstall()
    restored = (features.build_matrix is original
                and cli.build_matrix is original
                and evaluation.build_matrix is original)
    expect(ok and restored, "tracer wraps by-name bindings and restores them")


def check_without_sources():
    bare = HERE / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program's sources: non-zero exit and no result")
    shutil.rmtree(bare)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in ("train", "tune", "score"):
        for trace in (0, 1):
            check_run(bench, workload, trace)
    check_bindings()
    check_without_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
