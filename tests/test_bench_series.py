"""scripts/bench_series.py: alternating perfbench runs -> BENCH_<n>.json."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_series.py"
spec = importlib.util.spec_from_file_location("bench_series", SCRIPT)
bench_series = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_series)

METRICS = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


def put_run(runs, side, name, metrics, failed=0):
    run_dir = runs / side / name
    run_dir.mkdir(parents=True)
    result = {"correct": True, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "s"}
                          for k, v in metrics.items()}}
    (run_dir / "result.json").write_text(json.dumps(result))


def test_pairs_summarised_per_workload(tmp_path):
    runs = tmp_path / "runs"
    walls = {"parent": [20.0, 21.0, 22.0, 23.0],
             "change": [15.0, 22.0, 16.0, 17.0]}
    for side, values in walls.items():
        for seed, wall in zip(range(51, 55), values):
            put_run(runs, side, f"score-seed{seed}-trace0",
                    dict.fromkeys(METRICS, 1.0) | {"wall_s": wall},
                    failed=int(side == "change" and seed == 51))
        put_run(runs, side, "score-seed51-trace1",
                {"dataset.load_csv_s": 0.5 if side == "parent" else 0.2})
    out = tmp_path / "BENCH.json"
    assert bench_series.main([str(runs), "--parent-commit", "abc",
                              "--host", "test", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    score = doc["workloads"]["score"]
    assert score["seeds"] == [51, 52, 53, 54]
    wall = score["summary"]["wall_s"]
    assert wall["change_better_pairs"] == 3 and wall["pairs"] == 4
    assert wall["parent"]["median"] == 21.5
    assert wall["change"]["median"] == 16.5
    assert wall["median_ratio"] == 16.5 / 21.5
    assert score["summary"]["setup_s"]["change_better_pairs"] == 0
    assert score["summary"]["failed_ops"] == {"parent": 0, "change": 1}
    assert score["summary"]["attempted_ops"] == {"parent": 40, "change": 40}
    traced = doc["traced"]["score"]["51"]["metrics"]
    assert traced["dataset.load_csv_s"] == [0.5, 0.2]


def test_unpaired_seed_is_an_error(tmp_path):
    runs = tmp_path / "runs"
    for seed in (1, 2):
        put_run(runs, "parent", f"tune-seed{seed}-trace0",
                dict.fromkeys(METRICS, 1.0))
    put_run(runs, "change", "tune-seed1-trace0", dict.fromkeys(METRICS, 1.0))
    with pytest.raises(SystemExit, match="unpaired seeds"):
        bench_series.build(runs, "abc", "test", "")
