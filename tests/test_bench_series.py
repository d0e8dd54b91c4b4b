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


def test_verdict_per_metric(tmp_path, capsys):
    # Ten pairs; bounds from BENCHMARK.json: 0.25 for times, 0.1 for RSS.
    seeds = range(71, 81)
    tight = [100.0 + 0.1 * i for i in range(10)]
    values = {
        # wins 10/10, gap far beyond the parent's quartiles
        "setup_s": ([1.4 + 0.01 * i for i in range(10)],
                    [0.26 + 0.001 * i for i in range(10)]),
        # 30% slower in the median: beyond the 0.25 bound
        "wall_s": (tight, [130.0 + 0.1 * i for i in range(10)]),
        # parent's quartile distance is 50% of its median
        "op_p50_ms": ([50.0, 150.0] * 5, [60.0, 140.0] * 5),
        # wins 5/10 by a hair
        "op_p90_ms": (tight, [v + (-0.01 if i % 2 else 0.01)
                              for i, v in enumerate(tight)]),
        # wins 8/10 by 20%: below 9 in 10 pairs
        "peak_rss_mb": (tight, [v * (0.8 if i < 8 else 1.01)
                                for i, v in enumerate(tight)]),
    }
    runs = tmp_path / "runs"
    for side_index, side in enumerate(("parent", "change")):
        for i, seed in enumerate(seeds):
            put_run(runs, side, f"train-seed{seed}-trace0",
                    {k: v[side_index][i] for k, v in values.items()})
    out = tmp_path / "BENCH.json"
    assert bench_series.main([str(runs), "--parent-commit", "abc",
                              "--host", "test", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["workloads"]["train"]["summary"]
    verdicts = {k: summary[k]["verdict"] for k in METRICS}
    assert verdicts == {"setup_s": "better", "wall_s": "worse",
                        "op_p50_ms": "unresolved", "op_p90_ms": "flat",
                        "peak_rss_mb": "flat"}
    assert summary["peak_rss_mb"]["bound"] == 0.1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines] == list(verdicts.values())
    assert lines[0].split()[1] == "setup_s"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_verdict_thresholds(better):
    sign = 1.0 if better == "lower" else -1.0
    parent = bench_series.spread([100.0, 102.0, 104.0, 106.0, 108.0])
    q_distance = parent["q3"] - parent["q1"]

    def verdict(change_median, wins, pairs=10):
        change = {"median": change_median}
        return bench_series.verdict(parent, change, wins, pairs, better,
                                    0.25)

    median = parent["median"]
    # Better needs both 9 in 10 pairs and a gap beyond the quartiles.
    beyond = median - sign * (q_distance + 0.5)
    assert verdict(beyond, 9) == "better"
    assert verdict(beyond, 8) == "flat"
    assert verdict(median - sign * (q_distance - 0.5), 10) == "flat"
    assert verdict(beyond, 18, pairs=20) == "better"
    # Worse is judged against the bound, whatever the pairs say.
    assert verdict(median + sign * 0.26 * median, 0) == "worse"
    assert verdict(median + sign * 0.24 * median, 0) == "flat"
    wide = bench_series.spread([50.0, 150.0, 50.0, 150.0])
    assert bench_series.verdict(wide, {"median": 100.0}, 5, 10, better,
                                0.25) == "unresolved"


def test_unpaired_seed_is_an_error(tmp_path):
    runs = tmp_path / "runs"
    for seed in (1, 2):
        put_run(runs, "parent", f"tune-seed{seed}-trace0",
                dict.fromkeys(METRICS, 1.0))
    put_run(runs, "change", "tune-seed1-trace0", dict.fromkeys(METRICS, 1.0))
    with pytest.raises(SystemExit, match="unpaired seeds"):
        bench_series.build(runs, "abc", "test", "")


def put_bench(path, medians, **extra):
    """A BENCH_<n>.json whose workloads have these change-side medians."""
    workloads = {
        w: {"seeds": [1, 2], "runs": {},
            "summary": {m: {"parent": {"median": 0.0},
                            "change": {"median": v}}
                        for m, v in zip(METRICS, row)}}
        for w, row in medians.items()}
    path.write_text(json.dumps({"workloads": workloads, **extra}))


def test_trend_in_file_number_order(tmp_path, capsys):
    # BENCH_6 has the old layout: traced runs under `traced_tune`, no
    # failed or attempted op counts.
    put_bench(tmp_path / "BENCH_6.json", {"tune": [1, 2, 3, 4, 5]},
              traced_tune={})
    put_bench(tmp_path / "BENCH_10.json",
              {"tune": [6, 7, 8, 9, 10], "score": [0.5] * 5}, traced={})
    paths = [tmp_path / "BENCH_10.json", tmp_path / "BENCH_6.json"]
    table = bench_series.trend(paths, METRICS)
    assert table == {"tune": {"BENCH_6.json": [1, 2, 3, 4, 5],
                              "BENCH_10.json": [6, 7, 8, 9, 10]},
                     "score": {"BENCH_10.json": [0.5] * 5}}
    assert list(table["tune"]) == ["BENCH_6.json", "BENCH_10.json"]
    assert bench_series.main(["--trend", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "score"
    assert lines[1].split() == ["file", *METRICS]
    assert lines[3] == "tune"
    assert [line.split()[0] for line in lines[5:]] == [
        "BENCH_6.json", "BENCH_10.json"]
    assert float(lines[6].split()[2]) == 7.0


def test_trend_rejects_a_malformed_file(tmp_path):
    path = tmp_path / "BENCH_3.json"
    put_bench(path, {"tune": [1, 2, 3, 4]})  # no peak_rss_mb
    with pytest.raises(SystemExit, match="BENCH_3.json: no change-side"):
        bench_series.trend([path], METRICS)
    path.write_text(json.dumps({"workloads": {}}))
    with pytest.raises(SystemExit, match="no workloads"):
        bench_series.trend([path], METRICS)
    with pytest.raises(SystemExit, match="not named"):
        bench_series.trend([tmp_path / "bench.json"], METRICS)
