import json

import numpy as np
import pytest

from cyclecast import cli, evaluation
from cyclecast.cli import main, render_table, strip_timing
from cyclecast.dataset import SyntheticConfig, generate_synthetic
from cyclecast.features import FeatureSpec
from cyclecast.gbtree import HyperParams, load_model, predict


def run_cli(*argv):
    return main(list(argv))


class TestSynth:
    def test_default_year_row_count(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("synth", "--out", str(out), "--n-hours", "8737")
        assert code == 0
        csv_path = out / "synthetic.csv"
        n_rows = len(csv_path.read_text().splitlines()) - 1
        assert n_rows == 8737
        report = json.loads((out / "synth_report.json").read_text())
        assert report["experiment"] == "synth"
        assert report["frame"]["rows"] == 8737

    def test_same_seed_byte_identical_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("synth", "--out", str(a), "--n-hours", "200", "--seed", "5")
        run_cli("synth", "--out", str(b), "--n-hours", "200", "--seed", "5")
        assert (a / "synthetic.csv").read_bytes() == \
            (b / "synthetic.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("synth", "--out", str(a), "--n-hours", "200", "--seed", "1")
        run_cli("synth", "--out", str(b), "--n-hours", "200", "--seed", "2")
        assert (a / "synthetic.csv").read_bytes() != \
            (b / "synthetic.csv").read_bytes()


class TestBench:
    def bench(self, out, *extra):
        return run_cli("bench", "--out", str(out), "--n-hours", "900",
                       "--configs", "xgb-style", "--no-timing", *extra)

    def test_report_structure(self, tmp_path):
        out = tmp_path / "out"
        assert self.bench(out) == 0
        report = json.loads((out / "bench_report.json").read_text())
        assert report["experiment"] == "bench"
        assert {c["encoding"] for c in report["cells"]} == {"ordinal",
                                                            "sinusoidal"}
        assert "xgb-style" in \
            report["relative_rmse_improvement_sinusoidal_vs_ordinal"]
        imp = report["feature_importance"]
        assert abs(sum(imp.values()) - 1.0) < 1e-9
        assert set(report["period_breakdown"]) == {
            "Morning (6-12)", "Afternoon (12-18)", "Evening (18-24)",
            "Night (0-6)"}
        assert "kurtosis" in report["residual_stats"]
        for cell in report["cells"]:
            assert "train_time_s" not in cell

    def test_no_timing_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.bench(a) == 0
        assert self.bench(b) == 0
        assert (a / "bench_report.json").read_bytes() == \
            (b / "bench_report.json").read_bytes()

    @pytest.mark.parametrize("config", ["xgb-style", "lgbm-style"])
    def test_save_models_round_trip(self, tmp_path, config):
        out = tmp_path / "out"
        assert self.bench(out, "--save-models", "--configs", config,
                          "--encodings", "sinusoidal") == 0
        model_path = out / f"model_{config}_sinusoidal.json"
        assert model_path.exists()
        payload = json.loads(model_path.read_text())
        assert "feature_spec" in payload["extra"]

        # Refit the same cell in memory and compare predictions bit for bit.
        report = json.loads((out / "bench_report.json").read_text())
        frame = generate_synthetic(
            SyntheticConfig(**report["source"]["synthetic"]))
        spec = FeatureSpec.from_dict(payload["extra"]["feature_spec"])
        params = HyperParams.from_dict(report["configs"][config])
        fitted = evaluation.holdout(frame, spec, params,
                                    report["test_fraction"])
        loaded, _ = load_model(model_path)
        X = fitted["matrix"].values
        assert np.array_equal(predict(loaded, X),
                              predict(fitted["model"], X))

    def test_unknown_encoding_is_usage_error(self, tmp_path):
        assert run_cli("bench", "--out", str(tmp_path),
                       "--encodings", "fourier") == 1

    def test_unknown_config_is_usage_error(self, tmp_path):
        assert run_cli("bench", "--out", str(tmp_path),
                       "--configs", "catboost-style") == 1

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run_cli("bench", "--out", str(tmp_path),
                       "--data", str(tmp_path / "nope.csv")) == 2

    def test_utc_offset_timestamps_are_data_error(self, tmp_path):
        # Every row carries an offset, so every row is rejected.
        path = tmp_path / "offsets.csv"
        path.write_text(
            "datetime,Global_active_power,Global_reactive_power,Voltage,"
            "Global_intensity,Sub_metering_1,Sub_metering_2,Sub_metering_3\n"
            + "".join(f"2023-01-01 {h:02d}:00:00+00:00,1.0,0.1,240.0,4.2,"
                      "0.0,1.0,2.0\n" for h in range(24)))
        assert self.bench(tmp_path, "--data", str(path)) == 2

    def test_removed_goss_switch_in_params_is_usage_error(self, tmp_path):
        # `goss_inverse_weights` is no longer a hyperparameter.
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"goss_inverse_weights": False}))
        assert self.bench(tmp_path, "--params", str(path)) == 1

    @pytest.mark.parametrize("fraction", ["0", "1.0", "1.5", "-0.1"])
    def test_test_fraction_out_of_range_is_usage_error(self, tmp_path,
                                                       fraction):
        assert self.bench(tmp_path, "--test-fraction", fraction) == 1


class TestAblation:
    def test_row_order_and_deltas(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("ablation", "--out", str(out), "--n-hours", "900",
                       "--no-timing")
        assert code == 0
        report = json.loads((out / "ablation_report.json").read_text())
        labels = [r["feature_set"] for r in report["rows"]]
        assert labels == ["All Features", "No Sinusoidal",
                          "No Rolling Stats", "No Lag Features"]
        assert report["rows"][0]["delta_performance"] is None
        for row in report["rows"][1:]:
            assert isinstance(row["delta_performance"], float)
            assert row["n_features"] < report["rows"][0]["n_features"]
        assert "positive means removal degrades" in report["sign_convention"]

    def test_deterministic_with_no_timing(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("ablation", "--out", str(out), "--n-hours", "900",
                    "--no-timing")
        assert (a / "ablation_report.json").read_bytes() == \
            (b / "ablation_report.json").read_bytes()


class TestTune:
    def tune(self, out, budget="6", init="3"):
        return run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--budget", budget, "--init", init,
                       "--delta", "60", "--k", "2",
                       "--n-estimators-cap", "20", "--no-timing")

    def test_budget_accounting_and_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert self.tune(out) == 0
        trials = [json.loads(line)
                  for line in (out / "trials.jsonl").read_text().splitlines()]
        assert len(trials) == 6
        assert [t["iteration"] for t in trials] == list(range(6))

        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "iteration,incumbent_rmse"
        assert len(lines) == 7
        incumbents = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(incumbents, incumbents[1:]))

        report = json.loads((out / "tune_report.json").read_text())
        best_params = json.loads((out / "best_params.json").read_text())
        assert report["best_params"] == best_params
        assert best_params["n_estimators"] <= 20

    def test_tuned_no_worse_than_default(self, tmp_path):
        # The default configuration is seeded as the first trial, so the
        # incumbent can only improve on it.
        out = tmp_path / "out"
        assert self.tune(out) == 0
        report = json.loads((out / "tune_report.json").read_text())
        assert report["best_cv_score"] <= report["default_cv_score"]

    def test_no_timing_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.tune(a) == 0
        assert self.tune(b) == 0
        assert "wall_time" not in (a / "trials.jsonl").read_text()
        for name in ("trials.jsonl", "tune_report.json", "convergence.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_budget_must_exceed_init(self, tmp_path):
        assert self.tune(tmp_path / "out", budget="3", init="3") == 1

    def test_cv_layout_too_large_is_usage_error(self, tmp_path):
        # 30 folds of 168 rows cannot fit in 600 rows; no trial runs.
        out = tmp_path / "out"
        assert run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--k", "30", "--delta", "168", "--budget", "3",
                       "--init", "2", "--no-timing") == 1
        assert not (out / "trials.jsonl").exists()


class TestPredict:
    def fitted_model(self, tmp_path):
        out = tmp_path / "train"
        run_cli("bench", "--out", str(out), "--n-hours", "900",
                "--configs", "xgb-style", "--encodings", "sinusoidal",
                "--save-models", "--no-timing")
        run_cli("synth", "--out", str(out), "--n-hours", "400", "--seed",
                "99")
        return (out / "model_xgb-style_sinusoidal.json",
                out / "synthetic.csv")

    def test_round_trip_and_metrics(self, tmp_path):
        model, data = self.fitted_model(tmp_path)
        out = tmp_path / "pred"
        code = run_cli("predict", "--model", str(model), "--data", str(data),
                       "--out", str(out), "--no-timing")
        assert code == 0
        report = json.loads((out / "predict_report.json").read_text())
        assert "metrics" in report
        assert report["rows"] == 400 - report["dropped_warmup"]
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "datetime,prediction"
        assert len(lines) == report["rows"] + 1

    def test_repeat_run_bit_identical(self, tmp_path):
        model, data = self.fitted_model(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("predict", "--model", str(model), "--data", str(data),
                    "--out", str(out), "--no-timing")
        assert (a / "predictions.csv").read_bytes() == \
            (b / "predictions.csv").read_bytes()
        # Reports embed their own output path; compare everything else.
        ra = json.loads((a / "predict_report.json").read_text())
        rb = json.loads((b / "predict_report.json").read_text())
        ra.pop("predictions"), rb.pop("predictions")
        assert ra == rb

    def test_missing_target_skips_metrics(self, tmp_path):
        model, data = self.fitted_model(tmp_path)
        # A temporal-only model can score rows with no target column.
        payload = json.loads(model.read_text())
        spec = payload["extra"]["feature_spec"]
        spec["rolling_windows"] = []
        spec["rolling_stats"] = []
        spec["lags"] = []
        spec["ewm_halflives"] = []
        # Refit is needed for matching columns, so go through bench with a
        # reduced spec instead of hand-editing the model.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "train2"
        run_cli("bench", "--out", str(out), "--n-hours", "900",
                "--configs", "xgb-style", "--encodings", "sinusoidal",
                "--features", str(spec_path), "--save-models", "--no-timing")
        model2 = out / "model_xgb-style_sinusoidal.json"

        bare = tmp_path / "bare.csv"
        src = data.read_text().splitlines()
        header = src[0].split(",")
        keep = [i for i, h in enumerate(header)
                if h != "Global_active_power"]
        bare.write_text("\n".join(
            ",".join(line.split(",")[i] for i in keep) for line in src) + "\n")

        pred_out = tmp_path / "pred2"
        code = run_cli("predict", "--model", str(model2), "--data",
                       str(bare), "--out", str(pred_out), "--no-timing")
        assert code == 0
        report = json.loads((pred_out / "predict_report.json").read_text())
        assert "metrics" not in report

    def test_target_history_required_error(self, tmp_path):
        model, data = self.fitted_model(tmp_path)
        bare = tmp_path / "bare.csv"
        src = data.read_text().splitlines()
        header = src[0].split(",")
        keep = [i for i, h in enumerate(header)
                if h != "Global_active_power"]
        bare.write_text("\n".join(
            ",".join(line.split(",")[i] for i in keep) for line in src) + "\n")
        code = run_cli("predict", "--model", str(model), "--data", str(bare),
                       "--out", str(tmp_path / "pred"))
        assert code == 2

    def test_column_mismatch_is_data_error(self, tmp_path, capsys):
        model, data = self.fitted_model(tmp_path)
        payload = json.loads(model.read_text())
        payload["feature_names"].reverse()
        model.write_text(json.dumps(payload))
        code = run_cli("predict", "--model", str(model), "--data", str(data),
                       "--out", str(tmp_path / "pred"))
        assert code == 2
        assert "feature columns do not match" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path):
        assert run_cli("predict", "--model", str(tmp_path / "nope.json"),
                       "--data", str(tmp_path / "nope.csv")) == 2


class TestPlumbing:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["xxx", "y"]])
        lines = text.splitlines()
        assert lines[0] == "a    bb"
        assert lines[1] == "---  --"
        assert lines[2] == "xxx  y"

    def test_strip_timing_recursive(self):
        obj = {"train_time_s": 1.0, "rows": [{"wall_time": 2.0, "keep": 3}],
               "mean_latency_us": 9.0}
        assert strip_timing(obj) == {"rows": [{"keep": 3}]}

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--frobnicate"]) == 1

    def test_unexpected_exception_is_internal_error(self, monkeypatch,
                                                    capsys):
        def broken(args):
            raise TypeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "synth", broken)
        assert main(["synth"]) == 3
        assert "internal error: TypeError: boom" in capsys.readouterr().err
