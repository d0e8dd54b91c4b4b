import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cyclecast
from cyclecast import cli, evaluation
from cyclecast.cli import main, render_table, strip_timing
from cyclecast.dataset import SyntheticConfig, generate_synthetic
from cyclecast.errors import DataError, InvariantError
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

    def test_output_parent_is_created(self, tmp_path):
        out, path = tmp_path / "out", tmp_path / "new" / "dir" / "x.csv"
        assert run_cli("synth", "--out", str(out), "--n-hours", "50",
                       "--output", str(path)) == 0
        assert len(path.read_text().splitlines()) == 51
        assert not (out / "synthetic.csv").exists()
        report = json.loads((out / "synth_report.json").read_text())
        assert report["output"] == str(path)

    def test_failed_write_leaves_no_output_directory(self, tmp_path,
                                                     capsys):
        # --output names a directory, so the CSV cannot be written.
        out = tmp_path / "out"
        assert run_cli("synth", "--out", str(out), "--n-hours", "50",
                       "--output", str(tmp_path)) == 2
        assert capsys.readouterr().err == \
            f"data error: cannot use {tmp_path}: Is a directory\n"
        assert not out.exists()

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

    def test_missing_params_file_is_data_error(self, tmp_path, capsys):
        out, params = tmp_path / "out", tmp_path / "absent.json"
        assert self.bench(out, "--params", str(params)) == 2
        assert capsys.readouterr().err == \
            f"data error: no such params file: {params}\n"
        assert not out.exists()

    def test_duplicate_lag_is_usage_error(self, tmp_path, capsys):
        # Two lag_1h columns: the spec is refused as it loads, before any
        # fit.
        out, spec = tmp_path / "out", tmp_path / "spec.json"
        spec.write_text('{"lags": [1, 1]}')
        assert self.bench(out, "--features", str(spec)) == 1
        assert capsys.readouterr().err == \
            "usage error: duplicate feature column names in spec\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("config", ["xgb-style", "lgbm-style"])
    def test_loss_curves_per_tree(self, tmp_path, config):
        out = tmp_path / "out"
        assert self.bench(out, "--save-models", "--configs", config,
                          "--encodings", "sinusoidal") == 0
        (cell,) = json.loads((out / "bench_report.json").read_text())["cells"]
        model, _ = load_model(out / f"model_{config}_sinusoidal.json")
        assert len(cell["train_loss"]) == len(cell["val_loss"]) \
            == len(model.trees)
        assert cell["best_iteration"] == \
            int(np.argmin(cell["val_loss"])) + 1

    def test_unknown_encoding_is_usage_error(self, tmp_path):
        # An unknown, empty or repeated list fails before any fit, so no
        # model file is written.
        out = tmp_path / "out"
        for encodings in ("fourier", ",", "sinusoidal,sinusoidal"):
            assert run_cli("bench", "--out", str(out), "--save-models",
                           "--encodings", encodings) == 1
            assert not out.exists()

    def test_unknown_config_is_usage_error(self, tmp_path):
        out = tmp_path / "out"
        for configs in ("catboost-style", ",", "xgb-style, xgb-style"):
            assert run_cli("bench", "--out", str(out), "--save-models",
                           "--configs", configs) == 1
            assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "bench"])
    @pytest.mark.parametrize("flag, value", [
        ("--noise-std", "nan"), ("--daily-amplitude", "inf"),
        ("--weekly-amplitude", "-inf"), ("--trend-slope", "nan"),
    ])
    def test_non_finite_synthetic_flag_is_usage_error(self, tmp_path, capsys,
                                                      command, flag, value):
        out = tmp_path / "out"
        assert run_cli(command, "--out", str(out), f"{flag}={value}") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert flag[2:].replace("-", "_") in err
        assert not out.exists()

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run_cli("bench", "--out", str(tmp_path),
                       "--data", str(tmp_path / "nope.csv")) == 2

    @pytest.mark.parametrize("command", [
        ("bench", "--configs", "xgb-style", "--encodings", "sinusoidal"),
        ("tune", "--budget", "3", "--init", "2"),
        ("predict", "--model"),
    ], ids=["bench", "tune", "predict"])
    @pytest.mark.parametrize("column", [0, 2], ids=["time", "ignored"])
    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys, small_model,
                                        command, column):
        # One Latin-1 byte on line 501.
        if command[0] == "predict":
            command += (str(small_model[0]),)
        rows = [f"2023-01-{1 + h // 24:02d} {h % 24:02d}:00:00,1.5,x"
                for h in range(600)]
        cells = rows[499].split(",")
        cells[column] = cells[column][:-1] + "\xe9"
        rows[499] = ",".join(cells)
        path = tmp_path / "latin1.csv"
        path.write_bytes("\n".join(["datetime,Global_active_power,note"]
                                   + rows + [""]).encode("latin-1"))
        out = tmp_path / "out"
        assert run_cli(*command, "--out", str(out), "--data", str(path)) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {path}: line 501 is not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("bench", "--configs", "xgb-style", "--encodings", "sinusoidal"),
        ("tune", "--budget", "3", "--init", "2"),
        ("predict", "--model"),
    ], ids=["bench", "tune", "predict"])
    @pytest.mark.parametrize("line", [1, 101], ids=["header", "ignored"])
    def test_overlong_csv_field_is_data_error(self, tmp_path, capsys,
                                              small_model, command, line):
        # One quoted field of 200 000 characters, above csv's default
        # field_size_limit() of 131 072.
        if command[0] == "predict":
            command += (str(small_model[0]),)
        lines = ["datetime,Global_active_power,note"] + [
            f"2023-01-{1 + h // 24:02d} {h % 24:02d}:00:00,1.5,x"
            for h in range(200)]
        cells = lines[line - 1].split(",")
        cells[2] = '"' + "y" * 200_000 + '"'
        lines[line - 1] = ",".join(cells)
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines + [""]))
        out = tmp_path / "out"
        assert run_cli(*command, "--out", str(out), "--data", str(path)) == 2
        err = capsys.readouterr().err
        assert err == (f"data error: {path}: line {line}: field larger "
                       "than field limit (131072)\n")
        assert not out.exists()

    def test_utc_offset_timestamps_are_data_error(self, tmp_path):
        # Every row carries an offset, so every row is rejected.
        path = tmp_path / "offsets.csv"
        path.write_text(
            "datetime,Global_active_power,Global_reactive_power,Voltage,"
            "Global_intensity,Sub_metering_1,Sub_metering_2,Sub_metering_3\n"
            + "".join(f"2023-01-01 {h:02d}:00:00+00:00,1.0,0.1,240.0,4.2,"
                      "0.0,1.0,2.0\n" for h in range(24)))
        assert run_cli("bench", "--out", str(tmp_path), "--configs",
                       "xgb-style", "--no-timing", "--data", str(path)) == 2

    def test_removed_goss_switch_in_params_is_usage_error(self, tmp_path):
        # `goss_inverse_weights` is no longer a hyperparameter.
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"goss_inverse_weights": False}))
        assert self.bench(tmp_path, "--params", str(path)) == 1

    @pytest.mark.parametrize("flag", ["--params", "--features"])
    def test_invalid_json_file_is_data_error(self, tmp_path, capsys, flag):
        path = tmp_path / "broken.json"
        path.write_text('{"max_depth": ')
        assert self.bench(tmp_path, flag, str(path)) == 2
        err = capsys.readouterr().err
        assert f"{path} is not valid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, what", [("--params", "params"),
                                            ("--features", "feature-spec")])
    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"spec"', "null"],
                             ids=["number", "array", "string", "null"])
    def test_json_file_not_an_object_is_usage_error(self, tmp_path, capsys,
                                                    flag, what, text):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        assert self.bench(tmp_path, flag, str(path)) == 1
        assert f"{what} file must hold a JSON object" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, key", [
        ("--features", '{"lags": 5}', "lags"),
        ("--features", '{"temporal": ["hour"]}', "temporal"),
        ("--features", '{"temporal": [["hour", 1]]}', "temporal"),
        ("--features", '{"lags": ["a"]}', "lags"),
        ("--features", '{"rolling_windows": [true]}', "rolling_windows"),
        ("--features", '{"ewm_halflives": ["12"]}', "ewm_halflives"),
        ("--features", '{"ewm_halflives": [Infinity]}', "ewm_halflives"),
        ("--params", '{"max_depth": "6"}', "max_depth"),
        ("--params", '{"max_depth": 6.5}', "max_depth"),
        ("--params", '{"seed": true}', "seed"),
        ("--params", '{"learning_rate": "fast"}', "learning_rate"),
        ("--params", '{"learning_rate": NaN}', "learning_rate"),
        pytest.param("--params", '{"learning_rate": 1%s}' % ("0" * 400),
                     "learning_rate", id="int-too-large-for-a-float"),
        ("--params", '{"goss_a": [0.2], "goss_b": 0.2}', "goss_a"),
        # A finite rate whose leaf weights overflow.
        ("--params", '{"learning_rate": 1e308}', "learning_rate"),
    ])
    def test_wrong_typed_value_is_usage_error(self, tmp_path, capsys, flag,
                                              text, key):
        path = tmp_path / "values.json"
        path.write_text(text)
        assert self.bench(tmp_path, flag, str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert repr(key) in err

    def test_integer_for_real_field_is_accepted(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"subsample": 1, "n_estimators": 5}')
        spec = tmp_path / "spec.json"
        spec.write_text('{"ewm_halflives": [12, 1.5]}')
        assert self.bench(tmp_path, "--params", str(path),
                          "--features", str(spec)) == 0

    def test_time_header_other_than_datetime_is_data_error(self, tmp_path,
                                                           capsys):
        path = tmp_path / "data.csv"
        path.write_text("Datetime,Global_active_power\n"
                        + "".join(f"2023-01-01 {h:02d}:00:00,1.0\n"
                                  for h in range(24)))
        assert run_cli("bench", "--out", str(tmp_path), "--configs",
                       "xgb-style", "--no-timing", "--data", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "missing timestamp column 'datetime'" in err

    @pytest.mark.parametrize("fraction", ["0", "1.0", "1.5", "-0.1"])
    def test_test_fraction_out_of_range_is_usage_error(self, tmp_path,
                                                       fraction):
        assert self.bench(tmp_path, "--test-fraction", fraction) == 1


class TestAblation:
    def test_unknown_config_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("ablation", "--out", str(out), "--n-hours", "300",
                       "--config", "nope") == 1
        assert capsys.readouterr().err == \
            "usage error: unknown learner config 'nope'\n"
        assert not out.exists()

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

    def test_loss_curves_per_row(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("ablation", "--out", str(out), "--n-hours", "900",
                       "--no-timing") == 0
        report = json.loads((out / "ablation_report.json").read_text())
        for row in report["rows"]:
            assert len(row["train_loss"]) == len(row["val_loss"]) > 0
            assert row["best_iteration"] == \
                int(np.argmin(row["val_loss"])) + 1

    def test_deterministic_with_no_timing(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("ablation", "--out", str(out), "--n-hours", "900",
                    "--no-timing")
        assert (a / "ablation_report.json").read_bytes() == \
            (b / "ablation_report.json").read_bytes()


class TestTune:
    def tune(self, out, budget="6", init="3", cap="20"):
        return run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--budget", budget, "--init", init,
                       "--delta", "60", "--k", "2",
                       "--n-estimators-cap", cap, "--no-timing")

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

    def test_records_fitted_n_estimators(self, tmp_path):
        # The search axis spans 100-1000 trees, so the cap clamps every
        # trial; the records must name the clamped count that was fitted.
        out = tmp_path / "out"
        assert self.tune(out, cap="10") == 0
        trials = [json.loads(line)
                  for line in (out / "trials.jsonl").read_text().splitlines()]
        assert all(t["params"]["n_estimators"] <= 10 for t in trials)
        report = json.loads((out / "tune_report.json").read_text())
        assert report["best_point"]["n_estimators"] == \
            report["best_params"]["n_estimators"]

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
        for name in ("trials.jsonl", "tune_report.json", "convergence.csv",
                     "best_params.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_timing_is_reported_and_stripped(self, tmp_path):
        timed, untimed = tmp_path / "timed", tmp_path / "untimed"
        argv = ["tune", "--n-hours", "600", "--budget", "6", "--init", "3",
                "--delta", "60", "--k", "2", "--n-estimators-cap", "20"]
        assert run_cli(*argv, "--out", str(timed)) == 0
        assert run_cli(*argv, "--out", str(untimed), "--no-timing") == 0
        report = json.loads((timed / "tune_report.json").read_text())
        timing = report["timing"]
        assert list(timing) == ["cv_s", "gp_fit_s", "wait_s"]
        assert timing["cv_s"] > 0 and timing["gp_fit_s"] > 0
        assert timing["wait_s"] >= 0
        # A batched initial trial's wall time runs from its batch's start.
        trials = [json.loads(line) for line in
                  (timed / "trials.jsonl").read_text().splitlines()]
        assert all(0 < t["wall_time"] <= timing["cv_s"] for t in trials)
        # --no-timing writes what stripping the timed report gives.
        assert (untimed / "tune_report.json").read_text() == \
            json.dumps(strip_timing(report), indent=2) + "\n"

    @pytest.mark.parametrize("text", ['{"max_depth": 6.5}', '{"bogus": 1}',
                                      '{"goss_a": 0.2}',
                                      '{"goss_a": 0.5, "goss_b": 0.0}'])
    def test_bad_params_is_usage_error_before_any_trial(self, tmp_path,
                                                        text):
        path = tmp_path / "params.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--budget", "3", "--init", "2", "--k", "2",
                       "--delta", "60", "--params", str(path)) == 1
        assert not out.exists()

    def test_params_naming_a_searched_knob_is_usage_error(self, tmp_path,
                                                          capsys):
        # A fixed value would override every trial's point, so the search
        # over that dimension would change nothing.
        path = tmp_path / "params.json"
        path.write_text('{"n_estimators": 40, "reg_lambda": 2.0, '
                        '"max_depth": 3}')
        out = tmp_path / "out"
        assert run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--budget", "3", "--init", "2", "--k", "2",
                       "--delta", "60", "--params", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --params sets 'max_depth', "
                              "'n_estimators', which tune searches")
        assert not out.exists()

    def test_params_fixing_an_unsearched_knob_is_applied(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"reg_lambda": 2.5}')
        out = tmp_path / "out"
        assert run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--budget", "3", "--init", "2", "--k", "2",
                       "--delta", "60", "--n-estimators-cap", "5",
                       "--params", str(path), "--no-timing") == 0
        best = json.loads((out / "best_params.json").read_text())
        assert best["reg_lambda"] == 2.5

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_tree_cap_below_one_is_usage_error(self, tmp_path, capsys, cap):
        out = tmp_path / "out"
        assert run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--n-estimators-cap", cap) == 1
        assert capsys.readouterr().err == \
            "usage error: --n-estimators-cap must be >= 1\n"
        assert not out.exists()

    def test_budget_must_exceed_init(self, tmp_path):
        # Both halves of the rule fail before any file is written.
        out = tmp_path / "out"
        for budget, init in (("3", "3"), ("3", "1")):
            assert self.tune(out, budget=budget, init=init) == 1
            assert not out.exists()

    def test_early_error_leaves_no_output_directory(self, tmp_path):
        # The directory is made just before trials.jsonl is opened.
        params = tmp_path / "empty.json"
        params.write_text("")
        out = tmp_path / "out"
        assert run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--params", str(params)) == 2
        assert not out.exists()

    def test_cv_layout_too_large_is_usage_error(self, tmp_path):
        # 30 folds of 168 rows cannot fit in 600 rows; no trial runs.
        out = tmp_path / "out"
        assert run_cli("tune", "--out", str(out), "--n-hours", "600",
                       "--k", "30", "--delta", "168", "--budget", "3",
                       "--init", "2", "--no-timing") == 1
        assert not out.exists()

    def test_first_fold_inside_warmup_is_data_error(self, tmp_path, capsys):
        # 800 - 4 * 160 = 160 frame rows precede the first validation
        # block, all inside the default 168-row warm-up, so fold 0 has
        # nothing to fit on and every trial would fail; none runs.
        out = tmp_path / "out"
        assert run_cli("tune", "--out", str(out), "--n-hours", "800",
                       "--k", "4", "--delta", "160", "--budget", "5",
                       "--init", "4", "--n-estimators-cap", "10") == 2
        assert capsys.readouterr().err == (
            "data error: fold 0 of 4: too few training rows after feature "
            "warm-up and the early-stop slice\n")
        assert not out.exists()


@pytest.mark.usefixtures("hang_guard")
class TestTuneWorkers:
    """Failures in forked fold workers end `tune` as they do in-process,
    and every `tune` leaves no child process behind."""

    @pytest.fixture
    def tune(self, monkeypatch, tmp_path):
        """Runs tune on `cpus` usable CPUs (1: in-process) into out<cpus>
        and returns its exit code."""
        def run(cpus):
            monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
            code = run_cli("tune", "--out", str(tmp_path / f"out{cpus}"),
                           "--n-hours", "480", "--budget", "6", "--init",
                           "4", "--k", "3", "--delta", "48",
                           "--n-estimators-cap", "10", "--no-timing")
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            return code
        return run

    def first_fold_raises(self, monkeypatch, exc, when=lambda params: True):
        """Make fold 0 raise `exc` for the params that pass `when`."""
        real = evaluation.fit_before

        def fit_before(matrix, cut, params):
            # Fold 0 scores frame rows from 480 - 3 * 48 on.
            if cut + matrix.dropped_warmup == 336 and when(params):
                raise exc
            return real(matrix, cut, params)

        monkeypatch.setattr(evaluation, "fit_before", fit_before)

    def test_cyclecast_error_in_worker_fails_the_trial(self, tune, tmp_path,
                                                       monkeypatch):
        self.first_fold_raises(monkeypatch, DataError("fold refused"),
                               when=lambda params: params.max_depth % 2)
        assert tune(1) == 0
        assert tune(2) == 0
        text = (tmp_path / "out1" / "trials.jsonl").read_text()
        assert (tmp_path / "out2" / "trials.jsonl").read_text() == text
        errors = [json.loads(line).get("error") for line in text.splitlines()]
        assert "DataError: fold refused" in errors and None in errors

    def test_runtime_error_in_worker_exits_3(self, tune, monkeypatch,
                                             capsys):
        lines = []
        self.first_fold_raises(monkeypatch, RuntimeError("fold broke"))
        for cpus in (1, 2):
            assert tune(cpus) == 3
            lines.append(capsys.readouterr().err.splitlines()[-1])
        assert lines == ["internal error: RuntimeError: fold broke"] * 2

    def test_killed_worker_is_internal_error(self, tune, monkeypatch,
                                             capsys):
        parent = os.getpid()
        real = evaluation.fit_before

        def fit_before(matrix, cut, params):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(matrix, cut, params)

        monkeypatch.setattr(evaluation, "fit_before", fit_before)
        assert tune(2) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: fold worker ")
        assert err.rstrip().endswith("it was killed by signal 9")

    def test_unpicklable_fold_error_is_internal_error(self, tune,
                                                      monkeypatch, capfd):
        # A worker cannot send an exception that holds a lock: it writes
        # the pickling traceback to stderr and exits with status 1.
        self.first_fold_raises(monkeypatch, RuntimeError(threading.Lock()))
        assert tune(2) == 3
        err = capfd.readouterr().err
        assert "TypeError: cannot pickle" in err
        assert re.fullmatch(r"internal error: fold worker \d+ sent no result "
                            r"\(EOFError\(\)\); it exited with status 1",
                            err.splitlines()[-1])

    def test_unpicklable_error_in_one_task_exits_3(self, tune, monkeypatch):
        # Only the default point's fold 0 fails: its learning rate, 0.1,
        # comes back from the unit cube with a rounding error. Whether tune
        # or its worker claims that task decides the message, not the exit
        # code.
        self.first_fold_raises(
            monkeypatch, RuntimeError(threading.Lock()),
            when=lambda params: abs(params.learning_rate - 0.1) < 1e-12)
        assert tune(2) == 3

    def test_every_trial_is_one_cross_validate_call(self, tune, monkeypatch):
        # A tracer that wraps evaluation.cross_validate sees each trial as
        # one call inside optimize, the batched initial design included.
        calls = []
        optimizing = []
        real_cv, real_optimize = evaluation.cross_validate, cli.tuner.optimize

        def cross_validate(*args):
            result = real_cv(*args)
            calls.append((bool(optimizing), len(result.fold_rmses)))
            return result

        def optimize(*args, **kwargs):
            optimizing.append(True)
            try:
                return real_optimize(*args, **kwargs)
            finally:
                optimizing.pop()

        monkeypatch.setattr(evaluation, "cross_validate", cross_validate)
        monkeypatch.setattr(cli.tuner, "optimize", optimize)
        for cpus in (1, 2):
            calls.clear()
            assert tune(cpus) == 0
            assert calls == [(True, 3)] * 6

    def test_ctrl_c_gives_one_traceback_and_leaves_no_worker(self, tmp_path):
        # Ctrl-C signals the terminal's whole process group: tune and its
        # worker. The worker ignores it; tune kills and reaps it.
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cyclecast.__file__).parent.parent),
             os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-c", TUNE_ON_TWO_CPUS, "tune", "--out",
             str(out), "--n-hours", "1176", "--budget", "30", "--k", "3",
             "--delta", "168", "--no-timing"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True)
        try:
            trials = out / "trials.jsonl"
            while not (trials.exists() and trials.read_text()):
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == -signal.SIGINT
            assert err.count("Traceback") == 1
            assert err.splitlines()[-1] == "KeyboardInterrupt"
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


# Runs tune in a fresh interpreter as if it had two usable CPUs, so that
# it starts one fold worker.
TUNE_ON_TWO_CPUS = """
import sys
from cyclecast import evaluation
from cyclecast.cli import main
evaluation.usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


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

    @pytest.mark.parametrize("spec", [
        {"rolling_windows": [6], "rolling_stats": [], "lags": [],
         "ewm_halflives": [], "temporal": [["hour", "sinusoidal"]]},
        {"rolling_windows": [], "lags": [1, 24], "ewm_halflives": [],
         "disabled_groups": ["LagFeatures"]},
    ], ids=["rolling-without-stats", "lags-disabled"])
    def test_spec_emitting_no_target_column_scores_time_only_csv(
            self, tmp_path, spec):
        # Each spec names target transforms but emits none of them.
        out = tmp_path / "train"
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "params.json").write_text('{"n_estimators": 5}')
        assert run_cli("bench", "--out", str(out), "--n-hours", "400",
                       "--configs", "xgb-style", "--encodings", "sinusoidal",
                       "--features", str(tmp_path / "spec.json"),
                       "--params", str(tmp_path / "params.json"),
                       "--save-models", "--no-timing") == 0
        assert run_cli("synth", "--out", str(out), "--n-hours", "300") == 0
        lines = (out / "synthetic.csv").read_text().splitlines()
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(line.split(",")[0] + "\n" for line in lines))
        pred_out = tmp_path / "pred"
        assert run_cli("predict", "--model",
                       str(out / "model_xgb-style_sinusoidal.json"),
                       "--data", str(bare), "--out", str(pred_out),
                       "--no-timing") == 0
        report = json.loads((pred_out / "predict_report.json").read_text())
        assert "metrics" not in report
        assert report["rows"] == 300 - report["dropped_warmup"]

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

    def test_early_error_leaves_no_output_directory(self, tmp_path):
        out = tmp_path / "pred"
        assert run_cli("predict", "--out", str(out),
                       "--model", str(tmp_path / "nope.json"),
                       "--data", str(tmp_path / "nope.csv")) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"format_version": 1, "trees": [', "is not valid JSON"),
        ("[]", "must hold a JSON object"),
        ('{"format_version": 1}', "lacks params, trees, base_score"),
    ], ids=["truncated", "array", "version-only"])
    def test_broken_model_file_is_data_error(self, tmp_path, capsys, text,
                                             message):
        model = tmp_path / "model.json"
        model.write_text(text)
        assert run_cli("predict", "--model", str(model),
                       "--data", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "pred")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: model file {model} ")
        assert message in err

    @pytest.mark.parametrize("target", [True, False],
                             ids=["with-target", "without-target"])
    def test_duplicate_column_in_saved_spec_is_data_error(
            self, tmp_path, capsys, target):
        # Lags [1, 2, 24, 168, 1] declare lag_1h twice: the spec is
        # refused as the model file is read, before the CSV is.
        model, data = self.fitted_model(tmp_path)
        payload = json.loads(model.read_text())
        payload["extra"]["feature_spec"]["lags"].append(1)
        model.write_text(json.dumps(payload))
        if not target:
            bare = tmp_path / "bare.csv"
            bare.write_text("".join(line.split(",")[0] + "\n"
                                    for line in data.read_text().splitlines()))
            data = bare
        capsys.readouterr()
        out = tmp_path / "pred"
        assert run_cli("predict", "--model", str(model), "--data", str(data),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"data error: model file {model}: duplicate feature column "
            "names in spec\n")
        assert not out.exists()


# Marks a key that `TestModelChecks` deletes instead of setting.
DELETE = object()


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """A saved five-tree xgb-style model and a CSV it can score."""
    out = tmp_path_factory.mktemp("small_model")
    (out / "params.json").write_text('{"n_estimators": 5}')
    assert run_cli("bench", "--out", str(out), "--n-hours", "900",
                   "--configs", "xgb-style", "--encodings", "sinusoidal",
                   "--params", str(out / "params.json"), "--save-models",
                   "--no-timing") == 0
    assert run_cli("synth", "--out", str(out), "--n-hours", "400") == 0
    return out / "model_xgb-style_sinusoidal.json", out / "synthetic.csv"


class TestModelChecks:
    """A model file that `predict` cannot use is a data error naming the
    file; none of these may crash, and none may hang the tree walk."""

    @pytest.mark.parametrize("where, value, message", [
        (("trees",), [{}],
         "tree 0 lacks feature, threshold, left, right, value"),
        (("trees",), {}, "trees must be a list"),
        (("trees", 1), [], "tree 1 is not a JSON object"),
        (("trees", 1, "value"), DELETE, "tree 1 lacks value"),
        (("trees", 0, "left"), 3, "must be lists"),
        (("trees", 0, "value"), [0.0], "unequal length"),
        (("trees", 0, "threshold", 0), "x", "non-numeric"),
        (("trees", 0, "left", 0), float("inf"), "non-numeric"),
        (("trees", 0, "feature", 0), 13.7,
         "tree 0 holds a non-numeric node entry: feature entries must be "
         "integers"),
        (("trees", 0, "feature", 0), True,
         "feature entries must be integers"),
        (("trees", 0, "value", 0), float("nan"),
         "value entries must be finite numbers"),
        (("trees", 0, "threshold", 0), float("inf"),
         "threshold entries must be finite numbers"),
        (("trees", 0, "threshold", 0), 10 ** 400,
         "threshold entries must be finite numbers"),
        (("trees", 0, "feature", 0), 99, "node 0 splits on feature 99"),
        (("trees", 0, "feature", 0), -2, "node 0 splits on feature -2"),
        (("trees", 0, "left", 0), 0, "node 0 has children 0 and"),
        (("trees", 2, "right", 0), 10 ** 6, "tree 2: node 0 has children"),
        (("best_iteration",), 0, "best_iteration 0 is outside [1, 5]"),
        (("best_iteration",), 6, "best_iteration 6 is outside [1, 5]"),
        (("params", "max_depth"), "6", "hyperparameter 'max_depth'"),
        (("extra", "feature_spec", "lags"), 5, "feature-spec 'lags'"),
        (("params",), [], "params must be an object"),
        (("base_score",), "x", "base_score must be a number"),
        (("gain_by_feature",), [],
         "gain_by_feature must be an object of numbers"),
        (("feature_names",), 5, "feature_names must be a list of strings"),
        (("extra",), "feature_spec", "extra must be an object"),
        (("extra", "feature_spec"), DELETE,
         "carries no feature spec; cannot rebuild features from raw data"),
        (("extra", "feature_spec"), 5, "feature spec must be an object"),
        # The last node has no children, so it is a leaf.
        (("trees", 1, "left", -1), 0,
         "tree 1: leaf 50 has children 0 and -1, not -1"),
        (("extra", "target_name"), "voltage",
         "target_name 'voltage' is not 'global_active_power'"),
    ], ids=["empty-tree", "trees-not-list", "tree-not-object",
            "missing-array", "array-not-list", "unequal-lengths",
            "non-numeric", "infinite-index", "fractional-feature",
            "boolean-feature", "nan-value", "infinite-threshold",
            "huge-int-threshold",
            "feature-too-large",
            "feature-below-minus-one", "self-loop", "child-out-of-range",
            "best-iteration-zero", "best-iteration-too-large",
            "params-type", "spec-type", "params-not-object",
            "base-score-not-number", "gains-not-object",
            "names-not-list", "extra-not-object", "no-feature-spec",
            "spec-not-object", "leaf-with-child", "other-target"])
    def test_broken_model_is_data_error(self, tmp_path, capsys, small_model,
                                        where, value, message):
        model, data = small_model
        doc = json.loads(model.read_text())
        assert len(doc["trees"]) == 5
        # Node 0 of each tree the cases edit splits.
        assert all(doc["trees"][i]["feature"][0] >= 0 for i in range(3))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "pred"
        assert run_cli("predict", "--model", str(broken), "--data",
                       str(data), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: model file {broken}")
        assert message in err
        assert not out.exists()

    def test_first_faulty_tree_is_named(self, tmp_path, capsys,
                                        small_model):
        # The one-pass checks find both faults; the message names the
        # first tree that has one, whatever the kind of fault.
        model, data = small_model
        doc = json.loads(model.read_text())
        doc["trees"][4]["threshold"][0] = "x"
        doc["trees"][2]["right"][0] = 0
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "pred"
        assert run_cli("predict", "--model", str(broken), "--data",
                       str(data), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: model file {broken}: tree 2: "
                              "node 0 has children")
        assert not out.exists()

    @pytest.mark.parametrize("leaves, trees, message", [
        (1e308, 1, "give a non-finite rmse"),
        (-1e308, 1, "give a non-finite rmse"),
        (1e308, 2, "is not finite"),
    ], ids=["huge-leaf", "huge-negative-leaf", "leaves-sum-past-max"])
    def test_leaves_that_overflow_are_data_error(self, tmp_path, capsys,
                                                 small_model, leaves, trees,
                                                 message):
        # Each leaf is finite, but the errors square past the largest
        # double or the leaves sum past it: refused before --out is made,
        # with no numpy warning.
        model, data = small_model
        doc = json.loads(model.read_text())
        doc["params"]["learning_rate"] = 1.0  # each leaf counts in full
        for tree in doc["trees"][:trees]:
            tree["value"] = [leaves if f < 0 else v
                             for f, v in zip(tree["feature"], tree["value"])]
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "pred"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("predict", "--model", str(broken), "--data",
                           str(data), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: model file {broken}: ")
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    def test_unedited_model_predicts(self, tmp_path, small_model):
        model, data = small_model
        assert run_cli("predict", "--model", str(model), "--data",
                       str(data), "--out", str(tmp_path / "pred")) == 0


class TestUnusablePath:
    """A path the user names that cannot be read or written exits 2 with
    one line and no traceback, and leaves no --out behind."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--n-hours", "30"],
        ["bench", "--n-hours", "300", "--configs", "xgb-style",
         "--encodings", "sinusoidal"],
        ["tune", "--n-hours", "300", "--budget", "3", "--init", "2",
         "--k", "2", "--delta", "48", "--n-estimators-cap", "5"],
    ], ids=lambda argv: argv[0])
    def test_out_is_a_file(self, tmp_path, capsys, argv):
        out = tmp_path / "afile"
        out.write_text("kept\n")
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            f"data error: cannot use {out}: File exists\n"
        assert out.read_text() == "kept\n"

    def test_data_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("bench", "--out", str(out), "--data",
                       str(tmp_path)) == 2
        assert capsys.readouterr().err == \
            f"data error: cannot use {tmp_path}: Is a directory\n"
        assert not out.exists()

    def test_os_error_without_a_path_stays_internal(self, tmp_path, capsys,
                                                    monkeypatch):
        def refuse(*args, **kwargs):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        assert run_cli("synth", "--out", str(tmp_path / "out"),
                       "--n-hours", "30") == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.splitlines()[-1] == ("internal error: BlockingIOError: "
                                        "[Errno 11] Resource temporarily "
                                        "unavailable")


class TestSeeds:
    @pytest.mark.parametrize("command", ["synth", "bench", "ablation",
                                         "tune"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run_cli(command, "--out", str(out), "--n-hours", "400",
                       "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "seed must be >= 0, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["bench"],
                                         ["tune", "--delta", "48"]],
                             ids=["bench", "tune"])
    def test_negative_seed_in_params_is_usage_error(self, tmp_path, capsys,
                                                    command):
        path = tmp_path / "params.json"
        path.write_text('{"seed": -3}')
        out = tmp_path / "out"
        assert run_cli(*command, "--out", str(out), "--n-hours", "400",
                       "--params", str(path)) == 1
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_zero_is_accepted(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path), "--n-hours", "50",
                       "--seed", "0") == 0


class TestDeclaredOptions:
    """A subcommand declares only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["tune", "--test-fraction", "0.3"],
        ["predict", "--model", "m.json", "--data", "d.csv", "--seed", "1"],
        ["ablation", "--encoding", "onehot"],
        ["tune", "--encoding", "ordinal"],
        ["bench", "--time-col", "Datetime"],
        ["ablation", "--time-col", "Datetime"],
        ["tune", "--time-col", "Datetime"],
        ["predict", "--model", "m.json", "--data", "d.csv",
         "--time-col", "Datetime"],
    ], ids=["tune-test-fraction", "predict-seed", "ablation-encoding",
            "tune-encoding", "bench-time-col", "ablation-time-col",
            "tune-time-col", "predict-time-col"])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "ablation", "tune"])
    def test_synthetic_flags_with_data_are_usage_error(self, tmp_path,
                                                       capsys, command):
        # They would shape synthetic data that --data replaces.
        csv = tmp_path / "synthetic.csv"
        assert run_cli("synth", "--out", str(tmp_path), "--n-hours",
                       "400") == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(command, "--out", str(out), "--data", str(csv),
                       "--noise-std", "7", "--n-hours", "5") == 1
        assert capsys.readouterr().err == (
            "usage error: --n-hours, --noise-std shape synthetic data and "
            "cannot be given with --data\n")
        assert not out.exists()


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_report_is_strict_json(self, tmp_path, value):
        # JSON has no NaN or Infinity: such a report is an internal error
        # before its file is made.
        path = tmp_path / "out" / "report.json"
        with pytest.raises(InvariantError, match="Out of range float"):
            cli.write_report({"metrics": {"rmse": value}}, path, False)
        assert not path.parent.exists()
        cli.write_report({"metrics": {"rmse": 1.5}}, path, False)
        assert json.loads(path.read_text(), parse_constant=float) == \
            {"metrics": {"rmse": 1.5}}

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

    def test_closed_stdout_is_success(self, tmp_path, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--n-hours", "30"]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "synth_report.json").is_file()

    def test_no_stdout_is_success(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)  # as under `cyclecast >&-`
        assert main(["synth", "--out", str(tmp_path), "--n-hours", "30"]) == 0

    @pytest.mark.parametrize("buffering", [1, -1], ids=["line", "block"])
    def test_closed_pipe_descriptor_points_at_devnull(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      buffering):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)  # the reader has gone, as after `| head`
        pipe = open(write_fd, "w", buffering=buffering, encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", pipe)
        try:
            assert main(["synth", "--out", str(tmp_path),
                         "--n-hours", "30"]) == 0
            print("flushed at exit", file=pipe)
        finally:
            pipe.close()
        assert capsys.readouterr().err == ""


# Runs in a fresh interpreter: pytest's own process already holds scipy
# and multiprocessing. scipy is blocked, so that importing any part of it
# raises ImportError. Only tune may import multiprocessing; it starts fold
# workers with it when it has more than one usable CPU.
COLD_START = """
import json, sys
from pathlib import Path

sys.modules["scipy"] = None
from cyclecast import cli

def loaded():
    return sorted(m for m in sys.modules if m == "multiprocessing"
                  or m.split(".")[0] == "scipy" and sys.modules[m] is not None)

out = Path(sys.argv[1])
csv = str(out / "synthetic.csv")
model = str(out / "model_xgb-style_sinusoidal.json")
steps = [
    ("synth", ["--n-hours", "400"]),
    ("bench", ["--data", csv, "--configs", "xgb-style",
               "--encodings", "sinusoidal", "--save-models"]),
    ("ablation", ["--data", csv, "--params", str(out / "params.json")]),
    ("predict", ["--model", model, "--data", csv]),
    ("tune", ["--data", csv, "--budget", "3", "--init", "2", "--k", "2",
              "--delta", "48", "--n-estimators-cap", "5"]),
]
report = {"import": loaded(), "tuner": "cyclecast.tuner" in sys.modules}
for command, argv in steps:
    code = cli.main([command, "--out", str(out), "--no-timing", *argv])
    report[command] = [code, loaded()]
print(json.dumps(report))
"""


class TestColdStart:
    def test_no_command_imports_scipy(self, tmp_path):
        (tmp_path / "params.json").write_text('{"n_estimators": 10}')
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cyclecast.__file__).parent.parent),
             os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report.pop("import") == []
        assert report.pop("tuner") is True
        tune = report.pop("tune")
        assert report == {c: [0, []] for c in
                          ("synth", "bench", "ablation", "predict")}
        assert tune[0] == 0
        assert tune[1] in ([], ["multiprocessing"])
