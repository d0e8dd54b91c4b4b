"""The benchmark's workloads: their ops, set-up and output checks.

Every op is one in-process `cyclecast.cli.main([...])` call. A check
raises `CheckError` when an op that exited 0 left wrong or missing
output. Checks call the untraced library functions captured at import,
so they never show up in the traced spans.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cyclecast import cli
from cyclecast.dataset import load_csv
from cyclecast.features import FeatureSpec, build_matrix
from cyclecast.gbtree import load_model, predict

# Hold-out R^2 floor. The best constant predictor scores R^2 <= 0 on
# held-out rows; the synthetic series is mostly daily/weekly cycle, so a
# working learner clears 0.5 by a wide margin.
R2_FLOOR = 0.5

CELLS = [(c, e) for c in ("xgb-style", "lgbm-style")
         for e in ("ordinal", "sinusoidal")]


class CheckError(Exception):
    """An op exited 0 but its outputs are wrong or missing."""


@dataclass
class Op:
    label: str
    argv: list
    out: Path
    check: object = None   # callable() -> None, raises CheckError


@dataclass(frozen=True)
class Sizes:
    train_hours: int
    tune_hours: int
    tune_ops: int
    tune_args: tuple
    score_hours: int
    score_bench_hours: int
    score_ops: int
    score_trace_ops: int


FULL = Sizes(
    train_hours=8760,
    tune_hours=480,
    tune_ops=12,
    tune_args=("--k", "3", "--delta", "48", "--budget", "6", "--init", "4",
               "--n-estimators-cap", "10"),
    score_hours=8760,
    # The README's `bench` default: a half-year frame.
    score_bench_hours=4380,
    # p90 of 100 samples has 10 samples beyond it.
    score_ops=100,
    score_trace_ops=30,
)

TINY = Sizes(
    train_hours=800,
    tune_hours=480,
    tune_ops=1,
    tune_args=("--k", "3", "--delta", "48", "--budget", "5", "--init", "4",
               "--n-estimators-cap", "10"),
    score_hours=800,
    score_bench_hours=800,
    score_ops=12,
    score_trace_ops=4,
)


def _need(cond, message):
    if not cond:
        raise CheckError(message)


def _read_json(path):
    _need(path.is_file(), f"missing {path.name}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name} is not valid JSON: {exc}") from None


def _check_metrics(metrics, what):
    for key in ("rmse", "mae", "r2"):
        value = metrics.get(key)
        _need(isinstance(value, float) and math.isfinite(value),
              f"{what}: {key} is not a finite number: {value!r}")
    _need(metrics["r2"] > R2_FLOOR,
          f"{what}: R2 {metrics['r2']:.4f} not above floor {R2_FLOOR}")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """Base: `setup` makes the inputs, `ops` lists one op sequence."""

    # Set-ups per untraced run, each in a fresh process; setup_s is their
    # median. A set-up of about 1.7 s (mostly the import) needs more
    # samples than `score`'s 4.5 s one to be as steady.
    setup_samples = 5

    def __init__(self, work: Path, seed: int, sizes: Sizes, trace: bool):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.trace = trace
        # Ungated quality values read from op outputs; name -> value.
        self.quality = {}
        self.failed_trials = 0

    def setup_argvs(self, setup_dir: Path):
        """CLI calls that make the workload's inputs."""
        return []

    def setup(self, setup_dir: Path):
        fresh_dir(setup_dir)
        for argv in self.setup_argvs(setup_dir):
            status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"set-up step {argv[0]} exited {status}")

    def prepare(self, setup_dir: Path):
        """Harness-side preparation after set-up (reference outputs)."""

    def ops(self):
        raise NotImplementedError


class Train(Workload):
    name = "train"

    def ops(self):
        ops = []
        for config, enc in CELLS:
            out = self.work / "ops" / f"{config}_{enc}"
            argv = ["bench", "--out", str(out), "--seed", str(self.seed),
                    "--n-hours", str(self.sizes.train_hours), "--save-models",
                    "--no-timing", "--configs", config, "--encodings", enc]
            ops.append(Op(f"{config}/{enc}", argv, out,
                          lambda o=out, c=config, e=enc: self._check(o, c, e)))
        return ops

    def _check(self, out, config, enc):
        report = _read_json(out / "bench_report.json")
        cells = report.get("cells", [])
        _need(len(cells) == 1 and cells[0]["model"] == config
              and cells[0]["encoding"] == enc, "report cells do not match op")
        cell = cells[0]
        _check_metrics(cell["metrics"], f"{config}/{enc}")
        model_path = out / f"model_{config}_{enc}.json"
        _need(model_path.is_file(), f"missing {model_path.name}")
        try:
            model, extra = load_model(model_path)
        except Exception as exc:
            raise CheckError(f"saved model does not reload: {exc!r}") from None
        _need(model.best_iteration == cell["best_iteration"]
              and len(model.feature_names) == cell["n_features"]
              and "feature_spec" in extra,
              "reloaded model disagrees with its bench report")
        self.quality[f"evaluation.holdout_rmse.{config}.{enc}"] = \
            cell["metrics"]["rmse"]


class Tune(Workload):
    name = "tune"

    def __init__(self, *args):
        super().__init__(*args)
        # tuner seed -> (best CV score, failed trials) of its latest op
        self.per_op = {}

    def _csv(self, setup_dir, i):
        return setup_dir / f"data{i}.csv"

    def setup_argvs(self, setup_dir):
        # One small CSV per op, each from its own seed derived from the
        # workload seed, so that the run averages over data sets.
        n = self.sizes.tune_ops
        return [["synth", "--out", str(setup_dir),
                 "--seed", str(self.seed * n + i),
                 "--output", str(self._csv(setup_dir, i)), "--no-timing",
                 "--n-hours", str(self.sizes.tune_hours)] for i in range(n)]

    def prepare(self, setup_dir):
        k, delta = self._arg("--k"), self._arg("--delta")
        self.csvs = [self._csv(setup_dir, i) for i in range(self.sizes.tune_ops)]
        self.val_var = [float(np.var(load_csv(p).target[-k * delta:]))
                        for p in self.csvs]

    def ops(self):
        # The seed changes the data only. Tuner seeds are fixed so that every
        # run starts from the same designs: when the seed drove the tuner,
        # one op's time spread 22-33% across seeds, against 11% with seeded
        # data. Ops on one data set move together, hence one set per op.
        ops = []
        for i, csv_path in enumerate(self.csvs):
            out = self.work / "ops" / f"tune{i}"
            argv = ["tune", "--out", str(out), "--seed", str(i),
                    "--data", str(csv_path), "--no-timing",
                    *self.sizes.tune_args]
            ops.append(Op(f"tune/{i}", argv, out,
                          lambda o=out, i=i: self._check(o, i)))
        return ops

    def _arg(self, flag):
        args = self.sizes.tune_args
        return int(args[args.index(flag) + 1])

    def _check(self, out, tuner_seed):
        report = _read_json(out / "tune_report.json")
        _need((out / "best_params.json").is_file(), "missing best_params.json")
        lines = (out / "trials.jsonl").read_text(encoding="utf-8").splitlines()
        trials = [json.loads(line) for line in lines]
        budget = self._arg("--budget")
        _need(len(trials) == budget,
              f"{len(trials)} trials recorded, budget is {budget}")
        ok = [t["objective"] for t in trials if not t["failed"]]
        best = report.get("best_cv_score")
        _need(isinstance(best, float) and math.isfinite(best) and best > 0,
              f"best_cv_score is not a positive number: {best!r}")
        _need(ok and best == min(ok), "best_cv_score is not the best trial")
        _need(report["n_failed_trials"] == budget - len(ok),
              "n_failed_trials disagrees with trials.jsonl")
        # Constant-predictor floor: the CV RMSE must explain most of the
        # variance of the validation rows.
        r2 = 1.0 - best ** 2 / self.val_var[tuner_seed]
        _need(r2 > R2_FLOOR, f"tuned CV R2 {r2:.4f} not above {R2_FLOOR}")
        self.per_op[tuner_seed] = (best, budget - len(ok))
        scores = [b for b, _ in self.per_op.values()]
        self.quality["evaluation.cv_best_score"] = sum(scores) / len(scores)
        self.failed_trials = sum(f for _, f in self.per_op.values())


class Score(Workload):
    name = "score"
    setup_samples = 3
    model_name = "model_xgb-style_sinusoidal.json"

    def setup_argvs(self, setup_dir):
        """The README flow: `synth`, then `bench --save-models` for one cell."""
        seed = str(self.seed)
        return [
            ["synth", "--out", str(setup_dir), "--seed", seed, "--no-timing",
             "--n-hours", str(self.sizes.score_hours)],
            ["bench", "--out", str(setup_dir), "--seed", seed, "--no-timing",
             "--n-hours", str(self.sizes.score_bench_hours), "--save-models",
             "--configs", "xgb-style", "--encodings", "sinusoidal"],
        ]

    def prepare(self, setup_dir):
        self.csv = setup_dir / "synthetic.csv"
        self.model = setup_dir / self.model_name
        bench = _read_json(setup_dir / "bench_report.json")
        self.quality["evaluation.holdout_rmse"] = \
            bench["cells"][0]["metrics"]["rmse"]
        model, extra = load_model(self.model)
        frame = load_csv(self.csv, allow_missing_target=True)
        matrix = build_matrix(frame, FeatureSpec.from_dict(extra["feature_spec"]))
        self.expected = predict(model, matrix)
        self.first_outputs = None

    def ops(self):
        n = self.sizes.score_trace_ops if self.trace else self.sizes.score_ops
        out = self.work / "ops" / "predict"
        argv = ["predict", "--model", str(self.model), "--data", str(self.csv),
                "--out", str(out), "--no-timing"]
        return [Op(f"predict/{i}", argv, out, lambda: self._check(out))
                for i in range(n)]

    def _check(self, out):
        report_bytes = (out / "predict_report.json").read_bytes() \
            if (out / "predict_report.json").is_file() else None
        _need(report_bytes is not None, "missing predict_report.json")
        pred_path = out / "predictions.csv"
        _need(pred_path.is_file(), "missing predictions.csv")
        outputs = (report_bytes, pred_path.read_bytes())
        if self.first_outputs is not None:
            # Every op of a run must repeat the first one byte for byte.
            _need(outputs == self.first_outputs,
                  "--no-timing outputs differ from the run's first op")
            return
        report = json.loads(report_bytes)
        _check_metrics(report.get("metrics", {}), "predict")
        with open(pred_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        _need(len(rows) == self.expected.size,
              f"{len(rows)} predictions for {self.expected.size} matrix rows")
        values = np.array([float(r[1]) for r in rows])
        _need(bool(np.all(np.isfinite(values))), "non-finite prediction")
        _need(np.array_equal(values, self.expected),
              "predictions differ from gbtree.predict on the reloaded model")
        self.quality["evaluation.score_rmse"] = report["metrics"]["rmse"]
        self.first_outputs = outputs


WORKLOADS = {w.name: w for w in (Train, Tune, Score)}


def failing_op(work: Path):
    """An op that must fail: `predict` with a model path that does not exist."""
    out = work / "ops" / "injected"
    argv = ["predict", "--model", str(work / "no-such-model.json"),
            "--data", str(work / "no-such-data.csv"), "--out", str(out),
            "--no-timing"]
    return Op("injected/missing-model", argv, out, None)
