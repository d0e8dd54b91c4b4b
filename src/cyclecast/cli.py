"""Command-line harness: synth, bench, ablation, tune, predict.

Every command writes a UTF-8 JSON report with fixed key order into the
output directory and prints text tables rendered purely from that
report. With --no-timing, wall-time fields are stripped so repeated
runs with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__, evaluation, gbtree, tuner
from .dataset import (
    TARGET_NAME, TIME_HEADER, SyntheticConfig, generate_synthetic, load_csv,
    write_csv, write_series_csv,
)
from .encoding import STRATEGIES
from .errors import ConfigError, CyclecastError, DataError
from .features import (
    FeatureSpec, ablate, build_matrix, needs_target_history,
)
from .gbtree import HyperParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

ABLATION_ROWS = [
    ("All Features", None),
    ("No Sinusoidal", "Sinusoidal"),
    ("No Rolling Stats", "RollingStats"),
    ("No Lag Features", "LagFeatures"),
]


def learner_configs(seed: int) -> dict:
    """Named desk-scale learner configurations for the benchmark grid."""
    return {
        "xgb-style": HyperParams(
            learning_rate=0.1, max_depth=6, n_estimators=150,
            min_child_weight=1.0, subsample=0.6, colsample_bytree=1.0,
            reg_lambda=1.0, gamma=0.1, growth=gbtree.DEPTHWISE,
            patience=20, seed=seed,
        ),
        "lgbm-style": HyperParams(
            learning_rate=0.1, max_depth=6, n_estimators=150,
            min_child_weight=1.0, colsample_bytree=0.8,
            reg_lambda=1.0, gamma=0.1, goss_a=0.2, goss_b=0.2,
            growth=gbtree.LEAFWISE, num_leaves=31,
            patience=20, seed=seed,
        ),
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def seed(text) -> int:
    """A --seed value: a non-negative integer, as numpy's generators and
    the tuner need."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _add_common(p, with_seed=True):
    if with_seed:
        p.add_argument("--seed", type=seed, default=42)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--no-timing", action="store_true",
                   help="strip wall-time fields from reports")


# The synthetic-data flags. Each defaults to None, so a command can tell
# which were given; `_synth_config` takes SyntheticConfig's default for any
# other, and the command's own default for n_hours.
SYNTHETIC_FLAGS = {"n_hours": int, "daily_amplitude": float,
                   "weekly_amplitude": float, "trend_slope": float,
                   "noise_std": float}


def _flag(dest) -> str:
    return "--" + dest.replace("_", "-")


def _add_synthetic(p, n_hours):
    p.set_defaults(default_n_hours=n_hours)
    for dest, kind in SYNTHETIC_FLAGS.items():
        p.add_argument(_flag(dest), type=kind)


def _add_data_source(p):
    p.add_argument("--data", default=None,
                   help="input CSV path; without it, synthetic data (4380 "
                        "rows unless --n-hours says otherwise)")
    _add_synthetic(p, 4380)


def _add_features_flags(p):
    p.add_argument("--features", default=None,
                   help="feature-spec JSON file (defaults to built-in spec)")
    p.add_argument("--params", default=None,
                   help="hyperparameter JSON overrides")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing
    arguments leaves it as it was."""
    parser = _Parser(prog="cyclecast",
                     description="Time-series forecasting benchmark toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset CSV")
    _add_common(p)
    _add_synthetic(p, 8760)
    p.add_argument("--output", default=None,
                   help="CSV path (default <out>/synthetic.csv)")

    p = sub.add_parser("bench", help="encoding-comparison benchmark")
    _add_common(p)
    _add_data_source(p)
    _add_features_flags(p)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--encodings", default="ordinal,sinusoidal",
                   help="comma-separated encodings to compare")
    p.add_argument("--configs", default="xgb-style,lgbm-style",
                   help="comma-separated learner configs")
    p.add_argument("--save-models", action="store_true",
                   help="save fitted models for later `predict`")

    p = sub.add_parser("ablation", help="feature-group ablation study")
    _add_common(p)
    _add_data_source(p)
    _add_features_flags(p)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--config", default="xgb-style")

    p = sub.add_parser("tune", help="Bayesian hyperparameter optimization")
    _add_common(p)
    _add_data_source(p)
    _add_features_flags(p)
    p.add_argument("--budget", type=int, default=30)
    p.add_argument("--init", type=int, default=8)
    p.add_argument("--k", type=int, default=3, help="CV fold count")
    p.add_argument("--delta", type=int, default=168,
                   help="CV validation width in rows")
    p.add_argument("--n-estimators-cap", type=int, default=150,
                   help="cap trees per trial to keep tuning desk-scale")

    p = sub.add_parser("predict", help="predict with a saved model")
    _add_common(p, with_seed=False)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="input CSV path")

    return parser


def _given_synthetic(args) -> dict:
    """The synthetic-data flags given on the command line, by dest."""
    return {dest: getattr(args, dest) for dest in SYNTHETIC_FLAGS
            if getattr(args, dest) is not None}


def _synth_config(args) -> SyntheticConfig:
    return SyntheticConfig(**{"n_hours": args.default_n_hours,
                              **_given_synthetic(args), "seed": args.seed})


def _load_frame(args):
    if args.data is not None:
        given = _given_synthetic(args)
        if given:
            raise ConfigError(f"{', '.join(map(_flag, given))} shape "
                              "synthetic data and cannot be given with "
                              "--data")
        return load_csv(args.data), {"csv": args.data}
    config = _synth_config(args)
    return generate_synthetic(config), {"synthetic": config.__dict__.copy()}


def _read_json_object(path, what) -> dict:
    """The JSON object in the `what` file at `path`."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such {what} file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{what} file {path} is not valid JSON: {exc}") \
            from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} file must hold a JSON object")
    return doc


def _load_spec(args) -> FeatureSpec:
    if args.features is None:
        return FeatureSpec()
    return FeatureSpec.from_dict(_read_json_object(args.features,
                                                   "feature-spec"))


def _load_param_overrides(args) -> dict:
    if args.params is None:
        return {}
    return _read_json_object(args.params, "params")


def _with_overrides(params: HyperParams, overrides: dict) -> HyperParams:
    """`params` with the `--params` overrides applied."""
    return HyperParams.from_dict({**params.to_dict(), **overrides})


def strip_timing(obj):
    """Remove wall-time fields recursively (for --no-timing determinism)."""
    timing_keys = {"train_time_s", "wall_time", "mean_latency_us", "timing"}
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if k not in timing_keys}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def write_report(report: dict, path: Path, no_timing: bool) -> dict:
    if no_timing:
        report = strip_timing(report)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def render_table(headers, rows) -> str:
    """Plain aligned text table; pure function of its inputs."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in r] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(x, nd=4):
    if x is None:
        return "n/a"
    return f"{x:.{nd}f}"


def _loss_curves(log) -> dict:
    """A fit's train and validation RMSE, one entry per fitted tree."""
    return {"train_loss": log.train_loss, "val_loss": log.val_loss}


def cmd_synth(args) -> int:
    config = _synth_config(args)
    out_dir = Path(args.out)
    frame = generate_synthetic(config)
    path = Path(args.output) if args.output else out_dir / "synthetic.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(frame, path)
    report = {
        "experiment": "synth",
        "seed": args.seed,
        "config": config.__dict__.copy(),
        "output": str(path),
        "frame": frame.meta(),
    }
    write_report(report, out_dir / "synth_report.json", args.no_timing)
    print(f"wrote {len(frame)} rows to {path}")
    return EXIT_OK


def _name_list(text, known, what) -> list:
    """The names in the comma-separated `text`: at least one, each one of
    `known`, none repeated."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not (names and set(names) <= set(known)
            and len(set(names)) == len(names)):
        raise ConfigError(f"{what} list {text!r} must name one or more of "
                          f"{sorted(known)}, none twice")
    return names


def cmd_bench(args) -> int:
    out_dir = Path(args.out)
    encodings = _name_list(args.encodings, STRATEGIES, "encoding")
    configs = learner_configs(args.seed)
    names = _name_list(args.configs, configs, "learner config")
    overrides = _load_param_overrides(args)

    frame, source = _load_frame(args)
    base_spec = _load_spec(args)

    cells = []
    best = None
    for cname in names:
        params = _with_overrides(configs[cname], overrides)
        for enc in encodings:
            spec = base_spec.with_encoding(enc)
            result = evaluation.holdout(frame, spec, params,
                                        args.test_fraction)
            cell = {
                "model": cname,
                "encoding": enc,
                "metrics": result["metrics"].to_dict(),
                "train_time_s": result["train_time"],
                "best_iteration": result["model"].best_iteration,
                "stop_reason": result["log"].stop_reason,
                "n_features": len(result["matrix"].column_names),
                **_loss_curves(result["log"]),
            }
            cells.append(cell)
            if best is None or result["metrics"].rmse < best["metrics"].rmse:
                best = {**result, "model_name": cname, "encoding": enc}
            if args.save_models:
                out_dir.mkdir(parents=True, exist_ok=True)
                gbtree.save_model(
                    result["model"],
                    out_dir / f"model_{cname}_{enc}.json",
                    extra={"feature_spec": spec.to_dict(),
                           "target_name": TARGET_NAME},
                )

    # Relative RMSE improvement of sinusoidal over the ordinal baseline.
    improvement = {}
    for cname in names:
        by_enc = {c["encoding"]: c["metrics"]["rmse"]
                  for c in cells if c["model"] == cname}
        if "ordinal" in by_enc and "sinusoidal" in by_enc:
            improvement[cname] = (
                (by_enc["ordinal"] - by_enc["sinusoidal"]) / by_enc["ordinal"]
            )

    residuals = best["y_test"] - best["pred"]
    report = {
        "experiment": "bench",
        "tool_version": __version__,
        "seed": args.seed,
        "source": source,
        "frame": frame.meta(),
        "test_fraction": args.test_fraction,
        "encodings": encodings,
        "configs": {n: configs[n].to_dict() for n in names},
        "param_overrides": overrides,
        "cells": cells,
        "relative_rmse_improvement_sinusoidal_vs_ordinal": improvement,
        "best_cell": {"model": best["model_name"],
                      "encoding": best["encoding"]},
        "feature_importance": gbtree.feature_importance(best["model"]),
        "period_breakdown": evaluation.period_breakdown(
            best["y_test"], best["pred"], best["test_hours"]),
        "residual_stats": evaluation.residual_stats(residuals).to_dict(),
    }
    report = write_report(report, out_dir / "bench_report.json",
                          args.no_timing)
    print(render_bench_table(report))
    return EXIT_OK


def render_bench_table(report: dict) -> str:
    rows = []
    for cell in report["cells"]:
        m = cell["metrics"]
        t = cell.get("train_time_s")
        rows.append([
            cell["model"], cell["encoding"], _fmt(m["rmse"]),
            _fmt(m["mae"]), _fmt(m["r2"]),
            _fmt(t, 1) if t is not None else "-",
        ])
    table = render_table(
        ["Model", "Encoding", "RMSE", "MAE", "R2", "Time (s)"], rows)
    extra = []
    for name, imp in report.get(
            "relative_rmse_improvement_sinusoidal_vs_ordinal", {}).items():
        extra.append(f"{name}: sinusoidal improves RMSE by {100 * imp:.1f}% "
                     "over ordinal")
    return "\n".join([table] + extra)


def cmd_ablation(args) -> int:
    out_dir = Path(args.out)
    configs = learner_configs(args.seed)
    if args.config not in configs:
        raise ConfigError(f"unknown learner config {args.config!r}")
    params = _with_overrides(configs[args.config],
                             _load_param_overrides(args))

    frame, source = _load_frame(args)
    spec = _load_spec(args)

    rows = []
    full_rmse = None
    for label, group in ABLATION_ROWS:
        arm_spec = spec if group is None else ablate(spec, group)
        result = evaluation.holdout(frame, arm_spec, params,
                                    args.test_fraction)
        m = result["metrics"]
        if group is None:
            full_rmse = m.rmse
            delta = None
        else:
            delta = (m.rmse - full_rmse) / full_rmse
        rows.append({
            "feature_set": label,
            "rmse": m.rmse,
            "r2": m.r2,
            "delta_performance": delta,
            "n_features": len(result["matrix"].column_names),
            "train_time_s": result["train_time"],
            "best_iteration": result["model"].best_iteration,
            "stop_reason": result["log"].stop_reason,
            **_loss_curves(result["log"]),
        })

    report = {
        "experiment": "ablation",
        "tool_version": __version__,
        "seed": args.seed,
        "source": source,
        "config": args.config,
        "params": params.to_dict(),
        "test_fraction": args.test_fraction,
        "sign_convention": "delta_performance = (rmse_ablated - rmse_full) / "
                           "rmse_full; positive means removal degrades",
        "rows": rows,
    }
    report = write_report(report, out_dir / "ablation_report.json",
                          args.no_timing)
    print(render_ablation_table(report))
    return EXIT_OK


def render_ablation_table(report: dict) -> str:
    rows = []
    for r in report["rows"]:
        delta = r["delta_performance"]
        rows.append([
            r["feature_set"], _fmt(r["rmse"]), _fmt(r["r2"]),
            "-" if delta is None else f"{100 * delta:+.1f}%",
        ])
    header = report["sign_convention"]
    return header + "\n" + render_table(
        ["Feature Set", "RMSE", "R2", "DeltaPerformance"], rows)


def cmd_tune(args) -> int:
    tuner.check_budget(args.budget, args.init)
    if args.n_estimators_cap < 1:
        raise ConfigError("--n-estimators-cap must be >= 1")
    out_dir = Path(args.out)
    frame, source = _load_frame(args)
    spec = _load_spec(args)
    space = tuner.ParamSpace.default()
    overrides = _load_param_overrides(args)
    searched = sorted(overrides.keys() & {d.name for d in space.dimensions})
    if searched:
        raise ConfigError(f"--params sets {', '.join(map(repr, searched))}, "
                          "which tune searches")
    # What every trial fits besides the searched point; --params wins.
    fixed = {"growth": gbtree.DEPTHWISE, "patience": 20, "seed": args.seed,
             **overrides}
    # A bad fold layout fails here; the workers fork when it is entered.
    folds = evaluation.FoldWorkers(build_matrix(frame, spec), args.k,
                                   args.delta)
    cap = args.n_estimators_cap

    def fitted(point: dict) -> dict:
        """`point` as fitted: n_estimators clamped to the cap. The tuner
        itself keeps the unclamped point."""
        return {**point, "n_estimators": min(int(point["n_estimators"]), cap)}

    def to_params(point: dict) -> HyperParams:
        return HyperParams.from_dict({**fitted(point), **fixed})

    defaults = HyperParams().to_dict()
    default_point = fitted({d.name: defaults[d.name]
                            for d in space.dimensions})
    to_params(default_point)  # bad --params values fail here, not per trial

    trials_path = out_dir / "trials.jsonl"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Wall seconds in fold fits and in GP fits' restarts.
    timing = {"cv_s": 0.0, "gp_fit_s": 0.0}

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            timing[key] += time.perf_counter() - t0

    def score(point: dict) -> float:
        return timed("cv_s", evaluation.cross_validate, folds,
                     to_params(point)).cv_score

    def score_design(points):
        """(CV score, or the CyclecastError that failed it; seconds from
        the batch's start) per point. The first point's cross_validate
        fits the folds of every point as one list of tasks."""
        t0 = time.perf_counter()
        batch = [to_params(p) for p in points]
        outcomes = []
        for params in batch:
            try:
                value = evaluation.cross_validate(folds, params,
                                                  batch).cv_score
            except CyclecastError as exc:
                value = exc
            outcomes.append((value, time.perf_counter() - t0))
        timing["cv_s"] += time.perf_counter() - t0
        return outcomes

    def mapper(fn, args_list):
        return timed("gp_fit_s", folds.map, fn, args_list)

    # The fold workers fork before trials.jsonl opens, so they hold no
    # handle on it.
    with folds, open(trials_path, "w", encoding="utf-8") as stream:
        def on_trial(trial):
            record = trial.to_dict()
            record["params"] = fitted(record["params"])
            if args.no_timing:
                record = strip_timing(record)
            stream.write(json.dumps(record) + "\n")
            stream.flush()

        best_point, trials = tuner.optimize(
            space, score, budget=args.budget, init=args.init,
            seed=args.seed, initial_points=[default_point],
            on_trial=on_trial, evaluate=score_design, mapper=mapper,
        )
    timing["wait_s"] = folds.wait_s

    trace = tuner.incumbent_trace(trials)
    with open(out_dir / "convergence.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "incumbent_rmse"])
        for i, v in enumerate(trace):
            writer.writerow([i, repr(v)])

    best_params = to_params(best_point)
    default_score = trials[0].objective
    best_score = trace[-1]
    report = {
        "experiment": "tune",
        "tool_version": __version__,
        "seed": args.seed,
        "source": source,
        "budget": args.budget,
        "init": args.init,
        "k": args.k,
        "delta": args.delta,
        "default_cv_score": default_score,
        "best_cv_score": best_score,
        "best_point": fitted(best_point),
        "best_params": best_params.to_dict(),
        "n_failed_trials": sum(1 for t in trials if t.failed),
        "timing": timing,
    }
    report = write_report(report, out_dir / "tune_report.json",
                          args.no_timing)
    write_report(best_params.to_dict(), out_dir / "best_params.json",
                 no_timing=False)
    print(render_table(
        ["", "cv_score"],
        [["default", _fmt(default_score)], ["tuned", _fmt(best_score)]],
    ))
    print(f"trial history: {trials_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    out_dir = Path(args.out)
    model, extra = gbtree.load_model(args.model)
    if "feature_spec" not in extra:
        raise DataError(f"model file {args.model} carries no feature spec; "
                        "cannot rebuild features from raw data")
    try:
        spec = FeatureSpec.from_dict(extra["feature_spec"])
    except ConfigError as exc:
        raise DataError(f"model file {args.model}: {exc}") from None
    target_name = extra.get("target_name", TARGET_NAME)
    if target_name != TARGET_NAME:
        raise DataError(f"model file {args.model}: target_name "
                        f"{target_name!r} is not {TARGET_NAME!r}")
    frame = load_csv(args.data, allow_missing_target=True)
    have_target = bool(np.all(np.isfinite(frame.target)))
    if not have_target and needs_target_history(spec):
        raise DataError(
            "data has no target column but the model's features need "
            "target history (rolling/lag/ewm)"
        )
    matrix = build_matrix(frame, spec)

    t0 = time.perf_counter()
    pred = gbtree.predict(model, matrix)
    elapsed = time.perf_counter() - t0
    latency_us = 1e6 * elapsed / max(matrix.n_rows, 1)

    pred_path = out_dir / "predictions.csv"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(pred_path, [TIME_HEADER, "prediction"],
                     matrix.timestamps, [pred])

    report = {
        "experiment": "predict",
        "tool_version": __version__,
        "model": str(args.model),
        "data": str(args.data),
        "rows": matrix.n_rows,
        "dropped_warmup": matrix.dropped_warmup,
        "predictions": str(pred_path),
        "mean_latency_us": latency_us,
    }
    if have_target:
        report["metrics"] = evaluation.compute_metrics(
            matrix.target, pred).to_dict()
    report = write_report(report, out_dir / "predict_report.json",
                          args.no_timing)
    if have_target:
        m = report["metrics"]
        print(render_table(
            ["RMSE", "MAE", "R2", "MAPE%"],
            [[_fmt(m["rmse"]), _fmt(m["mae"]), _fmt(m["r2"]),
              _fmt(m["mape_pct"], 2)]],
        ))
    print(f"wrote {matrix.n_rows} predictions to {pred_path}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "bench": cmd_bench,
    "ablation": cmd_ablation,
    "tune": cmd_tune,
    "predict": cmd_predict,
}


def _discard_stdout():
    """Point stdout's file descriptor at os.devnull, so that the
    interpreter's final flush of what a closed pipe refused cannot raise
    again. A stdout without a descriptor holds nothing for that flush."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        status = run(argv)
        if sys.stdout is not None:  # None when started with stdout closed
            # A reader that closed a buffered stdout shows here, not at exit.
            sys.stdout.flush()
        return status
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CyclecastError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # The reader closed stdout early (`cyclecast bench | head`). Every
        # command prints only after its artefacts are written, so the run
        # succeeded.
        _discard_stdout()
        return EXIT_OK
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # A path the user named cannot be read or written.
            print(f"data error: cannot use {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_DATA
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
