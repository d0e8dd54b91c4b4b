#!/usr/bin/env python3
"""Check that two source trees of cyclecast write byte-identical outputs.

    python3 scripts/same_outputs.py BASE_SRC CHANGE_SRC [--work DIR] [--tiny]

BASE_SRC and CHANGE_SRC are `src/` directories, for example of a
`git archive` of the parent commit and of the working tree. Each side runs
the same fixed `--no-timing` command set, in one interpreter with its
`src/` first on `sys.path`, in its own working directory under DIR, with
relative paths, so that the paths written into reports match. The base
side runs under PYTHONHASHSEED=1 and the change side under 2, so passing
`src` as both sides checks that outputs do not depend on the interpreter's
hash seed. The set
covers `synth`, `bench --save-models` at a year and at 600 hours, `bench`
over three encodings and with a calendar-only feature spec, `ablation`,
a perfbench-shaped `tune` and a larger one, and `predict` with both saved
learner configs. `--tiny` shrinks every size, for a quick check.

Then every file of the two trees is compared byte for byte. Prints each
file that differs or exists on one side only, and exits 1 if there is any,
0 if none.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Hours of each data set, per scale.
SIZES = {
    "full": {"year": 8760, "small": 600, "mid": 2000, "tune": 480,
             "tune_big": 1176},
    "tiny": {"year": 600, "small": 300, "mid": 300, "tune": 300,
             "tune_big": 320},
}

CALENDAR_ONLY = {"rolling_windows": [], "lags": [], "ewm_halflives": []}

# Runs in each side's interpreter: argv[1] is the side's src directory,
# argv[2] the JSON list of commands. Stops at the first non-zero exit.
DRIVER = """
import json, sys
from pathlib import Path
import cyclecast
from cyclecast.cli import main
if Path(cyclecast.__file__).resolve().parent != Path(sys.argv[1], "cyclecast"):
    sys.exit(f"imported cyclecast from {cyclecast.__file__}, not {sys.argv[1]}")
for argv in json.loads(sys.argv[2]):
    status = main(argv)
    if status:
        sys.exit(f"exit {status}: cyclecast {' '.join(argv)}")
"""


def commands(scale):
    """The command set, as argument lists for `cyclecast.cli.main`."""
    n = SIZES[scale]
    tiny = scale == "tiny"
    tune_small = ["--k", "3", "--delta", "48", "--budget", "6", "--init",
                  "4", "--n-estimators-cap", "10"]
    tune_big = ["--k", "3", "--delta", "60", "--budget", "8", "--init", "4",
                "--n-estimators-cap", "20"]
    if tiny:
        tune_small = ["--k", "2", "--delta", "24", "--budget", "3",
                      "--init", "2", "--n-estimators-cap", "3"]
        tune_big = ["--k", "2", "--delta", "24", "--budget", "4", "--init",
                    "2", "--n-estimators-cap", "4"]
    common = ["--no-timing"]
    year = str(n["year"])
    return [
        ["synth", "--out", "year", "--n-hours", year, "--seed", "7", *common],
        ["synth", "--out", "tune_data", "--n-hours", str(n["tune"]),
         "--seed", "3", *common],
        ["synth", "--out", "tune_big_data", "--n-hours", str(n["tune_big"]),
         "--seed", "5", *common],
        ["bench", "--out", "bench_year", "--n-hours", year, "--seed", "7",
         "--save-models", *common],
        ["bench", "--out", "bench_small", "--n-hours", str(n["small"]),
         "--seed", "11", "--save-models", *common],
        ["bench", "--out", "bench_encodings", "--n-hours", str(n["mid"]),
         "--encodings", "onehot,ordinal,sinusoidal", *common],
        ["bench", "--out", "bench_calendar", "--n-hours", str(n["mid"]),
         "--features", "calendar.json", *common],
        ["ablation", "--out", "ablation", "--n-hours", str(n["mid"]),
         *common],
        ["tune", "--out", "tune", "--data", "tune_data/synthetic.csv",
         "--seed", "3", *tune_small, *common],
        ["tune", "--out", "tune_big", "--data", "tune_big_data/synthetic.csv",
         *tune_big, *common],
        ["predict", "--out", "predict_xgb", "--model",
         "bench_year/model_xgb-style_sinusoidal.json", "--data",
         "year/synthetic.csv", *common],
        ["predict", "--out", "predict_lgbm", "--model",
         "bench_year/model_lgbm-style_ordinal.json", "--data",
         "year/synthetic.csv", *common],
    ]


def run_side(src, work, argvs, hash_seed):
    """Run the command set with `src` first on the path, inside `work`,
    under PYTHONHASHSEED=`hash_seed`."""
    src = Path(src).resolve()
    if not (src / "cyclecast").is_dir():
        raise SystemExit(f"{src} holds no cyclecast package")
    work.mkdir(parents=True)
    (work / "calendar.json").write_text(json.dumps(CALENDAR_ONLY),
                                        encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, str(src), json.dumps(argvs)],
        cwd=work, env=env, stdout=subprocess.DEVNULL, check=False)
    if done.returncode:
        raise SystemExit(f"{src}: the command set failed")


def differences(a, b):
    """Relative paths of files that differ between trees a and b or exist
    in one only."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(
        (files_a ^ files_b)
        | {p for p in files_a & files_b
           if (a / p).read_bytes() != (b / p).read_bytes()})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src")
    ap.add_argument("change_src")
    ap.add_argument("--work", default=None,
                    help="directory for both sides' outputs (default: a "
                         "temporary one, removed afterwards)")
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for a quick check")
    args = ap.parse_args(argv)

    argvs = commands("tiny" if args.tiny else "full")
    work = Path(args.work) if args.work else Path(tempfile.mkdtemp())
    try:
        sides = [work / "base", work / "change"]
        for src, side, hash_seed in zip((args.base_src, args.change_src),
                                        sides, ("1", "2")):
            if side.exists():
                shutil.rmtree(side)
            run_side(src, side, argvs, hash_seed)
        diff = differences(*sides)
        n_files = sum(1 for p in sides[0].rglob("*") if p.is_file())
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for path in diff:
        print(f"differs: {path}")
    print(f"{len(argvs)} commands, {n_files} files compared, "
          f"{len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
