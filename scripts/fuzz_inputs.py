#!/usr/bin/env python3
"""Feed seeded mutations of one input file to the CLI and check how it fails.

    python3 scripts/fuzz_inputs.py --input {data,model,features,params}
        [--cases N] [--seed S] [--src SRC]

A setup step writes an 800-hour synthetic CSV, one chunk of plain rows,
and a small saved xgb-style/sinusoidal model. Each case then mutates one
of them, or a feature-spec or hyperparameter file, with stdlib `random`
seeded by (seed, input, case index), and runs one command:

    data, model          cyclecast predict --data CSV --model MODEL
    features, params     cyclecast bench --features SPEC --params PARAMS

The CSV mutations mostly substitute digits inside time fields, which
makes impossible dates, hours, minutes and seconds, or edit target
fields: a swap of two bytes, an extra ".", "e", "+" or "-", leading
zeros or a run of 20 or more digits. The rest edit bytes and lines. The
JSON mutations edit values, keys and types, or the text.

Every case must exit 0, 1 or 2 and print no traceback; a failed
`predict` must leave no --out directory, and a zero exit must write the
files the README lists, every JSON report among them strict JSON, with
no NaN or Infinity. Cases run in a child process that runs one case
after another in-process; when it dies, by a signal say, the case it
was running fails and a fresh child goes on with the next. One line per
case, "index exit first-stderr-line", goes to stdout, a warning without
the file and line that raised it, so two source trees can be compared
by diffing the output of `--src A/src` and `--src B/src`. Exits 1 if a
case failed, naming it on stderr, and 0 otherwise.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

HOURS = 800
# Small enough that a bench run takes a fraction of a second.
PARAMS = {"n_estimators": 5, "max_depth": 3, "patience": 3}
COMMANDS = {"data": "predict", "model": "predict", "features": "bench",
            "params": "bench"}
# The files each command writes into --out, as the README lists them.
OUTPUTS = {"predict": {"predictions.csv", "predict_report.json"},
           "bench": {"bench_report.json"}}
# Digit positions of "YYYY-MM-DD HH:MM:SS".
STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
BYTES = [b",", b'"', b"\r", b"\n", b"\xe9", b"\0", b"T", b"-", b":", b" ",
         b"x", b"9", b"0", b".", b"e", b"+0"]
NODE_VALUES = [0, -1, 1, 2, 3, 5, -2, 2 ** 63, -2 ** 63 - 1, 10 ** 30,
               10 ** 400, 0.5, 1.0, True, None, "1", float("inf"),
               float("nan"), 1e308, [1], {}]
# Values of spec and hyperparameter fields. No count is large enough to
# make a run long: a huge lag or window is refused by the warm-up check.
SPEC_VALUES = [-1, 0, 1, 2, 24, 168, 700, 10 ** 30, 0.5, -0.5, 1e308,
               float("inf"), float("nan"), "mean", "std", "median", "hour",
               "x", None, True, [], {}, ["hour", "sinusoidal"],
               ["hour", "ordinal"], ["minute", "sinusoidal"]]
PARAM_VALUES = [-1, 0, 1, 2, 3, 7, 0.0, 0.5, 1.0, 1.5, -0.5, 1e-300, 1e308,
                float("inf"), float("nan"), "x", "depthwise", "leafwise",
                None, True, False, [], {}]
PARAM_KEYS = ["learning_rate", "max_depth", "n_estimators",
              "min_child_weight", "subsample", "colsample_bytree",
              "reg_lambda", "gamma", "goss_a", "goss_b", "growth",
              "num_leaves", "patience", "seed", "bogus"]


def pick(rng, values):
    """A copy of one of `values`, so that no edit changes the pool."""
    return copy.deepcopy(rng.choice(values))


def mutate_target(field, rng):
    """The bytes of a target field with one edit."""
    kind = rng.randrange(4)
    if kind == 0 and len(field) > 1:  # two neighbouring bytes swapped
        k = rng.randrange(len(field) - 1)
        return field[:k] + field[k + 1:k + 2] + field[k:k + 1] \
            + field[k + 2:]
    if kind == 2:  # leading zeros, after the sign
        sign = 1 if field.startswith(b"-") else 0
        return field[:sign] + b"0" * rng.randint(1, 6) + field[sign:]
    k = rng.randrange(len(field) + 1)
    if kind == 1:
        return field[:k] + rng.choice([b".", b"e", b"+", b"-"]) + field[k:]
    run = "".join(rng.choice("0123456789") for _ in range(rng.randint(20, 30)))
    return field[:k] + run.encode() + field[k:]


def mutate_csv(data, rng):
    """A CSV of `data`'s rows with one to three edits."""
    lines = data.splitlines(keepends=True)
    for _ in range(rng.randint(1, 3)):
        if len(lines) < 2:  # a cut left the header alone
            break
        row = rng.randrange(1, len(lines))
        kind = rng.random()
        line = lines[row]
        if kind < 0.5:  # a digit of a time field
            k = rng.choice(STAMP_DIGITS)
            lines[row] = line[:k] + str(rng.randrange(10)).encode() \
                + line[k + 1:]
        elif kind < 0.7 and b"," in line:  # the target field
            start = line.rindex(b",") + 1
            end = len(line.rstrip(b"\r\n"))
            lines[row] = line[:start] + mutate_target(
                line[start:end], rng) + line[end:]
        elif kind < 0.8:
            k = rng.randrange(len(lines[row]))
            lines[row] = lines[row][:k] + rng.choice(BYTES) \
                + lines[row][k + rng.randrange(2):]
        elif kind < 0.85:
            del lines[row]
        elif kind < 0.9:
            lines.insert(row, lines[rng.randrange(1, len(lines))])
        elif kind < 0.95:
            lines[0] = lines[0].replace(b"\r\n", rng.choice(
                [b"\r", b"\n", b",x\r\n", b'"\r\n']))
        else:
            cut = rng.randrange(len(lines))
            lines = lines[:max(cut, 1)]
    return b"".join(lines)


def mutate_json(doc, rng, edit):
    """JSON text of `doc` after one to three calls of `edit`, or with
    its text cut or a byte replaced."""
    for _ in range(rng.randint(1, 3)):
        doc = edit(doc, rng)
    text = json.dumps(doc).encode()
    kind = rng.random()
    if kind < 0.05:
        text = text[:rng.randrange(len(text) + 1)]
    elif kind < 0.1:
        k = rng.randrange(len(text))
        text = text[:k] + rng.choice(BYTES + [b"{", b"]", b"'"]) \
            + text[k + 1:]
    return text


def edit_model(doc, rng):
    if not isinstance(doc, dict):
        return doc
    kind = rng.random()
    trees = doc.get("trees")
    if kind < 0.7 and isinstance(trees, list) and trees:
        i = rng.randrange(len(trees))
        tree = trees[i]
        if not isinstance(tree, dict):
            return doc
        key = rng.choice(["feature", "threshold", "left", "right", "value"])
        shape = rng.random()
        if shape < 0.8 and isinstance(tree.get(key), list) and tree[key]:
            tree[key][rng.randrange(len(tree[key]))] = \
                pick(rng, NODE_VALUES)
        elif shape < 0.85:
            tree.pop(key, None)
        elif shape < 0.9 and isinstance(tree.get(key), list):
            tree[key] = tree[key][:-1]
        elif shape < 0.95:
            tree[key] = rng.choice([7, "x", None, {}])
        else:
            trees[i] = rng.choice([[], "tree", 3, None])
    elif kind < 0.8:
        key = rng.choice(["format_version", "params", "trees", "base_score",
                          "best_iteration", "feature_names",
                          "gain_by_feature", "extra"])
        if rng.random() < 0.3:
            doc.pop(key, None)
        else:
            doc[key] = pick(rng, NODE_VALUES + [[], [-5], 0, 1, 4, 6])
    elif kind < 0.9:
        names = doc.get("feature_names")
        if isinstance(names, list) and names:
            k = rng.randrange(len(names))
            names[k] = rng.choice([names[0], "x", 1, None])
    elif isinstance(doc.get("extra"), dict):
        spec = doc["extra"].get("feature_spec")
        if isinstance(spec, dict):
            doc["extra"]["feature_spec"] = edit_spec(spec, rng)
        else:
            doc["extra"].pop("feature_spec", None)
    return doc


def edit_spec(doc, rng):
    if not isinstance(doc, dict):
        return doc
    if rng.random() < 0.05:
        return rng.choice([[], "spec", 3, None])
    key = rng.choice(["rolling_windows", "rolling_stats", "lags",
                      "ewm_halflives", "temporal", "disabled_groups",
                      "bogus"])
    kind = rng.random()
    if kind < 0.4 and isinstance(doc.get(key), list) and doc[key]:
        doc[key][rng.randrange(len(doc[key]))] = pick(rng, SPEC_VALUES)
    elif kind < 0.6 and isinstance(doc.get(key), list):
        doc[key].append(pick(rng, SPEC_VALUES))
    elif kind < 0.8:
        doc[key] = pick(rng, SPEC_VALUES)
    else:
        doc.pop(key, None)
    return doc


def edit_params(doc, rng):
    if not isinstance(doc, dict):
        return doc
    if rng.random() < 0.05:
        return rng.choice([[], "params", 3, None])
    key = rng.choice(PARAM_KEYS)
    if rng.random() < 0.2:
        doc.pop(key, None)
    else:
        doc[key] = pick(rng, PARAM_VALUES)
    return doc


def write_case(kind, index, seed):
    """Write case `index` of `kind` into the working directory; returns
    its cyclecast argument list."""
    rng = random.Random(f"{seed}:{kind}:{index}")
    data, model = "base/synthetic.csv", "base/model.json"
    features, params = "base/features.json", "base/params.json"
    if kind == "data":
        Path("case.csv").write_bytes(
            mutate_csv(Path(data).read_bytes(), rng))
        data = "case.csv"
    elif kind == "model":
        Path("case.json").write_bytes(mutate_json(
            json.loads(Path(model).read_text()), rng, edit_model))
        model = "case.json"
    elif kind == "features":
        Path("case.json").write_bytes(mutate_json(
            json.loads(Path(features).read_text()), rng, edit_spec))
        features = "case.json"
    else:
        Path("case.json").write_bytes(mutate_json(dict(PARAMS), rng,
                                                  edit_params))
        params = "case.json"
    if COMMANDS[kind] == "predict":
        return ["predict", "--data", data, "--model", model,
                "--out", "case_out"]
    return ["bench", "--data", data, "--features", features, "--params",
            params, "--configs", "xgb-style", "--encodings", "sinusoidal",
            "--out", "case_out", "--no-timing"]


def setup():
    """Write the base inputs into base/ of the working directory."""
    from cyclecast.cli import main
    from cyclecast.features import FeatureSpec
    base = Path("base")
    base.mkdir()
    (base / "params.json").write_text(json.dumps(PARAMS))
    (base / "features.json").write_text(json.dumps(FeatureSpec().to_dict()))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["synth", "--out", "base", "--n-hours", str(HOURS),
                      "--seed", "7", "--no-timing"],
                     ["bench", "--out", "base/bench", "--data",
                      "base/synthetic.csv", "--params", "base/params.json",
                      "--configs", "xgb-style", "--encodings", "sinusoidal",
                      "--save-models", "--no-timing"]):
            if main(argv):
                sys.exit(f"setup failed: cyclecast {' '.join(argv)}")
    shutil.copy(base / "bench" / "model_xgb-style_sinusoidal.json",
                base / "model.json")


def worker(kind, start, cases, seed):
    """Run cases start..cases-1 in this process, printing each one's
    [index, exit status, stderr, the files in --out or None] as a JSON
    line."""
    from cyclecast.cli import main
    for index in range(start, cases):
        shutil.rmtree("case_out", ignore_errors=True)
        argv = write_case(kind, index, seed)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("default")
            status = main(argv)
        out = sorted(os.listdir("case_out")) if os.path.isdir(
            "case_out") else None
        loose = [name for name in out or () if name.endswith(".json")
                 and not strict_json(Path("case_out", name))]
        print(json.dumps([index, status, err.getvalue(), out, loose]),
              flush=True)


def strict_json(path):
    """Whether the file at `path` is JSON without NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    try:
        json.loads(path.read_bytes(), parse_constant=refuse)
    except ValueError:
        return False
    return True


def child(args, stderr, *extra):
    """This script in a child process under `args.src`, in the working
    directory, writing to the file `stderr`; returns the Popen, its
    stdout a pipe."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--input", args.input,
         "--cases", str(args.cases), "--seed", str(args.seed), *extra],
        cwd=args.work, env=env, stdout=subprocess.PIPE, stderr=stderr,
        text=True)


def fault(kind, status, stderr, out, loose):
    """Why a case's outcome is wrong, or None."""
    command = COMMANDS[kind]
    if status not in (0, 1, 2):
        return f"exit {status}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if command == "predict" and status and out is not None:
        return "a failed predict left --out"
    if not status and not OUTPUTS[command] <= set(out or ()):
        return f"a zero exit wrote {out}, not {sorted(OUTPUTS[command])}"
    if not status and loose:
        return f"a zero exit wrote {', '.join(loose)}, not strict JSON"
    return None


def run(args):
    with tempfile.TemporaryFile("w+") as err:
        proc = child(args, err, "--setup")
        proc.communicate()
        if proc.returncode:
            err.seek(0)
            sys.exit(f"setup failed ({proc.returncode}):\n{err.read()}")
        failed = []
        start = 0
        while start < args.cases:
            err.seek(0)
            err.truncate()
            proc = child(args, err, "--worker", str(start))
            for line in proc.stdout:
                index, status, stderr, out, loose = json.loads(line)
                report(args, index, status, stderr, out, loose, failed)
                start = index + 1
            proc.wait()
            if start < args.cases:  # the case it was running ended it
                err.seek(0)
                stderr = (f"killed by signal {-proc.returncode}"
                          if proc.returncode < 0 else err.read().strip())
                report(args, start, proc.returncode, stderr, None, [],
                       failed)
                start += 1
    for index, why in failed:
        print(f"case {index} ({args.input}, seed {args.seed}): {why}",
              file=sys.stderr)
    print(f"{args.cases - len(failed)} of {args.cases} {args.input} cases "
          "passed", file=sys.stderr)
    return 1 if failed else 0


def report(args, index, status, stderr, out, loose, failed):
    """Print a case's line; add it to `failed` if its outcome is wrong."""
    first = stderr.splitlines()[0] if stderr.strip() else ""
    # A warning starts with the file and line that raised it, which
    # differ between trees that do the same arithmetic in other places.
    first = re.sub(r"^.*:\d+: (\w*Warning: )", r"\1", first)
    print(f"{index} {status} {first}", flush=True)
    why = fault(args.input, status, stderr, out, loose)
    if why is not None:
        failed.append((index, why))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", required=True, choices=sorted(COMMANDS))
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--src", default=str(Path(__file__).parent.parent
                                        / "src"),
                   help="the cyclecast src/ directory to run")
    p.add_argument("--setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", type=int, default=None,
                   help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.setup:
        return setup()
    if args.worker is not None:
        return worker(args.input, args.worker, args.cases, args.seed)
    with tempfile.TemporaryDirectory() as work:
        args.work = work
        return run(args)


if __name__ == "__main__":
    sys.exit(main())
