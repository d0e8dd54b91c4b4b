#!/usr/bin/env python3
"""Benchmark for the cyclecast CLI: `train`, `tune` and `score` workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Runs one workload in this single process by calling `cyclecast.cli.main`
in-process, times every op from outside, checks every op's outputs and
prints, as its last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run does one
untraced and one traced pass and reports per-layer metrics from spans
recorded around cyclecast's public functions. See perfbench/README.md.
"""

import os
import sys

# Pin BLAS/OpenMP pools to one thread before anything imports numpy; the
# set-up probes inherit this environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

# Fresh-process imports per traced run; cli.import_s is their median.
IMPORT_SAMPLES = 3
PROBE_TIMEOUT_S = 120


@dataclass
class OpResult:
    label: str
    latency_s: float        # raw wall time of the op
    scaled_s: float         # the same at reference CPU speed
    failure: str | None = None
    wrong: bool = False


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "tune", "score"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="repeat the op sequence while another one fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (not for measurement)")
    p.add_argument("--inject-failure", action="store_true",
                   help="add one op that must fail (self-test)")
    p.add_argument("--probe", default=None, metavar="DIR",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def env_record(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def probe_main(args):
    """Child process: import cyclecast.cli, then run the workload's set-up.

    The speed sampler runs in this process from before the import, so the
    set-up time can be scaled to reference speed like the op times.
    """
    t0 = time.perf_counter()
    from speed import SpeedSampler  # imports numpy, as cyclecast.cli does
    with SpeedSampler() as sampler:
        import cyclecast.cli  # noqa: F401
        import_s = time.perf_counter() - t0 - sampler.busy_s
        from workloads import FULL, TINY, WORKLOADS
        sizes = TINY if args.tiny else FULL
        work = Path(args.probe)
        workload = WORKLOADS[args.workload](work, args.seed, sizes, False)
        with contextlib.redirect_stdout(io.StringIO()):
            workload.setup(work)
    print(json.dumps({"import_s": import_s, "busy_s": sampler.busy_s,
                      "scale": sampler.scale(t0, time.perf_counter())}))
    return 0


def probe(workload, seed, directory, tiny):
    """Run one set-up in a fresh process.

    Returns (wall s, wall s at reference speed, import s); the sampler's
    own time is taken out of all three.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           str(directory), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    wall -= out["busy_s"]
    return wall, wall * out["scale"], out["import_s"]


def run_ops(ops, tracer=None, tag="", sampler=None):
    from cyclecast import cli
    from workloads import CheckError, fresh_dir
    results = []
    for i, op in enumerate(ops):
        fresh_dir(op.out)
        if tracer is not None:
            tracer.op = f"{tag}{i}"
        captured = io.StringIO()
        failure = None
        busy0 = sampler.busy_s if sampler else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                status = cli.main(op.argv)
            if status != 0:
                tail = captured.getvalue().strip().splitlines()[-1:]
                failure = f"exit {status}: {' '.join(tail)}"
        except Exception as exc:  # an uncaught error is a failed op
            failure = f"uncaught {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latency = t1 - t0 - ((sampler.busy_s - busy0) if sampler else 0.0)
        scale = sampler.scale(t0, t1) if sampler else 1.0
        result = OpResult(op.label, latency, latency * scale, failure)
        if failure is None and op.check is not None:
            try:
                op.check()
            except CheckError as exc:
                result.failure, result.wrong = f"check: {exc}", True
        results.append(result)
    return results


def timed_phase(workload, args, max_rounds, tracer=None, sampler=None):
    """Run op sequences; returns (sequence times, op results, cpu s, wall s).

    Sequence times are sums of scaled op times when a sampler is given;
    the stop test uses raw times, so the round count follows `--seconds`.
    """
    from workloads import failing_op
    rounds, raw_rounds, results = [], [], []
    cpu0, t0 = os.times(), time.perf_counter()
    while True:
        ops = workload.ops()
        if args.inject_failure:
            ops.append(failing_op(workload.work))
        res = run_ops(ops, tracer, f"r{len(rounds)}.", sampler)
        results += res
        rounds.append(sum(r.scaled_s for r in res))
        raw_rounds.append(sum(r.latency_s for r in res))
        elapsed = time.perf_counter() - t0
        if (len(rounds) >= max_rounds
                or elapsed + statistics.median(raw_rounds) > args.seconds):
            break
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return rounds, results, cpu, elapsed


def print_ops(results):
    for r in results:
        status = "ok" if r.failure is None else f"FAILED {r.failure}"
        print(f"op {r.label} {r.latency_s:.3f} s (scaled {r.scaled_s:.3f} s) "
              f"{status}")


def print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}{'  ' + note if note else ''}")


def quality_metrics(workload):
    q = dict(workload.quality)
    cells = [v for k, v in q.items() if k.startswith("evaluation.holdout_rmse.")]
    if cells:
        q["evaluation.holdout_rmse"] = sum(cells) / len(cells)
    out = {name: (q.get(name, 0.0), "kW") for name in
           ("evaluation.holdout_rmse", "evaluation.score_rmse",
            "evaluation.cv_best_score")}
    return out, {k: v for k, v in q.items() if k not in out}


def end_to_end(workload, args):
    from speed import REF_KERNEL_S, SpeedSampler
    setup_dir = workload.work / "setup"
    samples, digests = [], set()
    for _ in range(workload.setup_samples):
        # Same directory every time: reports record their output paths.
        samples.append(probe(args.workload, args.seed, setup_dir, args.tiny))
        digests.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(setup_dir.iterdir())))
    # The README promises byte-identical outputs for equal seeds.
    same = len(digests) == 1
    workload.prepare(setup_dir)

    with SpeedSampler() as sampler:
        rounds, results, cpu, elapsed = timed_phase(
            workload, args, max_rounds=10**6, sampler=sampler)
    print_ops(results)
    latencies = [r.scaled_s for r in results]
    raw = [r.latency_s for r in results]
    failed = sum(r.failure is not None for r in results)
    setup_s = statistics.median(scaled for _, scaled, _ in samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(rounds), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(samples)} set-ups in fresh processes, "
                   "scaled",
        "wall_s": f"median of {len(rounds)} op sequence(s) of "
                  f"{len(results) // len(rounds)} ops",
        "op_p50_ms": f"n={len(latencies)} ops",
        "op_p90_ms": f"n={len(latencies)} ops, "
                     f"{sum(x > percentile(latencies, 90) for x in latencies)}"
                     " beyond",
    }
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, notes.get(name, ""))
    print_metric("error_rate", failed / len(results), "fraction",
                 f"{failed} of {len(results)} ops failed")
    raw_rounds = sum(r.latency_s for r in results) / len(rounds)
    print_metric("raw.setup_s", statistics.median(w for w, _, _ in samples), "s",
                 "unscaled")
    print_metric("raw.wall_s", raw_rounds, "s", "unscaled, mean per sequence")
    print_metric("raw.op_p50_ms", 1e3 * statistics.median(raw), "ms", "unscaled")
    print_metric("raw.op_p90_ms", 1e3 * percentile(raw, 90), "ms", "unscaled")
    kernel = [dt for _, dt in sampler.samples]
    print_metric("speed.kernel_ms", 1e3 * statistics.median(kernel), "ms",
                 f"median of {len(kernel)} samples; reference "
                 f"{1e3 * REF_KERNEL_S} ms")
    print_metric("proc.cpu_util", cpu / elapsed, "fraction")
    for name, (value, unit) in quality_metrics(workload)[0].items():
        print_metric(name, value, unit, "ungated")
    if not same:
        print("set-up outputs differ between set-ups with the same seed")
    correct = same and not any(r.wrong for r in results)
    return correct, results, metrics


def per_layer(workload, args):
    from tracing import LAYERS, Tracer, layer_metrics, layer_self_times
    # train's set-up is the import alone.
    import_s = [probe("train", args.seed, workload.work / "import", args.tiny)[2]
                for _ in range(IMPORT_SAMPLES)]
    tracer = Tracer()
    setup_dir = workload.work / "setup"
    tracer.install()
    tracer.op = "setup"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            workload.setup(setup_dir)
    finally:
        tracer.uninstall()
    workload.prepare(setup_dir)

    base_rounds, base_results, cpu, base_elapsed = timed_phase(
        workload, args, max_rounds=1)
    tracer.install()
    try:
        rounds, results, _, _ = timed_phase(workload, args, max_rounds=1,
                                            tracer=tracer)
    finally:
        tracer.uninstall()
    results = base_results + results
    print_ops(results)
    tracer.write(workload.work / "spans.jsonl")

    metrics = layer_metrics(tracer)
    quality, per_cell = quality_metrics(workload)
    metrics.update(quality)
    metrics["tuner.failed_trials"] = (workload.failed_trials, "count")
    metrics["cli.import_s"] = (statistics.median(import_s), "s")
    metrics["proc.cpu_s"] = (cpu, "s")
    metrics["proc.cpu_util"] = (cpu / base_elapsed, "fraction")
    metrics["trace.overhead_s"] = (rounds[0] - base_rounds[0], "s")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    for name, value in per_cell.items():
        print_metric(name, value, "kW", "ungated")
    print(f"tracing: untraced wall {base_rounds[0]:.4f} s, traced wall "
          f"{rounds[0]:.4f} s, overhead "
          f"{100 * (rounds[0] / base_rounds[0] - 1):+.2f}% "
          f"({len(tracer.spans)} spans)")
    setup_self = layer_self_times(tracer.spans, lambda op: op == "setup")
    ops_self = layer_self_times(tracer.spans, lambda op: op != "setup")
    print(f"{'layer':<12}{'setup self s':>14}{'ops self s':>12}{'ops share':>11}")
    for layer in LAYERS:
        print(f"{layer:<12}{setup_self[layer]:>14.4f}{ops_self[layer]:>12.4f}"
              f"{ops_self[layer] / rounds[0]:>11.1%}")
    correct = not any(r.wrong for r in results)
    return correct, results, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cyclecast" / "cli.py").is_file():
        print(f"error: cyclecast sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    if args.probe is not None:
        return probe_main(args)

    import cyclecast
    if Path(cyclecast.__file__).resolve().parent != SRC / "cyclecast":
        print(f"error: imported cyclecast from {cyclecast.__file__}",
              file=sys.stderr)
        return 2
    from workloads import FULL, TINY, WORKLOADS, fresh_dir
    sizes = TINY if args.tiny else FULL
    work = fresh_dir(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workload = WORKLOADS[args.workload](work, args.seed, sizes, bool(args.trace))
    env = env_record(args.seed)
    print(f"cyclecast benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        run = per_layer if args.trace else end_to_end
        correct, results, metrics = run(workload, args)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": len(results),
        "failed": sum(r.failure is not None for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({**result, "env": env}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
