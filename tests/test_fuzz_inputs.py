"""Seeded fuzzing of the CLI's input files with scripts/fuzz_inputs.py:
every mutated CSV, model, feature-spec and hyperparameter file must end
in exit 0, 1 or 2 with no traceback, in a child process, so that a crash
fails one test and names its case."""

import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cyclecast

SCRIPT = Path(__file__).parent.parent / "scripts" / "fuzz_inputs.py"
SRC = Path(cyclecast.__file__).parent.parent


def fuzz(kind, cases, seed, src=SRC):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--input", kind, "--cases", str(cases),
         "--seed", str(seed), "--src", str(src)],
        capture_output=True, text=True, timeout=300)


# The CSV leg's 800 rows are one chunk of plain rows, read column by
# column; most of its cases substitute digits inside time fields.
@pytest.mark.parametrize("kind, cases", [("data", 400), ("model", 400),
                                         ("features", 120),
                                         ("params", 120)])
def test_mutated_inputs_fail_cleanly(kind, cases):
    proc = fuzz(kind, cases, seed=1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == \
        [str(i) for i in range(cases)]
    # Both outcomes occur: the mutations are neither all harmless nor
    # all refused.
    statuses = {line.split()[1] for line in lines}
    assert "0" in statuses and statuses - {"0"}


# A stand-in for cyclecast whose predict crashes on its first call,
# prints a traceback on its second, leaves --out after failing on its
# third, writes a report with an Infinity on its fourth and writes its
# files after.
STUB_CLI = """
import os, signal, traceback
from pathlib import Path

def main(argv):
    out = Path(argv[argv.index("--out") + 1])
    if argv[0] == "synth":
        out.mkdir(parents=True, exist_ok=True)
        (out / "synthetic.csv").write_text(
            "datetime,Global_active_power\\n2023-01-01 00:00:00,1.5\\n")
        return 0
    if argv[0] == "bench":
        out.mkdir(parents=True, exist_ok=True)
        (out / "model_xgb-style_sinusoidal.json").write_text("{}")
        return 0
    calls = Path("calls")
    n = len(calls.read_text()) if calls.exists() else 0
    calls.write_text("x" * (n + 1))
    if n == 0:
        os.kill(os.getpid(), signal.SIGSEGV)
    if n == 1:
        try:
            raise ValueError("boom")
        except ValueError:
            traceback.print_exc()
        return 3
    if n == 2:
        out.mkdir()
        return 2
    out.mkdir()
    (out / "predictions.csv").write_text("")
    (out / "predict_report.json").write_text(
        '{"rmse": Infinity}' if n == 3 else "{}")
    return 0
"""


def test_faults_fail_and_name_their_case(tmp_path):
    package = tmp_path / "cyclecast"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "features.py").write_text(textwrap.dedent("""
        class FeatureSpec:
            def to_dict(self):
                return {}
    """))
    (package / "cli.py").write_text(STUB_CLI)
    proc = fuzz("data", 5, seed=0, src=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == \
        f"0 {-signal.SIGSEGV} killed by signal {int(signal.SIGSEGV)}"
    assert proc.stderr.splitlines() == [
        f"case 0 (data, seed 0): exit {-signal.SIGSEGV}",
        "case 1 (data, seed 0): exit 3",
        "case 2 (data, seed 0): a failed predict left --out",
        "case 3 (data, seed 0): a zero exit wrote predict_report.json, "
        "not strict JSON",
        "1 of 5 data cases passed",
    ]
