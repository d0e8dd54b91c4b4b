"""scripts/same_outputs.py: two source trees, one command set, byte-equal
outputs. With `src` as both sides it checks that outputs do not depend on
the interpreter's hash seed."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_same_source_gives_same_outputs(tmp_path):
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), src, src, "--tiny", "--work",
         str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith(" 0 differ")
    written = {p.relative_to(tmp_path / "base").as_posix()
               for p in (tmp_path / "base").rglob("*") if p.is_file()}
    assert {"bench_year/model_lgbm-style_ordinal.json",
            "predict_xgb/predictions.csv", "tune_big/trials.jsonl",
            "ablation/ablation_report.json",
            "year/synth_report.json"} <= written


def test_differences_names_changed_and_one_sided_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        (side / "sub").mkdir(parents=True)
        (side / "same.json").write_text("{}")
    (a / "sub" / "changed.csv").write_text("1\n")
    (b / "sub" / "changed.csv").write_text("2\n")
    (a / "only_a.json").write_text("{}")
    assert same_outputs.differences(a, b) == [
        Path("only_a.json"), Path("sub/changed.csv")]
    assert same_outputs.differences(a, a) == []
