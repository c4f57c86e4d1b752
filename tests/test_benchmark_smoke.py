"""A one-second benchmark run: the harness still drives the program, and every
output check it makes holds.  No timing is checked."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# corpus_narrow drives the corpus scan, hierarchy_wide induction, meaning_store the store.
@pytest.mark.parametrize("workload", ["corpus_narrow", "hierarchy_wide", "meaning_store"])
def test_one_second_benchmark_run_is_correct(workload: str, tmp_path) -> None:
    # A copy, so the run leaves the checkout's perfbench/_run alone.
    skip = shutil.ignore_patterns("_run", "__pycache__", "*.egg-info")
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "oracles.py", tmp_path / "tests")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
