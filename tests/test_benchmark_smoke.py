"""One-second benchmark runs: the harness still drives the program, and every
output check it makes holds.  No timing is checked."""

from __future__ import annotations

import importlib
import json
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return sorted(m["name"] for m in spec[kind])


def _run_benchmark(tmp_path: Path, workload: str, *extra: str) -> dict:
    # A copy, so the run leaves the checkout's perfbench/_run alone.
    skip = shutil.ignore_patterns("_run", "__pycache__", "*.egg-info")
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "oracles.py", tmp_path / "tests")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", *extra],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


# corpus_narrow drives the corpus scan, hierarchy_wide induction, meaning_store the store.
@pytest.mark.parametrize("workload", ["corpus_narrow", "hierarchy_wide", "meaning_store"])
def test_one_second_benchmark_run_is_correct(workload: str, tmp_path) -> None:
    result = _run_benchmark(tmp_path, workload)
    assert sorted(result["metrics"]) == _declared("end_to_end")


def test_traced_benchmark_run_reports_every_layer(tmp_path) -> None:
    # The trace wraps module attributes the program resolves at call time,
    # similarity.dimension_similarity among them; a layer whose spans vanish
    # has no samples, and run.py then exits 1.
    result = _run_benchmark(tmp_path, "meaning_store", "--trace", "1")
    assert sorted(result["metrics"]) == _declared("per_layer")
    assert result["metrics"]["similarity.dimension_ms"]["value"] > 0  # spans were recorded


def test_every_trace_target_resolves() -> None:
    # spans.py skips a patch point whose target is gone, so a rename in the
    # program would silently drop that layer from the traced run.
    patch_points = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))["PATCH_POINTS"]
    for module_name, path, name, _ in patch_points:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr)), f"{name}: {module_name}.{path}"
