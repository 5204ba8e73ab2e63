"""Smoke tests of the benchmark driver at its smallest size: `--seconds 0`
gives one measured pass, and the traced run its fixed passes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    result = _result(_run(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _copy_benchmark(target: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", target)
    shutil.copytree(ROOT / "perfbench", target / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", target / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_reference_counts_as_error(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    references = tmp_path / "perfbench" / "references.json"
    hashes = json.loads(references.read_text(encoding="utf-8"))
    hashes["fig3a"] = "0" * 64
    references.write_text(json.dumps(hashes), encoding="utf-8")

    traced = _result(_run(tmp_path, "figures", 1))
    assert not traced["correct"]
    assert traced["metrics"]["error_rate"]["value"] > 0
    untraced = _result(_run(tmp_path, "figures", 0))
    assert untraced["failed"] == 1
    assert untraced["metrics"]["success_rate"]["value"] < 1


def test_refuses_to_run_without_sources(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    done = _run(tmp_path, "figures", 0)
    assert done.returncode != 0
    assert done.stdout == ""
