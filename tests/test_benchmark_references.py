"""The benchmark's correctness check hashes the same sweep outputs that the
golden tests pin. These checks read perfbench's reference hashes and its
custom sweep without running the benchmark, so the two gates cannot drift
apart unnoticed."""

import importlib.util
import json
from pathlib import Path

from test_cli import GOLDEN_CUSTOM_SWEEP, GOLDEN_SWEEPS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_reference_hashes_are_the_golden_hashes():
    references = json.loads((PERFBENCH / "references.json").read_text(
        encoding="utf-8"))
    assert references == GOLDEN_SWEEPS


def test_benchmark_custom_sweep_is_the_golden_custom_sweep():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    assert inputs.CUSTOM_SWEEP == GOLDEN_CUSTOM_SWEEP
