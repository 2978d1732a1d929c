"""Metric names, BENCHMARK.json, and refusal outside a full checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, HELD_OUT_LAYER, NAME_RE, PER_LAYER, UNIT_RE
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_metric_names_and_units():
    metrics = END_TO_END + PER_LAYER + HELD_OUT_LAYER
    names = [m[0] for m in metrics]
    assert len(names) == len(set(names))
    for name, unit, better, *bound in metrics:
        assert NAME_RE.fullmatch(name), name
        assert UNIT_RE.fullmatch(unit), unit
        assert better in ("higher", "lower")
        assert all(0 < b <= 0.25 for b in bound)
    assert ("setup_s", "s", "lower") == END_TO_END[0][:3]


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [tuple(m.values()) for m in spec["per_layer"]] == [tuple(m) for m in PER_LAYER]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mcmc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
