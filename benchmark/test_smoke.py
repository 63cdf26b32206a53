"""Smoke test of the benchmark itself on seconds-long workloads.

    python3 -m pytest benchmark/test_smoke.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from calibrate import SpeedProbe
from workloads import END_TO_END, PER_LAYER, SMOKE_WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


def emitted(name: str, trace: bool, reference: dict | None = None) -> dict:
    """The final result object of a one-second run of a smoke workload."""
    ref = REFERENCE[name] if reference is None else reference
    result = run.measure(SMOKE_WORKLOADS[name], ref, seed=1, seconds=1, trace=trace)
    units = PER_LAYER if trace else END_TO_END
    return run.report(result, run.metrics_of(result, trace), units, 1, [])


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_end_to_end_metrics_emitted_with_units():
    out = emitted("smoke_cli", trace=False)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert set(out["metrics"]) == set(END_TO_END)
    for name, m in out["metrics"].items():
        assert m["unit"] == END_TO_END[name]
        assert m["value"] > 0


@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
def test_per_layer_metrics_emitted_with_units(name):
    # the worker itself fails the run unless each traced call's self times
    # add up to its root span
    out = emitted(name, trace=True)
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == set(PER_LAYER)
    for metric, m in out["metrics"].items():
        assert m["unit"] == PER_LAYER[metric]
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("name, key", [
    ("smoke_study", "err_u_proj"),
    ("smoke_locking", "trace_diag"),
    ("smoke_cli", "vtk_abs_sum"),
])
def test_perturbed_reference_counts_as_failure(name, key):
    ref = copy.deepcopy(REFERENCE[name])
    label = sorted(ref)[-1]
    ref[label][key] *= 1 + 1e-5
    out = emitted(name, trace=True, reference=ref)
    assert not out["correct"]
    assert 0 < out["failed"] <= out["attempted"]


def test_speed_probe_scales_own_time_to_reference_speed():
    # units that take twice the reference time mean a host at half speed
    probe = SpeedProbe(lambda: 0.002, reference_s=0.001)
    own, norm = probe.normalize(1.0, [0.002] * 10)
    assert own == pytest.approx(0.98)
    assert norm == pytest.approx(0.49)
    # a measurement too short for a sample takes one right after it
    assert probe.normalize(0.004, []) == pytest.approx((0.004, 0.002))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "study_tri_k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
