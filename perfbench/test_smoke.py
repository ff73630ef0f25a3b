"""Smoke test of the benchmark at TINY scale: every metric BENCHMARK.json
names is emitted with its unit, every output check runs and passes, a seed
reproduces its parameters, and a directory without the program fails.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench._import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

CHECKS = {
    "desk-pretrain": {"loss-finite", "learning", "checkpoint-round-trip"},
    "toy-adapt": {"loss-finite", "learning", "replay-cadence", "pppl-range", "pppl-naive"},
    "desk-eval": {"checkpoint-round-trip", "pppl-range", "mrr-range", "learning",
                  "pppl-naive"},
    "toy-finetune": {"f1-range", "loss-finite"},
}
EVERY_RUN = {"setup-deterministic", "pass-digest", "pass-loss"}


def run_tiny(workload, trace, seed=3):
    return bench.run(workload, seed=seed, seconds=0.05, trace=trace, scale=workloads.TINY)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(CHECKS) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_and_check(workload, trace):
    result = run_tiny(workload, trace)
    detail = result.pop("detail")
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert CHECKS[workload] | EVERY_RUN <= set(detail["checks"])
    json.dumps(result)


def test_same_seed_same_parameters():
    first = run_tiny("toy-adapt", trace=False)["detail"]
    again = run_tiny("toy-adapt", trace=False)["detail"]
    other = run_tiny("toy-adapt", trace=False, seed=4)["detail"]
    assert first["digest"] == again["digest"] != other["digest"]
    assert first["final_mlm_loss"] == again["final_mlm_loss"]


def test_tracer_restores_every_binding():
    from bertlab import finetune as ft
    from bertlab import pretrain as pt
    before = (pt.adam_step, ft.adam_step, pt.BatchStream.batch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pt.adam_step is ft.adam_step and pt.adam_step is not before[0]
    finally:
        tracer.uninstall()
    assert (pt.adam_step, ft.adam_step, pt.BatchStream.batch) == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "toy-adapt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
