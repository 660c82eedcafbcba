"""Tests of the benchmark itself, on shrunken workloads.

The shrunken workloads keep every job shape (configurations, channels,
mixes) but use a few hundred trace records, so each test takes seconds.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.experiments.engine import ExperimentScale  # noqa: E402

from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.measure import run_sim_cycle  # noqa: E402

DECLARED = bench.declared_metrics()


def tiny(name):
    """A seconds-long version of workload ``name``."""
    if name == "single-core":
        return workloads.single_core(records=200)
    if name == "multicore":
        full = workloads.multicore(records=60)
        return replace(full, jobs=full.jobs[::3])
    return workloads.figure_sweep(ExperimentScale.tiny(), ("7", "12"))


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    """Make the command-line entry point run the tiny workloads."""
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            lambda name=name: tiny(name))
    monkeypatch.setattr(workloads, "load_pins", lambda: {})
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_command_prints_every_metric_with_its_unit(
        tiny_workloads, capsys, trace):
    kind = "per_layer" if trace == "1" else "end_to_end"
    bench.main(["--workload", "single-core", "--seed", "3",
                "--seconds", "0", "--trace", trace])
    lines = capsys.readouterr().out.strip().splitlines()
    for metric, unit in DECLARED[kind].items():
        assert any(line.startswith(f"{metric} = ")
                   and line.endswith(f" {unit}") for line in lines), metric
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: value["unit"] for name, value in
            result["metrics"].items()} == DECLARED[kind]


def test_corrupted_pin_raises_error_rate(tmp_path):
    workload = tiny("single-core")
    cycle = run_sim_cycle(workload, 0, None, workloads.Outcome())
    good = {name: workloads.result_digest(result)
            for name, result in cycle["python"].results.items()}
    metrics, outcome, _ = bench.run("single-core", 0, 0, True,
                                    workload=workload, pins=good,
                                    out_dir=tmp_path)
    assert outcome.failed == 0 and metrics["error_rate"] == 0
    bad = dict(good, **{next(iter(good)): "0" * 64})
    metrics, outcome, _ = bench.run("single-core", 0, 0, True,
                                    workload=workload, pins=bad,
                                    out_dir=tmp_path)
    assert outcome.failed > 0 and metrics["error_rate"] > 0
    _, outcome, _ = bench.run("single-core", 0, 0, False, workload=workload,
                              pins=bad, out_dir=tmp_path)
    assert outcome.failed > 0


@pytest.mark.parametrize("name", ["multicore", "figure-sweep"])
def test_traced_run_emits_every_per_layer_metric(tmp_path, name):
    metrics, outcome, origin = bench.run(name, 1, 0, True,
                                         workload=tiny(name), pins={},
                                         out_dir=tmp_path)
    assert outcome.failed == 0, outcome.errors
    assert set(metrics) == set(DECLARED["per_layer"])
    artifact = json.loads((tmp_path / f"trace-{name}-seed1.json")
                          .read_text())
    assert artifact["spans"] and artifact["provenance"] == origin
    assert origin["cache_salt"] and origin["backends"]


def test_timed_sweep_checks_cold_against_warm_rows(tmp_path):
    metrics, outcome, _ = bench.run("figure-sweep", 0, 0, False,
                                    workload=tiny("figure-sweep"), pins={},
                                    out_dir=tmp_path)
    assert outcome.failed == 0, outcome.errors
    assert set(metrics) == set(DECLARED["end_to_end"])
    assert all(value > 0 for value in metrics.values())


def test_seed_selects_the_generated_inputs():
    workload = tiny("multicore")
    first = workload.make_traces(5)
    assert first == workload.make_traces(5)
    assert first != workload.make_traces(6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "single-core", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
