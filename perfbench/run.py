"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload single-core --seed 0 --seconds 40 \\
        --trace 0

``--trace 0`` times the workload and reports the end-to-end metrics;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics (and writes every span to ``.perfbench/``).  Every metric is
printed by name with its unit, then the last line of standard output is
one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--write-pins`` re-records ``perfbench/pins.json`` from the current
program (seed 0) after checking python == turbo.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _import_program() -> None:
    """Put the program's sources on the path, or stop without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources under {ROOT / 'src'}; run "
                 f"from the root of a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for each kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def source_digest() -> str:
    """sha256 over the program's sources (identifies a tree without git)."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(name: str, workload, seed: int) -> dict:
    from repro.experiments.engine import ExperimentScale, cache_salt
    from repro.sim.backend import backend_build_info

    from perfbench.measure import worker_count
    from perfbench.workloads import SimWorkload

    scales = {"single-core": asdict(ExperimentScale.bench()),
              "multicore": asdict(ExperimentScale.bench())}
    described = workload.describe()
    return {
        "workload": name, "seed": seed,
        "seed_applies": isinstance(workload, SimWorkload),
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "python": platform.python_version(), "host": platform.node(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "engine_workers": worker_count(),
        "backends": [backend_build_info(b) for b in ("python", "turbo")],
        "cache_salt": cache_salt(),
        "scale": scales.get(name, described.get("scale")),
        "inputs": described,
        "model": "unvalidated: no hardware reference; modelled caches "
                 "start empty, with no warm-up",
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        workload=None, pins: dict | None = None, out_dir: Path | None = None
        ) -> tuple[dict, object, dict]:
    """Run one workload; returns (metrics, outcome, provenance).

    ``workload`` and ``pins`` default to the named workload and, for the
    default seed, its pinned digests; artifacts go to ``out_dir`` (default
    ``.perfbench/``).
    """
    from perfbench import measure
    from perfbench.workloads import (DEFAULT_SEED, WORKLOADS, SweepWorkload,
                                     load_pins)

    workload = workload or WORKLOADS[name]()
    out_dir = out_dir or OUT_DIR
    if pins is None:
        pinned = load_pins().get(name)
        sweep = isinstance(workload, SweepWorkload)
        pins = pinned if sweep or seed == DEFAULT_SEED else None
    tracers = samples = None
    if isinstance(workload, SweepWorkload):
        if trace:
            metrics, outcome, tracers = measure.trace_sweep_workload(
                workload, pins, out_dir)
        else:
            samples, outcome = measure.time_sweep_workload(
                workload, seconds, pins, out_dir)
    elif trace:
        metrics, outcome, tracers = measure.trace_sim_workload(
            workload, seed, pins)
    else:
        samples, outcome = measure.time_sim_workload(
            workload, seed, seconds, pins)
    if samples is not None:
        metrics = measure.medians(samples)
    origin = provenance(name, workload, seed)
    kind = "per_layer" if trace else "end_to_end"
    if trace:
        metrics["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    artifact = {"provenance": origin, "kind": kind, "metrics": metrics,
                "attempted": outcome.attempted, "failed": outcome.failed,
                "errors": outcome.errors}
    if samples is not None:
        artifact["samples"] = samples
    if tracers is not None:
        artifact["spans"] = {pass_name: tracer.to_json()
                             for pass_name, tracer in tracers.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{'trace' if trace else 'result'}-{name}-seed{seed}"
    (out_dir / f"{stem}.json").write_text(json.dumps(artifact, indent=1))
    return metrics, outcome, origin


def write_pins() -> dict:
    """Record seed-0 digests of every workload (python == turbo checked)."""
    from perfbench import measure
    from perfbench.workloads import (PINS_PATH, WORKLOADS, Outcome, digest,
                                     result_digest)

    pins = {}
    for name in ("single-core", "multicore"):
        workload = WORKLOADS[name]()
        outcome = Outcome()
        cycle = measure.run_sim_cycle(workload, 0, None, outcome)
        if outcome.failed:
            raise SystemExit(f"{name}: {outcome.errors}")
        pins[name] = {job: result_digest(result) for job, result
                      in cycle["python"].results.items()}
    workload = WORKLOADS["figure-sweep"]()
    with measure.scratch_dir(OUT_DIR) as cache_dir:
        cold = measure.sweep_pass(workload, cache_dir, "turbo",
                                  measure.worker_count())
    with measure.scratch_dir(OUT_DIR) as cache_dir:
        python = measure.sweep_pass(workload, cache_dir, "python",
                                    measure.worker_count())
    if cold.errors or python.errors or cold.rows != python.rows:
        raise SystemExit(f"figure-sweep: {cold.errors or python.errors}")
    pins["figure-sweep"] = {name: digest(rows)
                            for name, rows in cold.rows.items()}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("single-core", "multicore", "figure-sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    _import_program()
    if args.write_pins:
        write_pins()
        return 0
    declared = declared_metrics()["per_layer" if args.trace
                                  else "end_to_end"]
    metrics, outcome, origin = run(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    if set(metrics) != set(declared):
        sys.exit(f"error: measured metrics {sorted(set(metrics) ^ set(declared))}"
                 f" differ from BENCHMARK.json")
    for error in outcome.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print("provenance " + json.dumps(origin, sort_keys=True))
    for metric, unit in declared.items():
        print(f"{metric} = {metrics[metric]:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
