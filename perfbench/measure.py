"""Timed and traced runs of the benchmark's workloads.

A *timed* run (tracing off) repeats whole measurement cycles until its time
is up and reports the median of every end-to-end metric.  A *traced* run
makes one untraced reference cycle, repeats it with spans around every
layer boundary, and once more under cProfile; it reports the per-layer
metrics and its own overhead against the reference.

Every run checks every output: python == turbo on the sha256 of each job's
``SimulationResult.to_dict()``, pinned digests where they apply, and, on
the figure sweep, cold rows == warm rows.  A mismatch or an exception
counts as one failed operation and is never retried.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import engine
from repro.sim.backend import BACKEND_ENV_VAR
from repro.sim.system import System
from repro.sim.turbo import clear_plan_cache, plan_cache_stats

from perfbench.spans import NO_TRACE, Tracer, layer_self_s
from perfbench.workloads import (CONFIGURATION_LABELS, Outcome, SimWorkload,
                                 SweepWorkload, digest, replay_of,
                                 result_digest)

BACKENDS = ("python", "turbo")


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process (or the largest waited-for child), MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def worker_count() -> int:
    """Engine workers for the figure sweep: two, or fewer CPUs if fewer."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


@contextlib.contextmanager
def environment(name: str, value: str):
    """Set one environment variable for the duration of the block."""
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


# ----------------------------------------------------------------------
# In-process passes: set up every job's system, then (optionally) run it.
# ----------------------------------------------------------------------
@dataclass
class SimPass:
    """One pass over a workload's jobs on one backend."""

    backend: str
    wall_s: float = 0.0
    #: Host CPU seconds of the whole pass.
    cpu_s: float = 0.0
    #: Host CPU seconds: trace generation + configs + ``System(...)``.
    setup_s: float = 0.0
    #: Host CPU seconds inside ``System.run``.
    run_s: float = 0.0
    run_s_by_label: dict = field(default_factory=dict)
    events: int = 0
    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)


def sim_pass(workload, seed: int, backend: str, run: bool = True,
             tracer=NO_TRACE, profiler: cProfile.Profile | None = None
             ) -> SimPass:
    """Build (and run) every job of ``workload`` on ``backend``."""
    out = SimPass(backend)
    gc.collect()
    wall = time.perf_counter()
    cpu = time.process_time()
    with tracer.span("workloads.trace"):
        traces = workload.make_traces(seed)
    out.setup_s += time.process_time() - cpu
    for job in workload.jobs:
        try:
            start = time.process_time()
            with tracer.span("sim.config.build", job.name):
                config = job.build_config(backend)
            with tracer.span("sim.system.build", job.name):
                system = System(config, traces[job.trace_key])
            built = time.process_time()
            out.setup_s += built - start
            if not run:
                continue
            with tracer.span(f"sim.system.run.{backend}", job.name):
                if profiler is not None:
                    profiler.enable()
                try:
                    result = system.run(job.workload)
                finally:
                    if profiler is not None:
                        profiler.disable()
            ran = time.process_time() - built
        except Exception as exc:  # one failed job must not end the run
            out.errors[job.name] = f"{type(exc).__name__}: {exc}"
            continue
        out.run_s += ran
        out.run_s_by_label[job.label] = \
            out.run_s_by_label.get(job.label, 0.0) + ran
        out.events += system.processed_events
        out.results[job.name] = result
        del system
    out.wall_s = time.perf_counter() - wall
    out.cpu_s = time.process_time() - cpu
    return out


def check_pass(outcome: Outcome, workload, sim: SimPass,
               reference: dict) -> None:
    """Count each job of ``sim`` against the reference digests."""
    for job in workload.jobs:
        what = f"{sim.backend}:{job.name}"
        if job.name in sim.errors:
            outcome.check(what, sim.errors[job.name])
            continue
        got = result_digest(sim.results[job.name])
        expected = reference.get(job.name)
        outcome.check(what, None if got == expected else
                      f"digest {got[:12]} != reference "
                      f"{(expected or 'missing')[:12]}")


def reference_digests(sim_python: SimPass, pins: dict | None) -> dict:
    """Pinned digests when given, else the python backend's digests."""
    if pins:
        return pins
    return {name: result_digest(result)
            for name, result in sim_python.results.items()}


def run_sim_cycle(workload: SimWorkload, seed: int, pins: dict | None,
                  outcome: Outcome) -> dict[str, SimPass]:
    """One measurement cycle: turbo, then python.

    The turbo plan cache is cleared first, so the turbo pass includes
    compiling each trace's plan, as a fresh process does.
    """
    clear_plan_cache()
    passes = {"turbo": sim_pass(workload, seed, "turbo"),
              "python": sim_pass(workload, seed, "python")}
    reference = reference_digests(passes["python"], pins)
    for sim in passes.values():
        check_pass(outcome, workload, sim, reference)
    return passes


def medians(samples: dict[str, list]) -> dict[str, float]:
    return {name: statistics.median(values)
            for name, values in samples.items()}


def time_sim_workload(workload: SimWorkload, seed: int, seconds: float,
                      pins: dict | None) -> tuple[dict, Outcome]:
    """Timed run of ``single-core`` or ``multicore``.

    Returns every sample of each end-to-end metric (the reported value is
    their median) and the checked operations.
    """
    outcome = Outcome()
    cycles = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cycles.append(run_sim_cycle(workload, seed, pins, outcome))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    samples = {
        "setup_s": [sim.setup_s for cycle in cycles
                    for sim in cycle.values()],
        "sim_s_turbo": [cycle["turbo"].run_s for cycle in cycles],
        "sim_s_python": [cycle["python"].run_s for cycle in cycles],
        # CPU, not wall: the pass is single-threaded, and wall time adds
        # only the host's scheduling noise (steal time on a shared VM).
        "cold_s": [cycle["turbo"].cpu_s for cycle in cycles],
        "peak_rss_mb": [peak_rss_mb()],
    }
    return samples, outcome


# ----------------------------------------------------------------------
# The figure sweep: regenerate a figure set through the engine.
# ----------------------------------------------------------------------
@dataclass
class SweepPass:
    """One regeneration of the figure set from a fresh executor."""

    backend: str
    wall_s: float = 0.0
    rows: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    #: Simulations each figure started (must be 0 on a warm pass).
    sims_by_figure: dict = field(default_factory=dict)
    #: Jobs the figure runners submitted, in submission order.
    requested: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    cache: object = None


def sweep_pass(workload: SweepWorkload, cache_dir: Path, backend: str,
               workers: int, tracer=NO_TRACE) -> SweepPass:
    """Regenerate every figure of ``workload`` into ``cache_dir``."""
    out = SweepPass(backend)
    clear_plan_cache()
    gc.collect()
    with environment(BACKEND_ENV_VAR, backend):
        wall = time.perf_counter()
        executor = engine.configure(jobs=workers, cache_dir=str(cache_dir))
        submit = executor.run

        def recording_run(jobs, *args, **kwargs):
            jobs = list(jobs)
            out.requested.extend(jobs)
            return submit(jobs, *args, **kwargs)

        executor.run = recording_run
        try:
            for name, runner in workload.runners():
                before = executor.simulations_executed
                try:
                    with tracer.span(f"figures.{name}"):
                        out.rows[name] = runner(workload.scale)["rows"]
                except Exception as exc:  # one failed figure must not end
                    out.errors[name] = f"{type(exc).__name__}: {exc}"
                out.sims_by_figure[name] = \
                    executor.simulations_executed - before
        finally:
            engine.reset()
        out.wall_s = time.perf_counter() - wall
    out.counters = {"sims": executor.simulations_executed,
                    "cache_hits": executor.cache_hits,
                    "retries": executor.retries,
                    "jobs_failed": executor.jobs_failed,
                    "sim_cpu_s": executor.sim_cpu_s}
    out.cache = executor.cache
    return out


def check_sweep(outcome: Outcome, workload: SweepWorkload, sweep: SweepPass,
                reference: dict, warm: bool = False) -> None:
    """Count each figure of ``sweep`` against the reference row digests."""
    for name, _ in workload.runners():
        what = f"{sweep.backend}:figure {name}"
        if name in sweep.errors:
            outcome.check(what, sweep.errors[name])
        elif warm and sweep.sims_by_figure[name]:
            outcome.check(what, f"warm pass ran "
                                f"{sweep.sims_by_figure[name]} simulations")
        elif digest(sweep.rows[name]) != reference.get(name):
            outcome.check(what, "rows differ from the reference")
        else:
            outcome.check(what, None)


def sweep_reference(cold: SweepPass, pins: dict | None) -> dict:
    """Pinned row digests when given, else the cold turbo pass's."""
    if pins:
        return pins
    return {name: digest(rows) for name, rows in cold.rows.items()}


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A fresh directory under ``root``, removed afterwards."""
    root.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="sweep-", dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def time_sweep_workload(workload: SweepWorkload, seconds: float,
                        pins: dict | None, out_dir: Path
                        ) -> tuple[dict, Outcome]:
    """Timed run of ``figure-sweep``; returns samples like
    :func:`time_sim_workload`.

    Each cycle regenerates the figures cold on turbo, once more warm from
    a fresh executor on the same directory (checked, not timed), cold on
    python, and then times the in-process set-up of the sweep's distinct
    simulations.
    """
    outcome = Outcome()
    workers = worker_count()
    colds, pythons, setups = [], [], []
    start = time.perf_counter()
    replay = None
    while True:
        began = time.perf_counter()
        with scratch_dir(out_dir) as turbo_dir:
            cold = sweep_pass(workload, turbo_dir, "turbo", workers)
            reference = sweep_reference(cold, pins)
            check_sweep(outcome, workload, cold, reference)
            warm = sweep_pass(workload, turbo_dir, "turbo", workers)
            check_sweep(outcome, workload, warm, reference, warm=True)
        with scratch_dir(out_dir) as python_dir:
            python = sweep_pass(workload, python_dir, "python", workers)
            check_sweep(outcome, workload, python, reference)
        colds.append(cold)
        pythons.append(python)
        replay = replay or replay_of(cold.requested)
        setups.append(sim_pass(replay, 0, "turbo", run=False))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    samples = {
        "setup_s": [sim.setup_s for sim in setups],
        "sim_s_turbo": [sweep.counters["sim_cpu_s"] for sweep in colds],
        "sim_s_python": [sweep.counters["sim_cpu_s"] for sweep in pythons],
        "cold_s": [sweep.wall_s for sweep in colds],
        "peak_rss_mb": [max(peak_rss_mb(), peak_rss_mb(children=True))],
    }
    return samples, outcome


# ----------------------------------------------------------------------
# Traced runs.
# ----------------------------------------------------------------------
def span_metrics(tracers: dict[str, Tracer]) -> dict:
    """Per-layer self seconds from one traced pass per backend.

    Set-up and energy come from the turbo pass alone, so they sum to one
    pass's set-up like ``setup_s``; a backend without a pass reads 0.
    """
    turbo = tracers["turbo"]
    metrics = {
        "workloads.trace_s": turbo.self_s("workloads.trace"),
        "sim.config.build_s": turbo.self_s("sim.config.build"),
        "dram.build_s": turbo.self_s("dram.build"),
        "core.build_s": turbo.self_s("core.build"),
        "controller.build_s": turbo.self_s("controller.build"),
        "cpu.build_s": turbo.self_s("cpu.build"),
        "sim.system.build_s": turbo.self_s("sim.system.build"),
        "energy.s": turbo.self_s("energy"),
    }
    for backend in BACKENDS:
        tracer = tracers.get(backend, Tracer())
        metrics[f"sim.backend.create_s.{backend}"] = \
            tracer.self_s(f"sim.backend.create.{backend}")
        metrics[f"sim.run_s.{backend}"] = tracer.self_s(f"sim.run.{backend}")
    return metrics


def profile_metrics(profiles: dict) -> dict:
    """cProfile self time per layer and backend (0 for a backend not run)."""
    metrics = {}
    for backend in BACKENDS:
        layers = layer_self_s(profiles[backend]) if backend in profiles \
            else {}
        for layer in ("cpu", "controller", "dram", "core", "baselines"):
            metrics[f"{layer}.self_s.{backend}"] = layers.get(layer, 0.0)
        if backend == "python":
            metrics["sim.simulator.self_s.python"] = \
                layers.get("sim.simulator", 0.0)
        else:
            metrics["sim.turbo.self_s.turbo"] = layers.get("sim.turbo", 0.0)
    return metrics


def simulated_counts(results) -> dict:
    """Exact simulated statistics summed over ``results``."""
    results = list(results)
    reads = sum(r.memory_reads for r in results)
    column = sum(r.dram_counters.row_hits + r.dram_counters.row_misses
                 + r.dram_counters.row_conflicts for r in results)
    lookups = sum(r.cache_lookups for r in results)
    return {
        "sim.cycles": sum(r.total_cycles for r in results),
        "cpu.instructions": sum(r.instructions for r in results),
        "cpu.llc_misses": sum(core.llc_misses for r in results
                              for core in r.cores),
        "controller.reads": reads,
        "controller.writes": sum(r.memory_writes for r in results),
        "controller.read_latency_cycles": sum(
            r.average_read_latency_cycles * r.memory_reads
            for r in results) / reads if reads else 0.0,
        "dram.activates": sum(r.dram_counters.activates for r in results),
        "dram.row_hit_rate": sum(r.dram_counters.row_hits
                                 for r in results) / column
        if column else 0.0,
        "dram.relocs": sum(r.dram_counters.relocs for r in results),
        "core.cache_hit_rate": sum(r.cache_hits for r in results) / lookups
        if lookups else 0.0,
        "core.relocations": sum(r.relocation_operations for r in results),
        "core.relocation_cycles": sum(r.relocation_cycles for r in results),
    }


def host_metrics(by_backend: dict[str, SimPass]) -> dict:
    """Per-configuration host time and µs per event of one pass per
    backend (0 for a backend without a pass)."""
    metrics = {}
    for backend in BACKENDS:
        sim = by_backend.get(backend)
        for label in CONFIGURATION_LABELS:
            metrics[f"sim_s_{backend}.{label}"] = \
                sim.run_s_by_label.get(label, 0.0) if sim else 0.0
        metrics[f"sim.us_per_event.{backend}"] = \
            sim.run_s / sim.events * 1e6 if sim and sim.events else 0.0
    return metrics


ENGINE_METRICS = ("engine.jobs_requested", "engine.sims", "engine.cache_hits",
                  "engine.retries", "engine.jobs_failed", "engine.sim_cpu_s",
                  "engine.worker_util", "engine.run_s", "engine.key_s",
                  "figures.assemble_s", "cache.put_s", "cache.entries",
                  "cache.bytes", "cache.get_s", "cache.index_s",
                  "figures.warm_s")


def trace_sim_workload(workload: SimWorkload, seed: int, pins: dict | None
                       ) -> tuple[dict, Outcome, dict[str, Tracer]]:
    """Traced run of ``single-core`` or ``multicore``."""
    outcome = Outcome()
    reference = run_sim_cycle(workload, seed, pins, outcome)
    ref_wall = reference["turbo"].wall_s + reference["python"].wall_s
    digests = reference_digests(reference["python"], pins)

    tracers = {backend: Tracer() for backend in ("turbo", "python")}
    spanned = {}
    clear_plan_cache()
    before = plan_cache_stats()
    for backend, tracer in tracers.items():
        with tracer.instrument():
            spanned[backend] = sim_pass(workload, seed, backend,
                                        tracer=tracer)
    # The python backend never touches the plan cache.
    after = plan_cache_stats()
    profiles = {backend: cProfile.Profile() for backend in BACKENDS}
    clear_plan_cache()
    profiled = {backend: sim_pass(workload, seed, backend,
                                  profiler=profiles[backend])
                for backend in ("turbo", "python")}
    for sim in (*spanned.values(), *profiled.values()):
        check_pass(outcome, workload, sim, digests)

    metrics = {
        **span_metrics(tracers), **profile_metrics(profiles),
        **host_metrics(reference),
        **simulated_counts(reference["python"].results.values()),
        "sim.events": reference["python"].events,
        "sim.turbo.plan_compiles": after["compiles"] - before["compiles"],
        "sim.turbo.plan_hits": after["hits"] - before["hits"],
        **dict.fromkeys(ENGINE_METRICS, 0),
        "trace.overhead": sum(s.wall_s for s in spanned.values())
        / ref_wall - 1.0,
        "trace.profile_overhead": sum(s.wall_s for s in profiled.values())
        / ref_wall - 1.0,
    }
    return metrics, outcome, tracers


def trace_sweep_workload(workload: SweepWorkload, pins: dict | None,
                         out_dir: Path
                         ) -> tuple[dict, Outcome, dict[str, Tracer]]:
    """Traced run of ``figure-sweep``.

    The engine spans come from a cold and a warm pass in the parent
    process; workers' time is only visible through the executor's
    counters.  The layers below the engine are measured by replaying the
    sweep's distinct simulations in-process on turbo, with spans and then
    under cProfile.
    """
    outcome = Outcome()
    workers = worker_count()
    with scratch_dir(out_dir) as ref_dir:
        reference_pass = sweep_pass(workload, ref_dir, "turbo", workers)
    reference = sweep_reference(reference_pass, pins)
    check_sweep(outcome, workload, reference_pass, reference)
    replay = replay_of(reference_pass.requested)

    tracers = {name: Tracer() for name in ("cold", "warm", "turbo")}
    with scratch_dir(out_dir) as cache_dir:
        with tracers["cold"].instrument():
            cold = sweep_pass(workload, cache_dir, "turbo", workers,
                              tracers["cold"])
        stats = cold.cache.stats()
        with tracers["warm"].instrument():
            warm = sweep_pass(workload, cache_dir, "turbo", workers,
                              tracers["warm"])
    check_sweep(outcome, workload, cold, reference)
    check_sweep(outcome, workload, warm, reference, warm=True)
    clear_plan_cache()
    before = plan_cache_stats()
    with tracers["turbo"].instrument():
        spanned = sim_pass(replay, 0, "turbo", tracer=tracers["turbo"])
    after = plan_cache_stats()
    profiles = {"turbo": cProfile.Profile()}
    clear_plan_cache()
    profiled = sim_pass(replay, 0, "turbo", profiler=profiles["turbo"])
    # The replay has no python pass to compare with; the two replays'
    # results must agree.
    digests = {name: result_digest(result)
               for name, result in spanned.results.items()}
    check_pass(outcome, replay, profiled, digests)

    counters = cold.counters
    cold_spans = tracers["cold"]
    metrics = {
        **span_metrics({"turbo": tracers["turbo"]}),
        **profile_metrics(profiles),
        **host_metrics({"turbo": spanned}),
        **simulated_counts(spanned.results.values()),
        "sim.events": spanned.events,
        "sim.turbo.plan_compiles": after["compiles"] - before["compiles"],
        "sim.turbo.plan_hits": after["hits"] - before["hits"],
        "engine.jobs_requested": len(cold.requested),
        "engine.sims": counters["sims"],
        "engine.cache_hits": counters["cache_hits"],
        "engine.retries": counters["retries"],
        "engine.jobs_failed": counters["jobs_failed"],
        "engine.sim_cpu_s": counters["sim_cpu_s"],
        "engine.worker_util": counters["sim_cpu_s"]
        / (workers * cold.wall_s),
        "engine.run_s": cold_spans.self_s("engine.run"),
        "engine.key_s": cold_spans.self_s("engine.key"),
        "figures.assemble_s": sum(
            cold_spans.self_s(f"figures.{name}")
            for name, _ in workload.runners()),
        "cache.put_s": cold_spans.self_s("cache.put"),
        "cache.entries": stats.disk_entries,
        "cache.bytes": stats.disk_bytes,
        "cache.get_s": tracers["warm"].self_s("cache.get"),
        "cache.index_s": tracers["warm"].self_s("cache.index"),
        "figures.warm_s": warm.wall_s,
        "trace.overhead": cold.wall_s / reference_pass.wall_s - 1.0,
        "trace.profile_overhead": profiled.wall_s / spanned.wall_s - 1.0,
    }
    return metrics, outcome, tracers
