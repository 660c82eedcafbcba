"""The benchmark's workloads: which jobs each one runs, on which inputs.

Three workloads stress different layers (the reasons are recorded in
``BENCHMARK.json``):

* ``single-core`` — the figure-7 matrix at ``ExperimentScale.bench()``:
  every configuration on gcc, h264ref, lbm and mcf, one channel,
  simulated in-process on both backends.
* ``multicore`` — two 8-core/4-channel mixes on Base, LISA-VILLA,
  FIGCache-Fast and a 16-fast-subarray FIGCache-Fast, in-process on both
  backends.
* ``figure-sweep`` — figures 7-15, ``dram-types`` and ``latency`` at
  ``ExperimentScale.tiny()`` through the public figure runners and the
  experiment engine.  (At ``smoke()`` one cold pass takes ~10 s, too long
  to repeat within one run.)

The workload seed shifts every trace-generator seed and the mix seed, so
the program only ever receives generated traces and built configurations.
The figure sweep's inputs are fixed by the figure definitions, so its seed
is recorded but changes nothing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.experiments.engine import ExperimentScale, SimJob
from repro.experiments.figures import FIGURES, NAMED_FIGURES
from repro.experiments.runner import single_core_benchmarks
from repro.sim.config import CONFIGURATION_NAMES, make_system_config
from repro.workloads.catalog import WorkloadSpec, get_benchmark
from repro.workloads.multiprogram import make_workload_suite

#: The seed whose outputs are pinned in ``pins.json``: it leaves every
#: generator seed of the program unchanged.
DEFAULT_SEED = 0

#: ``make_workload_suite``'s own default mix seed; the workload seed is
#: added to it.
MIX_SEED = 42

#: Knobs of the large-tag-store FIGCache variant (figure 12's 16 FS point).
SIXTEEN_SUBARRAYS = (("cache_rows_per_bank", 512), ("fast_subarrays", 16))

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def shift_seed(spec: WorkloadSpec, seed: int) -> WorkloadSpec:
    """``spec`` with its trace-generator seed moved by ``seed``."""
    if not seed:
        return spec
    config = spec.trace_config
    return replace(spec, trace_config=replace(config,
                                              seed=config.seed + seed))


def digest(value) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Digest of one ``SimulationResult`` (exact to the bit)."""
    return digest(result.to_dict())


def configuration_label(configuration: str, overrides: tuple) -> str:
    """Name a job's configuration in the per-configuration metrics.

    The 16-fast-subarray FIGCache-Fast point gets its own label because
    its tag store dominates set-up; every other knob variant is counted
    under its configuration name.
    """
    if configuration == "FIGCache-Fast" \
            and set(SIXTEEN_SUBARRAYS) <= set(overrides):
        return "FIGCache-Fast-16sa"
    return configuration


#: Every label :func:`configuration_label` can produce, in report order.
CONFIGURATION_LABELS = CONFIGURATION_NAMES + ("FIGCache-Fast-16sa",)


@dataclass(frozen=True)
class BenchJob:
    """One simulated system of a workload: a configuration on a trace set."""

    configuration: str
    #: Benchmark or mix name; keys the workload's trace sets.
    workload: str
    channels: int
    #: Extra ``make_system_config`` knobs as sorted ``(name, value)`` pairs.
    overrides: tuple = ()

    @property
    def label(self) -> str:
        return configuration_label(self.configuration, self.overrides)

    @property
    def name(self) -> str:
        return f"{self.label}:{self.workload}"

    @property
    def trace_key(self):
        return self.workload

    def build_config(self, backend: str):
        return make_system_config(self.configuration, channels=self.channels,
                                  backend=backend, **dict(self.overrides))


@dataclass(frozen=True)
class SimWorkload:
    """An in-process workload: build every job's system, then run it."""

    #: ``"single-core"`` (one benchmark per job) or ``"multicore"`` (mixes).
    name: str
    jobs: tuple[BenchJob, ...]
    records: int

    def make_traces(self, seed: int) -> dict[str, list]:
        """Per-core traces of every benchmark or mix the jobs use."""
        names = dict.fromkeys(job.workload for job in self.jobs)
        if self.name == "single-core":
            return {name: [shift_seed(get_benchmark(name), seed)
                           .make_trace(self.records)]
                    for name in names}
        suite = {mix.name: mix for mix in make_workload_suite(
            num_cores=8, mixes_per_category=1, seed=MIX_SEED + seed)}
        traces = {}
        for name in names:
            mix = suite[name]
            mix = replace(mix, benchmarks=tuple(
                shift_seed(spec, seed) for spec in mix.benchmarks))
            traces[name] = mix.make_traces(self.records)
        return traces

    def describe(self) -> dict:
        return {"kind": self.name, "records_per_core": self.records,
                "jobs": [job.name for job in self.jobs],
                "channels": sorted({job.channels for job in self.jobs})}


@dataclass(frozen=True)
class ReplayJob:
    """A figure-sweep :class:`SimJob` replayed in-process.

    The key and trace signature are computed once, when the replay is
    built, so the timed set-up holds only the program's own work.
    """

    job: SimJob
    #: The job's cache key: one name per distinct simulation.
    name: str
    trace_key: tuple
    label: str

    @property
    def workload(self) -> str:
        return self.job.workload_name

    def build_config(self, backend: str):
        return replace(self.job.build_config(), backend=backend)


@dataclass(frozen=True)
class ReplayWorkload:
    """The distinct simulations of a figure sweep, set up in-process."""

    jobs: tuple[ReplayJob, ...]

    def make_traces(self, seed: int) -> dict:
        del seed  # fixed by the figure definitions
        traces = {}
        for item in self.jobs:
            if item.trace_key not in traces:
                traces[item.trace_key] = item.job.build_traces()
        return traces


def replay_of(jobs) -> ReplayWorkload:
    """The distinct simulations (by cache key) among ``jobs``."""
    unique = {}
    for job in jobs:
        key = job.key()
        if key not in unique:
            unique[key] = ReplayJob(
                job, key, job.trace_signature(),
                configuration_label(job.configuration, job.config_overrides))
    return ReplayWorkload(tuple(unique.values()))


@dataclass(frozen=True)
class SweepWorkload:
    """Regenerate a figure set through the engine, cold then warm."""

    name: str
    scale: ExperimentScale
    figures: tuple[str, ...]

    def runners(self) -> list[tuple[str, object]]:
        named = {str(number): runner for number, runner in FIGURES.items()}
        named.update(NAMED_FIGURES)
        return [(figure, named[figure]) for figure in self.figures]

    def describe(self) -> dict:
        return {"kind": "figure-sweep", "figures": list(self.figures),
                "scale": asdict(self.scale)}


def single_core(records: int | None = None) -> SimWorkload:
    scale = ExperimentScale.bench()
    benchmarks = [name for group in single_core_benchmarks(scale).values()
                  for name in group]
    jobs = tuple(BenchJob(configuration, benchmark, channels=1)
                 for configuration in CONFIGURATION_NAMES
                 for benchmark in benchmarks)
    return SimWorkload("single-core", jobs,
                       records or scale.single_core_records)


def multicore(records: int | None = None) -> SimWorkload:
    scale = ExperimentScale.bench()
    variants = (("Base", ()), ("LISA-VILLA", ()), ("FIGCache-Fast", ()),
                ("FIGCache-Fast", SIXTEEN_SUBARRAYS))
    jobs = tuple(BenchJob(configuration, mix, channels=4, overrides=overrides)
                 for configuration, overrides in variants
                 for mix in ("mix-25pct-0", "mix-100pct-0"))
    return SimWorkload("multicore", jobs,
                       records or scale.multicore_records)


def figure_sweep(scale: ExperimentScale | None = None,
                 figures: tuple[str, ...] | None = None) -> SweepWorkload:
    every = tuple(str(number) for number in FIGURES) + tuple(NAMED_FIGURES)
    return SweepWorkload("figure-sweep", scale or ExperimentScale.tiny(),
                         figures or every)


WORKLOADS = {"single-core": single_core, "multicore": multicore,
             "figure-sweep": figure_sweep}


def load_pins(path: Path = PINS_PATH) -> dict:
    """Pinned output digests per workload (empty when none are pinned)."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


@dataclass
class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, what: str, error: str | None) -> None:
        """Count one operation; ``error`` is None when it succeeded."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{what}: {error}")
