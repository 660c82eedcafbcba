"""Correctness tests for the trace core's compiled-plan cache.

Each core compiles its trace into prefix arrays on its first run
(:func:`repro.cpu.core._compile_core_plan`) and the result is memoized in
a process-wide LRU keyed by everything the compile pass depends on: the
core's ``HierarchyConfig`` and the trace itself.  Both backends step
cores from the plan, so both share the cache.  These tests pin the
cache's safety properties:

* repeated runs reuse plans and stay bit-identical, on either backend,
* configurations whose hierarchies differ never share a plan (while
  DRAM-side-only changes safely do — the plan is CPU-side by
  construction, and the golden/parity suites enforce the physics),
* the LRU eviction bound is respected, and
* the cache is shared across :class:`JobExecutor` batches, which is the
  state a warm sweep worker carries between dispatch chunks.
"""

import pytest

from repro.cpu import core as cpu_core
from repro.cpu.core import CoreConfig
from repro.cpu.hierarchy import HierarchyConfig
from repro.experiments.engine import ExperimentScale, JobExecutor, SimJob
from repro.sim.backend import BACKEND_ENV_VAR
from repro.sim.config import make_system_config
from repro.sim.system import run_workload
from repro.workloads.catalog import get_benchmark
from repro.workloads.multiprogram import make_workload_suite

#: Records per trace — enough to produce a non-trivial plan (misses,
#: writebacks) while keeping each simulation a few milliseconds.
RECORDS = 300

TINY = ExperimentScale.tiny()


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    """The cache and its counters are process-global; isolate every test."""
    cpu_core.clear_plan_cache()
    yield
    cpu_core.clear_plan_cache()


def _run(workload: str = "gcc", configuration: str = "Base",
         records: int = RECORDS, core: CoreConfig | None = None,
         backend: str = "turbo") -> dict:
    config = make_system_config(configuration, channels=1,
                                backend=backend, core=core)
    traces = [get_benchmark(workload).make_trace(records)]
    return run_workload(config, traces, workload).to_dict()


@pytest.mark.parametrize("backend", ("python", "turbo"))
class TestPlanReuse:
    def test_repeat_run_hits_the_cache_and_stays_bit_identical(self,
                                                               backend):
        first = _run(backend=backend)
        stats = cpu_core.plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["compiles"] == 1
        assert stats["hits"] == 0
        assert stats["size"] == 1

        second = _run(backend=backend)
        stats = cpu_core.plan_cache_stats()
        assert stats["hits"] == 1
        assert stats["compiles"] == 1  # no recompilation
        assert second == first

    def test_cache_hit_matches_the_other_backend(self, backend):
        other = "python" if backend == "turbo" else "turbo"
        compiled = _run(backend=other)
        served = _run(backend=backend)  # served from the plan cache
        stats = cpu_core.plan_cache_stats()
        assert (stats["compiles"], stats["hits"]) == (1, 1)
        assert served == compiled

    def test_distinct_traces_get_distinct_entries(self, backend):
        _run("gcc", backend=backend)
        _run("mcf", backend=backend)
        stats = cpu_core.plan_cache_stats()
        assert stats["size"] == 2
        assert stats["misses"] == 2
        assert stats["hits"] == 0

    def test_multicore_run_compiles_once_per_core_then_reuses(self,
                                                              backend):
        suite = {w.name: w for w in make_workload_suite(
            num_cores=TINY.num_cores,
            mixes_per_category=TINY.mixes_per_category)}
        mix = suite["mix-50pct-0"]
        config = make_system_config("Base",
                                    channels=TINY.multicore_channels,
                                    backend=backend)

        run_workload(config, mix.make_traces(TINY.multicore_records),
                     mix.name)
        stats = cpu_core.plan_cache_stats()
        assert stats["compiles"] == TINY.num_cores

        run_workload(config, mix.make_traces(TINY.multicore_records),
                     mix.name)
        stats = cpu_core.plan_cache_stats()
        assert stats["compiles"] == TINY.num_cores  # all cores reused
        assert stats["hits"] == TINY.num_cores


class TestPlanKeying:
    def test_different_hierarchies_never_share_plans(self):
        _run()
        _run(core=CoreConfig(hierarchy=HierarchyConfig.paper_table1()))
        stats = cpu_core.plan_cache_stats()
        assert stats["size"] == 2
        assert stats["misses"] == 2
        assert stats["hits"] == 0

    def test_dram_side_changes_safely_share_the_cpu_side_plan(self):
        """The plan depends on the trace and hierarchy only, never on the
        DRAM mechanism — so Base and FIGCache-Fast share one entry.  The
        physics stays per-configuration (pinned by the parity suite and
        the goldens); only the CPU-side compile is shared."""
        base = _run(configuration="Base")
        fig = _run(configuration="FIGCache-Fast")
        stats = cpu_core.plan_cache_stats()
        assert stats["size"] == 1
        assert stats["hits"] == 1
        assert base != fig  # different physics, same plan


class TestEvictionBound:
    def test_lru_bound_is_respected(self, monkeypatch):
        monkeypatch.setattr(cpu_core, "PLAN_CACHE_CAPACITY", 4)
        distinct = 7
        for extra in range(distinct):
            _run(records=RECORDS + extra)  # distinct trace per run
        stats = cpu_core.plan_cache_stats()
        assert stats["size"] == 4
        assert stats["misses"] == distinct
        assert stats["evictions"] == distinct - 4

    def test_evicted_plan_recompiles_correctly(self, monkeypatch):
        monkeypatch.setattr(cpu_core, "PLAN_CACHE_CAPACITY", 1)
        first = _run("gcc")
        _run("mcf")  # evicts the gcc plan
        assert cpu_core.plan_cache_stats()["evictions"] == 1
        again = _run("gcc")  # recompiled, not stale
        assert cpu_core.plan_cache_stats()["misses"] == 3
        assert again == first


class TestExecutorSharing:
    def test_batches_share_the_plan_cache(self, monkeypatch):
        """Two executor batches over the same benchmark compile once.

        ``jobs=1`` runs both batches in this process — exactly the state
        one warm pool worker carries across dispatch chunks (the cache is
        module-global, and the PR-7 pool keeps workers alive between
        batches; ``TestWarmPool`` pins that).  The second batch evaluates
        a different configuration on the same trace, so the result cache
        cannot absorb it — only the plan cache explains compiles == 1.
        """
        monkeypatch.setenv(BACKEND_ENV_VAR, "turbo")
        executor = JobExecutor(jobs=1)
        executor.run([SimJob.single_core("Base", "gcc", TINY)])
        mid = cpu_core.plan_cache_stats()
        assert mid["compiles"] == 1

        executor.run([SimJob.single_core("FIGCache-Fast", "gcc", TINY)])
        after = cpu_core.plan_cache_stats()
        assert executor.simulations_executed == 2
        assert after["compiles"] == 1  # second batch reused the plan
        assert after["hits"] == mid["hits"] + 1
