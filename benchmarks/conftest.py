"""Shared scale, cache isolation, and printing helpers for the benchmarks.

Every benchmark regenerates one of the paper's tables or figures at a
reduced scale (see DESIGN.md / EXPERIMENTS.md for the scaling notes) and
prints the resulting rows so the numbers can be compared with the paper.
"""

import pytest

from repro.experiments import ExperimentScale, format_table, engine


@pytest.fixture(scope="session", autouse=True)
def isolated_result_cache():
    """Give the benchmark session one fresh, memory-only experiment engine.

    An explicitly memory-only executor (cache_dir=None) guarantees the
    figures never observe results cached outside the session, even when
    ``REPRO_CACHE_DIR`` points at a warm persistent cache in the
    surrounding environment.  The figure modules share the engine, so a
    job one figure already simulated (figures 9-11 re-evaluate the jobs
    of figures 7 and 8) is a cache hit for the next.  The teardown
    restores the environment-configured default for whatever runs after
    the harness.
    """
    engine.configure(cache_dir=None)
    yield
    engine.reset()


@pytest.fixture(scope="session")
def bench_scale():
    """Scale used by the simulation-driven benchmarks."""
    return ExperimentScale.bench()


def report(data):
    """Print an experiment's result table."""
    title = data.get("figure") or data.get("table") or data.get("section")
    print()
    print(format_table(f"{title}: {data.get('metric', '')}",
                       data["columns"], data["rows"]))
