"""Tests for the pluggable simulation-backend layer (PR 6).

Covers the three guarantees the backend layer makes:

* **Bit-identical physics** — for every mechanism, DRAM standard, and
  telemetry setting exercised here, the ``"turbo"`` backend must produce
  exactly the same :meth:`SimulationResult.to_dict` payload as the
  reference ``"python"`` loop (single-core *and* multi-core/multi-channel
  systems, which the turbo backend serves with one fused loop).
* **Selection precedence** — explicit ``SystemConfig.backend`` beats the
  ``REPRO_SIM_BACKEND`` environment variable, which beats the
  ``"python"`` default; unknown names fail loudly with the list of
  registered choices.
* **Cache-key neutrality** — ``config_digest`` deliberately ignores the
  backend field, so results computed by one backend are valid experiment
  cache hits for another.

Also pins the :meth:`ChannelController.wakeup_view` accessor contract the
hoisted event loops rely on: a controller that rebinds its wake-up
structures mid-run must crash the run loudly instead of silently losing
wake-ups.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.channel_controller import ChannelController
from repro.experiments.engine import ExperimentScale
from repro.sim.backend import (BACKEND_ENV_VAR, DEFAULT_BACKEND,
                               backend_names, resolve_backend)
from repro.sim.config import config_digest, make_system_config
from repro.sim.system import System, run_workload
from repro.workloads.catalog import get_benchmark
from repro.workloads.multiprogram import make_workload_suite

#: Records per single-core parity trace — small enough to keep the matrix
#: fast, large enough to fill the MSHRs, trigger writebacks, evictions,
#: refresh, and controller wake-ups under every mechanism.
PARITY_RECORDS = 600

ALL_CONFIGURATIONS = ("Base", "FIGCache-Slow", "FIGCache-Fast",
                      "FIGCache-Ideal", "LISA-VILLA", "LL-DRAM")

ALL_STANDARDS = ("DDR4-1600", "DDR4-2400", "DDR4-3200",
                 "LPDDR4-3200", "HBM2", "DDR5-4800")


def _single_result(configuration: str, workload: str, backend: str,
                   **kwargs) -> dict:
    """Run one single-core workload under ``backend`` and dump the result."""
    config = make_system_config(configuration, channels=1,
                                backend=backend, **kwargs)
    traces = [get_benchmark(workload).make_trace(PARITY_RECORDS)]
    return run_workload(config, traces, workload).to_dict()


class TestCrossBackendParity:
    """``turbo`` must be bit-identical to the reference loop."""

    @pytest.mark.parametrize("configuration", ALL_CONFIGURATIONS)
    @pytest.mark.parametrize("workload", ("mcf", "gcc"))
    def test_single_core_parity(self, configuration, workload):
        reference = _single_result(configuration, workload, "python")
        turbo = _single_result(configuration, workload, "turbo")
        assert turbo == reference

    @pytest.mark.parametrize("standard", ALL_STANDARDS)
    def test_standard_parity(self, standard):
        reference = _single_result("FIGCache-Fast", "mcf", "python",
                                   standard=standard)
        turbo = _single_result("FIGCache-Fast", "mcf", "turbo",
                               standard=standard)
        assert turbo == reference

    @pytest.mark.parametrize("configuration", ("Base", "FIGCache-Fast"))
    def test_telemetry_parity(self, configuration):
        reference = _single_result(configuration, "lbm", "python",
                                   telemetry=True)
        turbo = _single_result(configuration, "lbm", "turbo",
                               telemetry=True)
        assert turbo == reference

    @pytest.mark.parametrize("configuration", ("Base", "FIGCache-Fast"))
    def test_multicore_parity(self, configuration):
        """Multi-core, multi-channel mixes on the fused turbo loop."""
        scale = ExperimentScale.smoke()
        suite = {w.name: w for w in make_workload_suite(
            num_cores=scale.num_cores,
            mixes_per_category=scale.mixes_per_category)}
        mix = suite["mix-50pct-0"]
        results = {}
        for backend in ("python", "turbo"):
            config = make_system_config(configuration,
                                        channels=scale.multicore_channels,
                                        backend=backend)
            traces = mix.make_traces(scale.multicore_records)
            results[backend] = run_workload(config, traces,
                                            mix.name).to_dict()
        assert results["turbo"] == results["python"]


class TestDifferentialParity:
    """Randomized python == turbo over the system shapes the one turbo
    loop serves: every configuration and standard, with 1, 2 or 4
    channels under 1 or 2 cores (one-core/multi-channel and
    two-core/one-channel systems have no fixed parity case above)."""

    @settings(max_examples=25, deadline=None)
    @given(configuration=st.sampled_from(ALL_CONFIGURATIONS),
           standard=st.sampled_from(ALL_STANDARDS),
           channels=st.sampled_from((1, 2, 4)),
           workloads=st.lists(st.sampled_from(("mcf", "gcc", "lbm",
                                               "h264ref")),
                              min_size=1, max_size=2),
           records=st.integers(min_value=100, max_value=300))
    def test_turbo_matches_python(self, configuration, standard, channels,
                                  workloads, records):
        results = {}
        for backend in ("python", "turbo"):
            config = make_system_config(configuration, channels=channels,
                                        standard=standard, backend=backend)
            traces = [get_benchmark(name).make_trace(records)
                      for name in workloads]
            results[backend] = run_workload(config, traces,
                                            "+".join(workloads)).to_dict()
        assert results["turbo"] == results["python"]


class TestTracingParity:
    """Tracing must not perturb results, and both backends must emit the
    same event stream (PR 8).

    With a tracer installed the turbo backend leaves its fused loop for
    the reference ``Simulator`` loop; these tests pin that the detour is
    invisible in the results *and* that the recorded DRAM command
    sequence is identical to the reference loop's.
    """

    @staticmethod
    def _traced(configuration: str, workload: str, backend: str):
        from repro.sim.tracing import EventTracer
        config = make_system_config(configuration, channels=1,
                                    backend=backend)
        traces = [get_benchmark(workload).make_trace(PARITY_RECORDS)]
        tracer = EventTracer()
        result = run_workload(config, traces, workload, tracer=tracer)
        return result.to_dict(), tracer

    @staticmethod
    def _normalized(events):
        """Event list with request ids remapped by first appearance.

        Request ids come from a process-global counter, so two runs in
        the same process never share absolute ids; everything else about
        the streams must match exactly.
        """
        from repro.sim.tracing import REQ
        ids: dict = {}
        normalized = []
        for record in events:
            if record[0] == REQ:
                dense = ids.setdefault(record[5], len(ids))
                record = record[:5] + (dense,) + record[6:]
            normalized.append(record)
        return normalized

    @pytest.mark.parametrize("configuration",
                             ("Base", "FIGCache-Fast", "LISA-VILLA"))
    def test_backends_emit_identical_event_streams(self, configuration):
        reference, ref_tracer = self._traced(configuration, "mcf", "python")
        turbo, turbo_tracer = self._traced(configuration, "mcf", "turbo")
        assert turbo == reference
        assert self._normalized(turbo_tracer.events) == \
            self._normalized(ref_tracer.events)
        assert turbo_tracer.total_events == ref_tracer.total_events

    @pytest.mark.parametrize("backend", ("python", "turbo"))
    def test_tracing_on_matches_tracing_off(self, backend):
        baseline = _single_result("FIGCache-Fast", "mcf", backend)
        traced, _ = self._traced("FIGCache-Fast", "mcf", backend)
        assert traced == baseline

    def test_multicore_backends_emit_identical_event_streams(self):
        """A traced multi-core turbo run detours to the reference loop too.

        It must match the python backend in both results and the
        recorded command stream — the guarantee the single-core cases
        above pin, on an N-channel × M-core system.
        """
        from repro.sim.tracing import EventTracer
        scale = ExperimentScale.smoke()
        suite = {w.name: w for w in make_workload_suite(
            num_cores=scale.num_cores,
            mixes_per_category=scale.mixes_per_category)}
        mix = suite["mix-50pct-0"]
        runs = {}
        for backend in ("python", "turbo"):
            config = make_system_config("FIGCache-Fast",
                                        channels=scale.multicore_channels,
                                        backend=backend)
            traces = mix.make_traces(scale.multicore_records)
            tracer = EventTracer()
            result = run_workload(config, traces, mix.name, tracer=tracer)
            runs[backend] = (result.to_dict(), tracer)
        turbo_result, turbo_tracer = runs["turbo"]
        reference, ref_tracer = runs["python"]
        assert turbo_result == reference
        assert self._normalized(turbo_tracer.events) == \
            self._normalized(ref_tracer.events)
        assert turbo_tracer.total_events == ref_tracer.total_events


class TestSystemLifetime:
    """A finished system holds no reference cycle, so it is freed as soon
    as its last reference goes (tag stores included) — peak memory then
    never depends on when the cyclic collector runs."""

    @pytest.mark.parametrize("backend", ("python", "turbo"))
    @pytest.mark.parametrize("configuration",
                             ("Base", "FIGCache-Fast", "LISA-VILLA"))
    def test_finished_system_leaves_no_cyclic_garbage(self, configuration,
                                                      backend):
        import gc
        config = make_system_config(configuration, channels=2,
                                    backend=backend)
        traces = [get_benchmark("mcf").make_trace(PARITY_RECORDS)]
        gc.collect()
        gc.disable()
        try:
            System(config, traces).run("mcf")
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBackendSelection:
    """Name → env var → default precedence, with loud failures."""

    def test_registry_lists_builtins(self):
        names = backend_names()
        assert "python" in names and "turbo" in names
        assert DEFAULT_BACKEND == "python"

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == "python"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "turbo")
        assert resolve_backend(None).name == "turbo"

    def test_empty_env_falls_through_to_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "no-such-backend")
        assert resolve_backend("turbo").name == "turbo"

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_backend("warp-drive")
        message = str(excinfo.value)
        assert "warp-drive" in message
        for name in backend_names():
            assert name in message

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        with pytest.raises(ValueError):
            resolve_backend(None)

    def test_config_backend_reaches_system_run(self, monkeypatch):
        """An explicit config backend wins even over a bogus env value."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "no-such-backend")
        result = _single_result("Base", "mcf", "turbo")
        assert result["total_cycles"] > 0


class TestDigestNeutrality:
    """The backend never changes results, so it never changes the digest."""

    def test_digest_ignores_backend(self):
        digests = {config_digest(make_system_config("FIGCache-Fast",
                                                    backend=backend))
                   for backend in (None, "python", "turbo")}
        assert len(digests) == 1

    def test_digest_still_sees_real_knobs(self):
        base = config_digest(make_system_config("FIGCache-Fast"))
        other = config_digest(make_system_config("FIGCache-Fast",
                                                 standard="DDR5-4800"))
        assert base != other


class _RebindingCC(ChannelController):
    """Evil controller that rebinds its wake-up structures mid-run.

    Violates the :meth:`ChannelController.wakeup_view` accessor contract
    on purpose: the first ``enqueue()`` call replaces ``_wakeup_heap``
    and ``_wakeup_cycle`` with copies, so the run loop's hoisted snapshot
    goes stale.  (``enqueue`` is the hook because the reference loop calls
    it on every request arrival, and the turbo backend runs subclassed
    controllers through that loop; ``wake`` is inlined by the hot loops.)
    Empty ``__slots__`` keeps the layout compatible with the parent so
    instances can be re-classed in place.
    """

    __slots__ = ()

    def enqueue(self, request, now):
        self._wakeup_heap = list(self._wakeup_heap)
        self._wakeup_cycle = dict(self._wakeup_cycle)
        return super().enqueue(request, now)


class TestWakeupViewContract:
    """The hoisted wakeup_views snapshot must stay live for a whole run."""

    @staticmethod
    def _build_system(backend: str, channels: int = 1) -> System:
        config = make_system_config("Base", channels=channels,
                                    backend=backend)
        traces = [get_benchmark("mcf").make_trace(PARITY_RECORDS)]
        return System(config, traces)

    def test_wakeup_view_is_stable_across_a_run(self):
        system = self._build_system("python")
        cc = system.controller.channel_controllers[0]
        heap_before, live_before = cc.wakeup_view()
        system.run("mcf")
        heap_after, live_after = cc.wakeup_view()
        assert heap_after is heap_before
        assert live_after is live_before

    # The turbo backend runs a subclassed controller through the
    # reference loop, which calls its real ``enqueue``, whatever the
    # channel count.
    @pytest.mark.parametrize("backend,channels",
                             (("python", 1), ("turbo", 1), ("turbo", 2)))
    def test_rebinding_controller_fails_loudly(self, backend, channels):
        """A contract violation must crash the run, not corrupt it."""
        system = self._build_system(backend, channels)
        for cc in system.controller.channel_controllers:
            cc.__class__ = _RebindingCC
        with pytest.raises((AssertionError, RuntimeError)):
            system.run("mcf")
