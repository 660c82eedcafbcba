"""Spans placed around the program's public calls, and profile grouping.

The program itself records no spans: a :class:`Tracer` temporarily wraps
public functions and methods of each layer (``DRAMDevice(...)``,
``make_mechanism``, ``System.run``'s backend, ``JobExecutor.run``, ...)
and restores them when :meth:`Tracer.instrument` exits.  Spans live in
memory and are written out once, when the traced run ends.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import ExitStack, contextmanager, nullcontext

import repro.sim.system as system_module
from repro.energy.system_energy import SystemEnergyModel
from repro.experiments.engine import JobExecutor, ResultCache, SimJob
from repro.sim.backend import SimulationBackend
from repro.sim.simulator import Simulator
from repro.sim.turbo import TurboSimulator


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    def span(self, name: str, trace=None):
        del name, trace
        return nullcontext()


NO_TRACE = NullTracer()


class Tracer:
    """In-memory spans with parent links; one trace id per job."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, trace=None):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name,
                  "parent": parent["id"] if parent else None,
                  "trace": trace if trace is not None
                  else (parent["trace"] if parent else None),
                  "start": time.perf_counter(), "end": None, "child_s": 0.0}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += record["end"] - record["start"]

    def self_s(self, name: str) -> float:
        """Summed self time (duration minus child spans) of ``name``."""
        return sum(span["end"] - span["start"] - span["child_s"]
                   for span in self.spans if span["name"] == name)

    def _wrap(self, stack: ExitStack, owner, attr: str, name) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        stack.callback(setattr, owner, attr, original)

    @contextmanager
    def instrument(self):
        """Wrap every layer boundary the benchmark traces; undo on exit."""
        with ExitStack() as stack:
            wrap = self._wrap
            # Calls System(...) makes while it assembles a simulated system.
            wrap(stack, system_module, "DRAMDevice", "dram.build")
            wrap(stack, system_module, "make_mechanism", "core.build")
            wrap(stack, system_module, "MemoryController",
                 "controller.build")
            wrap(stack, system_module, "TraceCore", "cpu.build")
            # Children of System.run.
            wrap(stack, SimulationBackend, "create",
                 lambda backend, *_: f"sim.backend.create.{backend.name}")
            wrap(stack, Simulator, "run", "sim.run.python")
            wrap(stack, TurboSimulator, "run", "sim.run.turbo")
            wrap(stack, SystemEnergyModel, "energy", "energy")
            # The experiment engine, in the parent process.
            wrap(stack, JobExecutor, "run", "engine.run")
            wrap(stack, SimJob, "key", "engine.key")
            wrap(stack, ResultCache, "put_many", "cache.put")
            wrap(stack, ResultCache, "get", "cache.get")
            wrap(stack, ResultCache, "index", "cache.index")
            yield self

    def to_json(self) -> list[dict]:
        return [{key: value for key, value in span.items()
                 if key != "child_s"} for span in self.spans]


#: Source paths and the layer their functions' self time is charged to.
PROFILE_LAYERS = (("/repro/cpu/", "cpu"),
                  ("/repro/controller/", "controller"),
                  ("/repro/dram/", "dram"),
                  ("/repro/core/", "core"),
                  ("/repro/baselines/", "baselines"),
                  ("/repro/sim/simulator.py", "sim.simulator"),
                  ("/repro/sim/turbo", "sim.turbo"))


def layer_self_s(profiler: cProfile.Profile) -> dict[str, float]:
    """cProfile self time summed per layer (see :data:`PROFILE_LAYERS`)."""
    totals = {layer: 0.0 for _, layer in PROFILE_LAYERS}
    for (filename, _, _), stat in pstats.Stats(profiler).stats.items():
        path = filename.replace("\\", "/")
        for marker, layer in PROFILE_LAYERS:
            if marker in path:
                totals[layer] += stat[2]
                break
    return totals
