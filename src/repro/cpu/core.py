"""Trace-driven core model.

Each core replays a trace of :class:`~repro.workloads.trace.TraceRecord`
entries.  A record describes a burst of non-memory instructions (``bubbles``)
followed by one memory instruction.  The core model enforces the paper's
Table 1 front-end constraints:

* up to ``issue_width`` instructions issue per cycle;
* at most ``window_size`` instructions may be in flight past the oldest
  unresolved LLC load miss (the 256-entry instruction window);
* at most ``mshr_entries`` cache-block misses may be outstanding at once.

Cache hits are (mostly) hidden by out-of-order execution; only LLC misses
interact with the memory system.  The model is event-driven: every
simulation backend calls :meth:`TraceCore.run_requests` to let the core
issue work until it must stall or finishes, and
:meth:`TraceCore.notify_completion` when one of its memory reads
completes.  These two methods are the only core stepper and the only
completion handler; no event loop carries a copy.

The cache hierarchy is cycle-free, so the core does not simulate it record
by record: on its first run the trace is compiled once into prefix arrays
(:func:`_compile_core_plan`, memoized by the process-wide plan cache), and
the core advances to its next memory event with a ``bisect`` and a
subtraction instead of per-record work.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cpu.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cpu.mshr import MSHRFile
from repro.workloads.trace import TraceRecord


@dataclass(frozen=True)
class CoreConfig:
    """Core front-end parameters (paper Table 1 defaults)."""

    issue_width: int = 3
    window_size: int = 256
    mshr_entries: int = 8
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)


@dataclass(slots=True)
class CoreStats:
    """Per-core statistics gathered during simulation."""

    instructions: int = 0
    memory_instructions: int = 0
    llc_miss_loads: int = 0
    llc_miss_stores: int = 0
    writebacks: int = 0
    stall_cycles_window: int = 0
    stall_cycles_mshr: int = 0
    finish_cycle: int = 0

    def ipc(self) -> float:
        """Instructions per cycle over the whole run."""
        if self.finish_cycle <= 0:
            return 0.0
        return self.instructions / self.finish_cycle

    def telemetry_counters(self) -> dict[str, int]:
        """Cumulative counters for the telemetry epoch sampler.

        Uniform stats-producer protocol (see :mod:`repro.sim.telemetry`).
        """
        return {
            "instructions": self.instructions,
            "memory_instructions": self.memory_instructions,
            "llc_miss_loads": self.llc_miss_loads,
            "llc_miss_stores": self.llc_miss_stores,
            "writebacks": self.writebacks,
            "stall_cycles_window": self.stall_cycles_window,
            "stall_cycles_mshr": self.stall_cycles_mshr,
        }


@dataclass(slots=True)
class _OutstandingMiss:
    """A load miss the core is still waiting on."""

    #: The missing address masked to its L1 block; completions match on it.
    block: int
    #: Instruction count (position in program order) at which it was issued.
    instruction_position: int
    #: True when the window cannot retire past this miss (demand loads).
    blocks_window: bool


def _compile_core_plan(core: TraceCore) -> tuple:
    """Precompute one core's cache simulation into a batch-step plan.

    The cache hierarchy is cycle-free: which accesses hit, which miss,
    and which victims write back depend only on the access ORDER (LRU
    over the address sequence), never on simulated time — and the core
    executes its trace strictly in order, each record exactly once.  So
    the whole trace runs through :meth:`CacheHierarchy.access` here in
    one pass, and :meth:`TraceCore.run_requests` advances the core with
    prefix-sum arithmetic instead of per-record work:

    * ``cost_prefix[i]``  — issue-bandwidth cycles + exposed cache
      latency of records [0, i): a hit run between two memory-touching
      records advances ``core_cycle`` with one subtraction;
    * ``instr_prefix[i]`` — instructions issued by records [0, i):
      ``issued_instructions`` is a pure function of the record index,
      so window-stall points fall out of one bisect over this array;
    * ``mem_idx``/``mem_events`` — the sparse records that touch memory
      (an LLC miss and/or dirty victim writebacks), as
      ``(address, is_write, needs_memory, writebacks)`` tuples.

    The plan always starts at record 0 of a fresh core.  Hierarchy state
    and counters reach their end-of-run values up front, which is
    unobservable: nothing reads them mid-run (the telemetry layer samples
    only ``CoreStats``, which the stepper keeps current), and
    safety-limit overruns raise instead of truncating the trace.
    """
    access = core.hierarchy.access
    cost_prefix = [0]
    cost_append = cost_prefix.append
    instr_prefix = [0]
    instr_append = instr_prefix.append
    mem_idx: list[int] = []
    mem_events: list[tuple] = []
    cost_acc = 0
    instr_acc = 0
    for record_index, (issue_cycles, instructions, address, is_write) \
            in enumerate(core._trace_fast):
        instr_acc += instructions
        instr_append(instr_acc)
        result = access(address, is_write)
        cost_acc += issue_cycles + result.exposed_latency
        cost_append(cost_acc)
        if result.needs_memory or result.writebacks:
            mem_idx.append(record_index)
            mem_events.append((address, is_write, result.needs_memory,
                               result.writebacks))
    return cost_prefix, instr_prefix, mem_idx, mem_events


# ----------------------------------------------------------------------
# Process-wide compiled-plan cache.
#
# A core's plan is a pure function of its trace contents and its
# ``HierarchyConfig`` (geometry + latencies): the compile pass is a
# deterministic LRU simulation over the address sequence, so two fresh
# cores with the same (hierarchy config, trace) pair always compile to
# the same prefix arrays and the same counter deltas.  Caching the plan
# makes the compile pass a one-time cost per (trace, config) instead of
# a per-run cost — repeated runs share their inputs (both backends of a
# paired run, every configuration of a figure matrix), and the sweep
# engine's warm workers (see ``repro.experiments.engine.executor``)
# memoize trace and config objects per worker, so a warm worker that
# re-simulates a known workload skips plan compilation entirely (the
# cache is module-level state and therefore survives across the
# worker's job batches).
#
# On a cache hit the hierarchy's *counters* are replayed onto the fresh
# core from the recorded deltas; the LRU set contents themselves are
# left empty.  That is unobservable: results serialize the counters,
# never the set occupancy, and no later code reads the sets.
# ----------------------------------------------------------------------

#: LRU bound on cached plans.  Each entry holds the prefix arrays for
#: one trace (a few hundred KiB at bench scale), so the bound caps the
#: cache at tens of MiB while still covering a whole workload suite.
PLAN_CACHE_CAPACITY = 64

_plan_cache: OrderedDict = OrderedDict()
_plan_cache_counters = {"hits": 0, "misses": 0, "evictions": 0,
                        "compiles": 0}


def plan_cache_stats() -> dict:
    """Snapshot of the plan cache: size, capacity, and hit/miss counters.

    ``compiles`` counts every real :func:`_compile_core_plan` pass, so
    warm-worker tests can assert that repeated batches stop compiling.
    Counters are process-global and cumulative; diff two snapshots to
    scope them to one run.
    """
    return {
        "size": len(_plan_cache),
        "capacity": PLAN_CACHE_CAPACITY,
        **_plan_cache_counters,
    }


def clear_plan_cache() -> None:
    """Drop every cached plan and zero the counters (test isolation)."""
    _plan_cache.clear()
    for name in _plan_cache_counters:
        _plan_cache_counters[name] = 0


def _hierarchy_counters(hier: CacheHierarchy) -> list[tuple[object, str]]:
    """Every counter the compile pass advances, as (owner, attribute)."""
    return [(level, name) for level in (hier.l1, hier.l2, hier.llc)
            for name in ("hits", "misses", "writebacks")] \
        + [(hier, "llc_misses"), (hier, "accesses")]


def _plan_for_core(core: TraceCore) -> tuple:
    """Compiled batch-step plan for a fresh ``core``, via the plan cache.

    Cache hits replay the recorded hierarchy counter deltas onto the
    core (the compile pass's only side effect).
    """
    hier = core.hierarchy
    counters = _hierarchy_counters(hier)
    key = (hier.config, tuple(core._trace_fast))
    entry = _plan_cache.get(key)
    if entry is not None:
        _plan_cache.move_to_end(key)
        _plan_cache_counters["hits"] += 1
        plan, deltas = entry
        for (owner, name), delta in zip(counters, deltas):
            setattr(owner, name, getattr(owner, name) + delta)
        return plan
    before = [getattr(owner, name) for owner, name in counters]
    _plan_cache_counters["misses"] += 1
    _plan_cache_counters["compiles"] += 1
    plan = _compile_core_plan(core)
    deltas = tuple(getattr(owner, name) - start
                   for (owner, name), start in zip(counters, before))
    _plan_cache[key] = (plan, deltas)
    if len(_plan_cache) > PLAN_CACHE_CAPACITY:
        _plan_cache.popitem(last=False)
        _plan_cache_counters["evictions"] += 1
    return plan


class TraceCore:
    """One trace-driven core."""

    __slots__ = ('core_id', '_config', 'hierarchy', 'mshrs',
                 'stats', '_window_size', '_block_mask', '_mshr_entries',
                 '_mshr_capacity', '_mshr_shift', '_trace_fast',
                 '_trace_length', '_core_cycle', '_next_record',
                 '_issued_instructions', '_outstanding', '_finished',
                 '_mem_ptr', '_hot')

    def __init__(self, core_id: int, trace: list[TraceRecord],
                 config: CoreConfig | None = None):
        self.core_id = core_id
        self._config = config or CoreConfig()
        self.hierarchy = CacheHierarchy(self._config.hierarchy)
        # One block size drives both the MSHR merge and the completion
        # match: the L1's, the granularity at which misses leave the core.
        block_size = self.hierarchy.l1.config.block_size_bytes
        self.mshrs = MSHRFile(self._config.mshr_entries, block_size)
        self.stats = CoreStats()
        self._window_size = self._config.window_size
        self._block_mask = ~(block_size - 1)
        self._mshr_entries = self.mshrs.entries
        self._mshr_capacity = self.mshrs.num_entries
        self._mshr_shift = self.mshrs._offset_bits
        #: The trace flattened to (issue_cycles, instructions, address,
        #: is_write) tuples: the plan compiler's input and, with the
        #: hierarchy config, its cache key.
        issue_width = self._config.issue_width
        self._trace_fast = [
            (max((record.bubbles + 1 + issue_width - 1) // issue_width, 1),
             record.bubbles + 1, record.address, record.is_write)
            for record in trace]
        self._trace_length = len(trace)
        #: Core-local clock: the cycle up to which the core has issued work.
        self._core_cycle = 0
        #: Index of the next trace record to execute.
        self._next_record = 0
        #: Instructions issued so far (program-order position).
        self._issued_instructions = 0
        #: Outstanding LLC load misses, in program order.
        self._outstanding: list[_OutstandingMiss] = []
        self._finished = False
        #: Position of the next memory event in the plan's event list.
        self._mem_ptr = 0
        #: The compiled plan plus the stepper's hoisted handles, as one
        #: tuple built on the first run: :meth:`run_requests` is called
        #: once per unblocking completion and often steps only a record
        #: or two, so one load plus an unpack beats a dozen attribute
        #: loads.  Compiling lazily keeps the compile in the run.
        self._hot: tuple | None = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def config(self) -> CoreConfig:
        """Core front-end configuration."""
        return self._config

    @property
    def finished(self) -> bool:
        """True when the whole trace has been executed."""
        return self._finished

    @property
    def core_cycle(self) -> int:
        """The core's local clock (cycles of issued work)."""
        return self._core_cycle

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _compile(self) -> tuple:
        plan = _plan_for_core(self)
        outstanding = self._outstanding
        mshr_entries = self._mshr_entries
        trace_length = self._trace_length
        self._hot = hot = plan + (
            len(plan[2]), trace_length, trace_length + 1, outstanding,
            outstanding.append, mshr_entries, mshr_entries.get,
            self._mshr_capacity, self._mshr_shift, self._block_mask,
            self.mshrs, self._window_size, self.stats)
        return hot

    def run_requests(self, now: int) -> list[tuple[int, int, bool]]:
        """Issue work starting at cycle ``now`` until a stall or the end.

        Returns the memory requests issued, in issue order, as
        ``(issue_cycle, address, is_write)`` tuples (every issue cycle is
        >= ``now``).  The caller delivers them to the memory controller at
        those times and calls :meth:`notify_completion` when each read
        completes; whether the core finished is :attr:`finished`.

        Each loop iteration handles one memory-touching record (or one
        stall): the hit run leading up to it is applied as prefix-array
        differences and window stalls are located by one bisect.
        """
        if self._finished:
            return []
        hot = self._hot
        if hot is None:
            hot = self._compile()
        (cost_prefix, instr_prefix, mem_idx, mem_events, n_mem_events,
         trace_length, trace_n1, outstanding, outstanding_append,
         mshr_entries, mshr_get, mshr_capacity, mshr_shift, block_mask,
         mshrs, window_size, stats) = hot
        next_record = self._next_record
        core_cycle = self._core_cycle
        if now > core_cycle:
            core_cycle = now
        mem_ptr = self._mem_ptr
        requests: list[tuple[int, int, bool]] = []
        new_writebacks = 0
        new_miss_loads = 0
        new_miss_stores = 0
        while next_record < trace_length:
            if len(mshr_entries) >= mshr_capacity:
                break
            if outstanding:
                oldest = outstanding[0]
                if oldest.blocks_window:
                    window_limit = oldest.instruction_position + window_size
                    if instr_prefix[next_record] >= window_limit:
                        break
                    stop = bisect_left(instr_prefix, window_limit,
                                       next_record + 1)
                else:
                    stop = trace_n1
            else:
                stop = trace_n1
            ev = mem_idx[mem_ptr] if mem_ptr < n_mem_events else trace_length
            if ev < stop and ev < trace_length:
                # Hit run up to (and including) the memory record: issue
                # cost and exposed cache latency come from the prefix
                # arrays.
                core_cycle += cost_prefix[ev + 1] - cost_prefix[next_record]
                next_record = ev + 1
                address, is_write, needs_memory, writebacks = \
                    mem_events[mem_ptr]
                mem_ptr += 1
                for writeback_address in writebacks:
                    new_writebacks += 1
                    requests.append((core_cycle, writeback_address, True))
                if not needs_memory:
                    continue
                # Inline MSHRFile.allocate: the loop head guarantees a
                # free entry, so the full-file error path cannot trigger.
                block = address >> mshr_shift
                merged_count = mshr_get(block)
                if merged_count is None:
                    mshr_entries[block] = 1
                    mshrs.allocations += 1
                    new_entry = True
                else:
                    mshr_entries[block] = merged_count + 1
                    mshrs.merges += 1
                    new_entry = False
                if is_write:
                    new_miss_stores += 1
                else:
                    new_miss_loads += 1
                if new_entry:
                    requests.append((core_cycle, address, False))
                    outstanding_append(_OutstandingMiss(
                        address & block_mask, instr_prefix[next_record],
                        not is_write))
                elif not is_write:
                    # The miss merged into an existing MSHR; the load
                    # still blocks the window on the earlier request's
                    # completion.
                    outstanding_append(_OutstandingMiss(
                        address & block_mask, instr_prefix[next_record],
                        True))
                continue
            # No executable memory record: pure hit run to the
            # window-stall point or the end of the trace.
            stop_record = stop if stop < trace_length else trace_length
            core_cycle += cost_prefix[stop_record] - cost_prefix[next_record]
            next_record = stop_record
            break
        self._mem_ptr = mem_ptr
        self._next_record = next_record
        self._core_cycle = core_cycle
        self._issued_instructions = issued_instructions = \
            instr_prefix[next_record]
        # Absolute values: the plan starts at record 0 of a fresh core,
        # so telemetry sampling between runs always reads current stats.
        stats.instructions = issued_instructions
        stats.memory_instructions = next_record
        stats.writebacks += new_writebacks
        stats.llc_miss_loads += new_miss_loads
        stats.llc_miss_stores += new_miss_stores
        if next_record >= trace_length and not outstanding:
            self._retire()
        return requests

    def notify_completion(self, address: int, completion_cycle: int) -> bool:
        """A read request issued by this core completed.

        Returns True when the core can now make progress (the caller should
        schedule a :meth:`run_requests` at ``completion_cycle``).  The
        core's clock is only advanced when this completion is what the core
        was waiting for; a younger miss returning early does not release an
        older window stall.
        """
        block = address & self._block_mask
        outstanding = self._outstanding
        # A plain loop: the list is short, and on Python 3.11 a list
        # comprehension costs a function call per completion.
        kept = []
        for miss in outstanding:
            if miss.block != block:
                kept.append(miss)
        if len(kept) == len(outstanding):
            return False
        mshr_entries = self._mshr_entries
        # A wait this completion ends counts as an MSHR stall when the
        # MSHR file was full, and as a window stall otherwise.
        mshrs_were_full = len(mshr_entries) >= self._mshr_capacity
        # In-place so aliases of the outstanding list stay valid.
        outstanding[:] = kept
        # Inline MSHRFile.release (the entry must exist: an outstanding
        # miss for the block implies a live MSHR).
        del mshr_entries[address >> self._mshr_shift]
        if kept:
            oldest = kept[0]
            if oldest.blocks_window \
                    and self._issued_instructions \
                    - oldest.instruction_position >= self._window_size:
                # An older miss still holds the window.
                return False
        core_cycle = self._core_cycle
        if completion_cycle > core_cycle:
            # The core could not issue past this point until the data came
            # back; charge the wait as stall time and advance the clock.
            if mshrs_were_full:
                self.stats.stall_cycles_mshr += completion_cycle - core_cycle
            else:
                self.stats.stall_cycles_window += \
                    completion_cycle - core_cycle
            self._core_cycle = completion_cycle
        if not kept and self._next_record >= self._trace_length:
            self._retire()
            return False
        return True

    def _retire(self) -> None:
        self._finished = True
        self.stats.finish_cycle = self._core_cycle
