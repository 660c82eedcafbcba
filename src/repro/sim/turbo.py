"""Turbo simulation backend: one batch-stepped, fused event loop.

:class:`TurboSimulator` is a drop-in replacement for
:class:`~repro.sim.simulator.Simulator` (same constructor, ``run()``,
``now``, ``processed_events``) that produces **bit-identical** results —
same event order, same timing, same counters, same telemetry — faster.
One event loop, :meth:`TurboSimulator._run_multi`, serves every number
of cores and channels.  Its event heap holds the reference loop's
``(cycle, seq, kind, payload)`` tuples, with ``seq`` advancing at
exactly the reference loop's push points, so it processes the same
events in the same order — stale wake events included.  It attacks
three costs of the reference loop:

1. **Per-record core simulation.**  The cache hierarchy is cycle-free,
   so each core's trace is compiled once into prefix arrays
   (:func:`_compile_core_plan`, memoized by the process-wide plan
   cache) and a core advances to its next memory event with a
   ``bisect`` instead of simulating every record.

2. **Calls and attribute chasing.**  Address decode, the controller's
   enqueue, wake and FR-FCFS scheduling, the DRAM timing chain
   (``Channel.access`` → ``Bank.access`` → ``Bank._activate``, with
   constants from the flat tables of :mod:`repro.sim.turbo_tables`),
   the FIGCache / LISA-VILLA tag probe, and the core's completion
   notify are inlined into the loop.  A miss's insertion tail calls the
   mechanism's own ``_insert_segment`` / ``_insert_row``, so relocation
   policy stays in one place.  KEEP each inlined block IN SYNC with the
   source it names; the golden fixtures and the cross-backend parity
   suite (``tests/test_backend.py``) enforce the equivalence.  Each
   channel's and each core's hoisted handles form one tuple, unpacked
   into locals only when the channel or core being served changes —
   once per run for a single-channel, single-core system.

3. **Allocation.**  Completed :class:`MemoryRequest` records are pooled
   in a freelist and reused for later arrivals.  A reused request draws
   a fresh ``request_id`` from the same global counter, in the same
   order, so FCFS tie-breaking is unchanged.

Every other system shape runs the reference :class:`Simulator` on the
same cores and controller (:meth:`TurboSimulator._run_reference`): a
tracer, a ``ChannelController`` subclass, channels that disagree on
timing tables, drain watermarks or mechanism, and any mechanism besides
direct access, FIGCache and LISA-VILLA.  The reference loop drives
those through their real methods, and is bit-identical by contract.

All state is mutated in place through the objects the reference loop
uses, so outside observers (telemetry epochs, the end-of-run write
drain) need no synchronisation points.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, deque
from heapq import heappop, heappush

from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, _request_ids
from repro.cpu.core import TraceCore, _OutstandingMiss
from repro.sim.simulator import (Simulator, SimulatorLimits,
                                 interpreter_run_guard)
from repro.sim.turbo_tables import tables_for_channel

_CORE_RUN = 0
_REQUEST_ARRIVAL = 1
_CONTROLLER_WAKE = 2


def _compile_core_plan(core: TraceCore) -> tuple:
    """Precompute one core's cache simulation into a batch-step plan.

    The cache hierarchy is cycle-free: which accesses hit, which miss,
    and which victims write back depend only on the access ORDER (LRU
    over the address sequence), never on simulated time — and the core
    executes its trace strictly in order, each record exactly once.  So
    the whole three-level simulation runs here in one tight pass (the
    same inline blocks as :meth:`CacheHierarchy.access` — KEEP IN SYNC),
    and the event loop's core-run handler advances the core with
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

    Hierarchy state and counters reach their end-of-run values up
    front, which is unobservable: nothing reads them mid-run (the
    telemetry layer samples only ``CoreStats``, which the stepper keeps
    current from the prefix arrays and the returned stats bases), and
    safety-limit overruns raise instead of truncating the trace.
    """
    trace = core._trace_fast
    trace_length = core._trace_length
    next_record = core._next_record
    issued_instructions = core._issued_instructions
    hier = core.hierarchy
    fill_lower = hier._fill_lower
    l1 = hier.l1
    l1_sets = l1._sets
    l1_mask = l1._set_mask
    l1_num_sets = l1._num_sets
    l1_offset = l1._offset_bits
    l1_assoc = l1._associativity
    l1_lat = hier._l1_hit.exposed_latency
    l2 = hier.l2
    l2_sets = l2._sets
    l2_mask = l2._set_mask
    l2_num_sets = l2._num_sets
    l2_offset = l2._offset_bits
    l2_assoc = l2._associativity
    l2_lat = hier._l2_hit.exposed_latency
    llc = hier.llc
    llc_sets = llc._sets
    llc_mask = llc._set_mask
    llc_num_sets = llc._num_sets
    llc_offset = llc._offset_bits
    llc_assoc = llc._associativity
    llc_lat = hier._llc_hit.exposed_latency
    wb_list: list[int] = []
    # Per-level counters accumulate in locals and flush once after the
    # pass; _fill_lower keeps incrementing the attributes directly, which
    # composes because these are pure deltas.
    l1_hits = l1_misses = l1_writebacks = 0
    l2_hits = l2_misses = l2_writebacks = 0
    llc_hits = llc_misses = llc_writebacks = 0

    cost_prefix = [0] * (next_record + 1)
    cost_append = cost_prefix.append
    instr_prefix = [0] * next_record + [issued_instructions]
    instr_append = instr_prefix.append
    mem_idx: list[int] = []
    mem_idx_append = mem_idx.append
    mem_events: list[tuple] = []
    mem_events_append = mem_events.append
    cost_acc = 0
    instr_acc = issued_instructions
    for record_index in range(next_record, trace_length):
        issue_cycles, instructions, address, is_write = trace[record_index]
        instr_acc += instructions
        instr_append(instr_acc)

        block = address >> l1_offset
        cache_set = l1_sets[
            block & l1_mask if l1_mask is not None
            else block % l1_num_sets]
        dirty = cache_set.get(block)
        if dirty is not None:
            l1_hits += 1
            if next(reversed(cache_set)) == block:
                if is_write and not dirty:
                    cache_set[block] = True
            else:
                del cache_set[block]
                cache_set[block] = dirty or is_write
            cost_acc += issue_cycles + l1_lat
            cost_append(cost_acc)
            continue
        l1_misses += 1
        if len(cache_set) >= l1_assoc:
            victim_block = next(iter(cache_set))
            if cache_set.pop(victim_block):
                l1_writebacks += 1
                fill_lower(l2, victim_block << l1_offset, True, wb_list)
        cache_set[block] = is_write

        block = address >> l2_offset
        cache_set = l2_sets[
            block & l2_mask if l2_mask is not None
            else block % l2_num_sets]
        dirty = cache_set.get(block)
        if dirty is not None:
            l2_hits += 1
            if next(reversed(cache_set)) == block:
                if is_write and not dirty:
                    cache_set[block] = True
            else:
                del cache_set[block]
                cache_set[block] = dirty or is_write
            # An L2 hit absorbs the L1-victim fill's writebacks,
            # matching the reference model.
            if wb_list:
                del wb_list[:]
            cost_acc += issue_cycles + l2_lat
            cost_append(cost_acc)
            continue
        l2_misses += 1
        if len(cache_set) >= l2_assoc:
            victim_block = next(iter(cache_set))
            if cache_set.pop(victim_block):
                l2_writebacks += 1
                fill_lower(llc, victim_block << l2_offset, True, wb_list)
        cache_set[block] = is_write

        block = address >> llc_offset
        cache_set = llc_sets[
            block & llc_mask if llc_mask is not None
            else block % llc_num_sets]
        dirty = cache_set.get(block)
        if dirty is not None:
            llc_hits += 1
            if next(reversed(cache_set)) == block:
                if is_write and not dirty:
                    cache_set[block] = True
            else:
                del cache_set[block]
                cache_set[block] = dirty or is_write
            needs_memory = False
        else:
            llc_misses += 1
            if len(cache_set) >= llc_assoc:
                victim_block = next(iter(cache_set))
                if cache_set.pop(victim_block):
                    llc_writebacks += 1
                    wb_list.append(victim_block << llc_offset)
            cache_set[block] = is_write
            needs_memory = True
        cost_acc += issue_cycles + llc_lat
        cost_append(cost_acc)
        if wb_list:
            wbs = tuple(wb_list)
            del wb_list[:]
        else:
            wbs = ()
        if needs_memory or wbs:
            mem_idx_append(record_index)
            mem_events_append((address, is_write, needs_memory, wbs))
    l1.hits += l1_hits
    l1.misses += l1_misses
    l1.writebacks += l1_writebacks
    l2.hits += l2_hits
    l2.misses += l2_misses
    l2.writebacks += l2_writebacks
    llc.hits += llc_hits
    llc.misses += llc_misses
    llc.writebacks += llc_writebacks
    # Every LLC probe miss is a memory miss (and vice versa), so the
    # hierarchy-level counter advances in lockstep with llc.misses.
    hier.llc_misses += llc_misses
    hier.accesses += trace_length - next_record

    # CoreStats flush bases: the stepper assigns absolute values derived
    # from the prefix arrays, so telemetry epoch sampling always reads
    # current numbers no matter how far the core has stepped.
    stats_instr_base = core.stats.instructions - issued_instructions
    stats_mem_base = core.stats.memory_instructions - next_record
    return (cost_prefix, instr_prefix, mem_idx, mem_events,
            stats_instr_base, stats_mem_base)


# ----------------------------------------------------------------------
# Process-wide compiled-plan cache.
#
# A core's plan is a pure function of its trace contents and its cache-
# hierarchy geometry + latencies: the compile pass is a deterministic
# LRU simulation over the address sequence, so two fresh cores with the
# same (hierarchy, trace) pair always compile to the same prefix arrays
# and the same counter deltas.  Caching the plan makes the compile pass
# a one-time cost per (trace, config) instead of a per-run cost — the
# bench harness reuses its inputs across repeat passes, and the sweep
# engine's warm workers (see ``repro.experiments.engine.executor``)
# memoize trace and config objects per worker, so a warm worker that
# re-simulates a known workload skips plan compilation entirely (the
# cache is module-level state and therefore survives across the
# worker's job batches).
#
# On a cache hit the hierarchy's *counters* are replayed onto the fresh
# core from the recorded deltas; the LRU set contents themselves are
# left empty.  That is unobservable: results serialize the counters,
# never the set occupancy, and a plan-cache hit only ever happens on a
# fresh core (``_next_record == 0`` and untouched hierarchy counters),
# whose sets no later code reads.
# ----------------------------------------------------------------------

#: LRU bound on cached plans.  Each entry holds the prefix arrays for
#: one trace (a few hundred KiB at bench scale), so the bound caps the
#: cache at tens of MiB while still covering a whole workload suite.
PLAN_CACHE_CAPACITY = 64

_plan_cache: OrderedDict = OrderedDict()
_plan_cache_counters = {"hits": 0, "misses": 0, "evictions": 0,
                        "compiles": 0, "bypasses": 0}


def plan_cache_stats() -> dict:
    """Snapshot of the plan cache: size, capacity, and hit/miss counters.

    ``compiles`` counts every real :func:`_compile_core_plan` pass
    (cache misses plus bypasses), so warm-worker tests can assert that
    repeated batches stop compiling.  Counters are process-global and
    cumulative; diff two snapshots to scope them to one run.
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


def _hierarchy_signature(core: TraceCore) -> tuple:
    """The hierarchy parameters the compile pass depends on.

    Exactly the fields :func:`_compile_core_plan` hoists: per-level set
    count, associativity, and offset bits decide hit/miss/writeback
    sequences; the exposed hit latencies decide the cost prefix.  Two
    hierarchies agreeing on these compile any trace identically.
    """
    hier = core.hierarchy
    l1 = hier.l1
    l2 = hier.l2
    llc = hier.llc
    return (l1._num_sets, l1._associativity, l1._offset_bits,
            hier._l1_hit.exposed_latency,
            l2._num_sets, l2._associativity, l2._offset_bits,
            hier._l2_hit.exposed_latency,
            llc._num_sets, llc._associativity, llc._offset_bits,
            hier._llc_hit.exposed_latency)


def _plan_for_core(core: TraceCore) -> tuple:
    """Compiled batch-step plan for ``core``, through the plan cache.

    Cache hits replay the recorded hierarchy counter deltas onto the
    core (the compile pass's only side effect) and recompute the
    ``CoreStats`` flush bases from the core's current stats.  Only a
    fresh core is eligible — a partially-run core (never the case for
    the simulators here, which compile once at run start) bypasses the
    cache.
    """
    hier = core.hierarchy
    if core._next_record != 0 or core._issued_instructions != 0 \
            or hier.accesses != 0:
        _plan_cache_counters["bypasses"] += 1
        _plan_cache_counters["compiles"] += 1
        return _compile_core_plan(core)
    key = (_hierarchy_signature(core), tuple(core._trace_fast))
    l1 = hier.l1
    l2 = hier.l2
    llc = hier.llc
    entry = _plan_cache.get(key)
    if entry is not None:
        _plan_cache.move_to_end(key)
        _plan_cache_counters["hits"] += 1
        cost_prefix, instr_prefix, mem_idx, mem_events, deltas = entry
        (d_l1_hits, d_l1_misses, d_l1_writebacks,
         d_l2_hits, d_l2_misses, d_l2_writebacks,
         d_llc_hits, d_llc_misses, d_llc_writebacks,
         d_hier_llc_misses, d_hier_accesses) = deltas
        l1.hits += d_l1_hits
        l1.misses += d_l1_misses
        l1.writebacks += d_l1_writebacks
        l2.hits += d_l2_hits
        l2.misses += d_l2_misses
        l2.writebacks += d_l2_writebacks
        llc.hits += d_llc_hits
        llc.misses += d_llc_misses
        llc.writebacks += d_llc_writebacks
        hier.llc_misses += d_hier_llc_misses
        hier.accesses += d_hier_accesses
        # Fresh core: issued_instructions and next_record are both zero,
        # so the flush bases reduce to the current absolute stats.
        stats = core.stats
        return (cost_prefix, instr_prefix, mem_idx, mem_events,
                stats.instructions, stats.memory_instructions)
    before = (l1.hits, l1.misses, l1.writebacks,
              l2.hits, l2.misses, l2.writebacks,
              llc.hits, llc.misses, llc.writebacks,
              hier.llc_misses, hier.accesses)
    _plan_cache_counters["misses"] += 1
    _plan_cache_counters["compiles"] += 1
    plan = _compile_core_plan(core)
    deltas = (l1.hits - before[0], l1.misses - before[1],
              l1.writebacks - before[2],
              l2.hits - before[3], l2.misses - before[4],
              l2.writebacks - before[5],
              llc.hits - before[6], llc.misses - before[7],
              llc.writebacks - before[8],
              hier.llc_misses - before[9], hier.accesses - before[10])
    _plan_cache[key] = (plan[0], plan[1], plan[2], plan[3], deltas)
    if len(_plan_cache) > PLAN_CACHE_CAPACITY:
        _plan_cache.popitem(last=False)
        _plan_cache_counters["evictions"] += 1
    return plan


class TurboSimulator:
    """Accelerated event-driven co-simulation (bit-identical results)."""

    __slots__ = ('_cores', '_controller', '_limits', '_telemetry', '_now',
                 'processed_events')

    def __init__(self, cores: list[TraceCore], controller: MemoryController,
                 limits: SimulatorLimits | None = None,
                 telemetry=None):
        if not cores:
            raise ValueError("at least one core is required")
        self._cores = cores
        self._controller = controller
        self._limits = limits or SimulatorLimits()
        self._telemetry = telemetry
        self._now = 0
        self.processed_events = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def run(self) -> int:
        """Run until every core finishes its trace; returns the final cycle.

        Every system the fused loop replicates runs :meth:`_run_multi`;
        any other shape (a tracer, a controller subclass, channels that
        disagree on timing or mechanism) runs the reference loop through
        :meth:`_run_reference`.
        """
        with interpreter_run_guard():
            return self._run_multi()

    def _run_reference(self) -> int:
        """Run the reference :class:`Simulator` on the same system.

        The fallback for every shape the fused loop does not replicate:
        the reference loop drives tracers and controller subclasses
        through their real methods and is bit-identical by contract.
        """
        simulator = Simulator(self._cores, self._controller, self._limits,
                              telemetry=self._telemetry)
        try:
            return simulator.run()
        finally:
            self._now = simulator.now
            self.processed_events = simulator.processed_events

    # ------------------------------------------------------------------
    # Shared tail: write drain and telemetry finalisation.
    # ------------------------------------------------------------------
    def _finish(self, cycle: int, processed: int) -> int:
        self._now = max(self._now, cycle)
        self.processed_events = processed
        # Flush any writes still sitting in the controller queues so that
        # command counts and energy reflect the whole workload.
        finish_cycle = max((core.stats.finish_cycle for core in self._cores),
                          default=self._now)
        drain_cycle = self._controller.drain_all(self._now)
        self._now = max(self._now, drain_cycle, finish_cycle)
        if self._telemetry is not None:
            # Close the trailing partial epoch (includes the write drain).
            self._telemetry.finalize(self._now)
        return finish_cycle

    def _raise_limit(self, cycle: int) -> None:
        """Report which safety limit the next event would exceed."""
        if cycle > self._limits.max_cycles:
            raise RuntimeError(
                f"simulation exceeded {self._limits.max_cycles} cycles")
        raise RuntimeError(
            f"simulation exceeded {self._limits.max_events} events "
            f"({self.processed_events} processed)")

    # ------------------------------------------------------------------
    # The fused event loop.
    # ------------------------------------------------------------------
    def _run_multi(self) -> int:
        """The fused event loop, for any number of cores and channels.

        Bit-identical to the reference loop (see the module docstring).
        It first checks that the system is a shape it replicates and
        otherwise returns :meth:`_run_reference` before touching any
        state.
        """
        from repro.baselines.lisa_villa import LISAVillaMechanism
        from repro.controller.channel_controller import ChannelController
        from repro.core.figcache import FIGCache
        from repro.dram.address import DecodedAddress

        controller = self._controller
        ccs = controller.channel_controllers
        cores = self._cores
        for cc in ccs:
            # Traced runs and subclassed controllers (tests,
            # instrumentation) need the real controller methods.
            if cc.tracer is not None or type(cc) is not ChannelController:
                return self._run_reference()
        channels_l = [cc.channel for cc in ccs]

        # One set of hoisted timing scalars serves every channel: all
        # channels of a device share one DRAMConfig, so the content-
        # keyed table cache hands back one ChannelTables object.  Guard
        # by identity and fall back if a future device shape breaks it.
        tables = tables_for_channel(channels_l[0])
        for ch in channels_l[1:]:
            if tables_for_channel(ch) is not tables:
                return self._run_reference()
        col_table = tables.col
        act_table = tables.act
        trp_slow, trp_fast = tables.trp
        trrd = tables.trrd
        tfaw = tables.tfaw
        col_pacing = tables.col_pacing
        tccd_l = tables.tccd_l
        tccd_s = tables.tccd_s
        act_bg_pacing = tables.act_bg_pacing
        trrd_l = tables.trrd_l
        all_fast = tables.all_fast
        regular_rows = tables.regular_rows

        # Mechanism specialisation, uniform across channels: direct
        # access (no in-DRAM cache), FIGCache, or LISA-VILLA.  Any other
        # mechanism — or a mix — runs the reference loop.  The kind
        # selects both the fused service resolution and the inline
        # ``effective_row`` of the FR-FCFS first-ready scan.
        mechanisms = [cc.mechanism for cc in ccs]
        mechanism = mechanisms[0]
        if all(cc._direct_access and cc._row_of is None for cc in ccs):
            service_kind = 0
        elif type(mechanism) is FIGCache:
            service_kind = 1
        elif type(mechanism) is LISAVillaMechanism:
            service_kind = 2
        else:
            return self._run_reference()
        if service_kind and any(type(other) is not type(mechanism)
                                for other in mechanisms):
            return self._run_reference()
        drain_high = ccs[0]._drain_high
        drain_low = ccs[0]._drain_low
        for cc in ccs:
            if cc._drain_high != drain_high or cc._drain_low != drain_low:
                return self._run_reference()

        # Per-channel mechanism handles (FIGCache's eight, then
        # LISA-VILLA's four; the other kind's are None), appended to
        # ``chan_ctx`` below.
        seg_blocks = segments_per_row = fig_benefit_max = 0
        lisa_benefit_max = lisa_fast_base = 0
        mech_ctx = [(None,) * 12] * len(ccs)
        if service_kind == 1:
            seg_blocks = mechanism._segment_blocks
            tags = mechanism._bank_cache(0).tags
            segments_per_row = tags._segments_per_row
            fig_benefit_max = tags._benefit_max
            mech_ctx = []
            for other, channel in zip(mechanisms, channels_l):
                caches = [other._bank_cache(index)
                          for index in range(len(channel._banks))]
                if other._segment_blocks != seg_blocks \
                        or caches[0].tags._segments_per_row \
                        != segments_per_row \
                        or caches[0].tags._benefit_max != fig_benefit_max:
                    return self._run_reference()
                mech_ctx.append((
                    other.stats, [cache.tags._lookup for cache in caches],
                    [cache.tags._entries for cache in caches],
                    [cache.tags for cache in caches],
                    [cache.cache_row_ids for cache in caches], caches,
                    other._may_cache, other._insert_segment,
                    None, None, None, None))
        elif service_kind == 2:
            lisa_benefit_max = mechanism._benefit_max
            lisa_fast_base = mechanism._fast_row_base
            if any(other._benefit_max != lisa_benefit_max
                   or other._fast_row_base != lisa_fast_base
                   for other in mechanisms):
                return self._run_reference()
            mech_ctx = [(None,) * 8 + (other.stats, other._banks.get,
                                      other._bank_state, other._insert_row)
                        for other in mechanisms]

        # Per-channel structure snapshots, indexed by the decoded
        # channel number (ccs order == MemoryController._controllers_tuple
        # order, which the inlined controller fan-out below relies on).
        # Each channel's hoisted handles are one tuple, unpacked into
        # the loop's locals only when the serviced channel changes (so
        # once per run with one channel).
        chan_ctx = []
        for cc, channel, mech in zip(ccs, channels_l, mech_ctx):
            rank_of = channel._rank_of
            counters = channel.counters
            reads_by_bank = cc._reads_by_bank
            writes_by_bank = cc._writes_by_bank
            wakeup_heap, wakeup_cycle_map = cc.wakeup_view()
            chan_ctx.append((
                cc, channel, channel._banks, rank_of,
                rank_of[0].refresh_enabled if rank_of else False,
                channel._apply_refresh, counters,
                counters.track_row_activations, reads_by_bank,
                reads_by_bank.get, writes_by_bank, writes_by_bank.get,
                wakeup_heap, wakeup_cycle_map, wakeup_cycle_map.get,
                cc.read_latencies, cc.write_latencies) + mech)
        ctx_ci = -1
        wakeup_cycle_l = [ctx[13] for ctx in chan_ctx]
        # (heap, live-map .get) pairs for the per-event wake scans —
        # prebound so the scans allocate nothing.
        wake_scan = [(ctx[12], ctx[14]) for ctx in chan_ctx]

        # Address decode, inlined for route-cache misses (KEEP IN SYNC
        # with AddressMapper.decode / AddressMapper.flat_bank and
        # MemoryController.route).
        mapper = controller._device.mapper
        offset_bits = mapper._offset_bits
        column_bits = mapper._column_bits
        column_mask = (1 << column_bits) - 1
        channel_bits = mapper._channel_bits
        channel_mask = (1 << channel_bits) - 1
        bank_bits = mapper._bank_bits
        bank_mask = (1 << bank_bits) - 1
        bankgroup_bits = mapper._bankgroup_bits
        bankgroup_mask = (1 << bankgroup_bits) - 1
        rank_bits = mapper._rank_bits
        rank_mask = (1 << rank_bits) - 1
        rows_per_bank = mapper._rows
        banks_per_rank = mapper._banks_per_rank
        banks_per_bankgroup = mapper._banks_per_bankgroup
        route_cache = controller._route_cache
        route_cache_get = route_cache.get
        # DecodedAddress is a frozen slotted dataclass whose generated
        # __init__ routes every field through object.__setattr__; the
        # slot descriptors build the identical object in half the time
        # (most arrivals of a bench trace miss the route cache).
        new_decoded = object.__new__
        (set_channel, set_rank, set_bankgroup, set_bank, set_row,
         set_column) = [getattr(DecodedAddress, name).__set__
                        for name in ("channel", "rank", "bankgroup", "bank",
                                     "row", "column_block")]

        max_cycles = self._limits.max_cycles
        max_events = self._limits.max_events
        telemetry = self._telemetry
        epoch_end = telemetry.next_epoch if telemetry is not None \
            else max_cycles + 1

        request_ids = _request_ids
        freelist: list[MemoryRequest] = []
        freelist_pop = freelist.pop
        freelist_append = freelist.append

        # Per-core handles — the compiled plan plus the core's hoisted
        # state objects — one tuple per core, indexed by core_id and
        # unpacked only when the core being stepped or notified changes
        # (so once per run with one core).  ``mem_ptrs`` holds each
        # core's position in its plan's memory-event list.
        core_ctx = []
        mem_ptrs = []
        for core in cores:
            plan = _plan_for_core(core)
            trace_length = len(plan[0]) - 1
            mshr_entries = core._mshr_entries
            outstanding = core._outstanding
            core_ctx.append(plan + (
                core, trace_length, trace_length + 1, len(plan[2]),
                outstanding, outstanding.append, mshr_entries,
                mshr_entries.get, core._mshr_capacity, core._mshr_shift,
                core._block_mask, core.mshrs, core._window_size,
                core.stats, core.core_id))
            mem_ptrs.append(bisect_left(plan[2], core._next_record))
        core_id = -1

        # The event heap holds the reference loop's (cycle, seq, kind,
        # payload) tuples; seq is unique and monotone, so tuple
        # comparison never reaches the payload.  The initial core runs
        # are already in heap order.
        events = [(0, seq, _CORE_RUN, core) for seq, core in enumerate(cores)]
        seq = len(cores)
        scheduled_wake: int | None = None
        processed = self.processed_events
        cycle = 0
        while events:
            cycle, _, kind, payload = heappop(events)
            if cycle > max_cycles or processed >= max_events:
                self._now = cycle
                self.processed_events = processed
                self._raise_limit(cycle)
            if cycle >= epoch_end:
                epoch_end = telemetry.advance(cycle)
            processed += 1

            #: (channel index, due banks) groups for the shared
            #: scheduling block, and the requests this event completed.
            due_work = None
            completed = None
            #: Did this event note a new (or sooner) bank wake-up?  Only
            #: then — or after a WAKE event, which clears the
            #: ``scheduled_wake`` latch — can the earliest pending wake
            #: differ from what is already scheduled, so the trailing
            #: wake scan is skipped otherwise (removals only ever move
            #: the earliest wake later, which needs no new event).
            wake_pushed = False

            if kind == _REQUEST_ARRIVAL:
                # Inline MemoryController.enqueue (route probe + decode)
                # + ChannelController.enqueue (KEEP IN SYNC).
                request = payload
                address = request.address
                route_entry = route_cache_get(address)
                if route_entry is None:
                    bits = address >> offset_bits
                    column = bits & column_mask
                    bits >>= column_bits
                    ci = (bits & channel_mask) if channel_bits else 0
                    bits >>= channel_bits
                    bank_index = bits & bank_mask
                    bits >>= bank_bits
                    bankgroup = bits & bankgroup_mask
                    bits >>= bankgroup_bits
                    rank_index = (bits & rank_mask) if rank_bits else 0
                    bits >>= rank_bits
                    decoded = new_decoded(DecodedAddress)
                    set_channel(decoded, ci)
                    set_rank(decoded, rank_index)
                    set_bankgroup(decoded, bankgroup)
                    set_bank(decoded, bank_index)
                    set_row(decoded, bits % rows_per_bank)
                    set_column(decoded, column)
                    flat_bank = (rank_index * banks_per_rank
                                 + bankgroup * banks_per_bankgroup
                                 + bank_index)
                    route_cache[address] = (decoded, flat_bank, ccs[ci])
                    request.decoded = decoded
                    request.flat_bank = flat_bank
                else:
                    decoded = route_entry[0]
                    request.decoded = decoded
                    flat_bank = request.flat_bank = route_entry[1]
                    ci = decoded.channel
                if ci != ctx_ci:
                    ctx_ci = ci
                    (cc, channel, banks, rank_of, refresh_on, apply_refresh,
                     counters, track_rows, reads_by_bank, reads_get,
                     writes_by_bank, writes_get, wakeup_heap,
                     wakeup_cycle_map, wakeup_get, read_latencies,
                     write_latencies, fig_stats, fig_lookup, fig_entries,
                     fig_tags, fig_row_ids, fig_caches, fig_may_cache,
                     fig_insert, lisa_stats, lisa_banks_get, lisa_bank_state,
                     lisa_insert) = chan_ctx[ci]
                # A read to an idle, free bank takes the queue and the
                # scheduling block below exactly like any other arrival:
                # the enqueue fast path's outcome is the sole-candidate
                # pick's.
                if request.is_write:
                    write_count = cc._write_count = cc._write_count + 1
                    if not cc._drain_mode and write_count >= drain_high:
                        cc._drain_mode = True
                    index = writes_by_bank
                else:
                    cc._read_count += 1
                    index = reads_by_bank
                # Queue insert in FCFS (request_id) order.
                queue = index.get(flat_bank)
                if queue is None:
                    index[flat_bank] = deque((request,))
                elif queue[-1].request_id < request.request_id:
                    queue.append(request)
                else:
                    # Rare out-of-order arrival: restore FCFS order.
                    position = len(queue) - 1
                    request_id = request.request_id
                    while position > 0 \
                            and queue[position - 1].request_id > request_id:
                        position -= 1
                    queue.insert(position, request)
                bank = banks[flat_bank]
                busy_until = bank._busy_until
                nca = bank._next_col_allowed
                ready_at = busy_until if busy_until > nca else nca
                if ready_at > cycle:
                    # Busy bank: note the wake-up (pending work is
                    # guaranteed — the request was just queued).
                    existing = wakeup_get(flat_bank)
                    if existing is None or ready_at < existing:
                        wakeup_cycle_map[flat_bank] = ready_at
                        heappush(wakeup_heap, (ready_at, flat_bank))
                        wake_pushed = True
                else:
                    due_work = ((ci, (flat_bank,)),)
            elif kind == _CORE_RUN:
                # Batch-stepped TraceCore.run_requests (KEEP IN SYNC):
                # each iteration below handles one memory-touching record
                # (or one stall), the hit run leading up to it applied as
                # prefix-array differences and window stalls located by
                # one bisect; issued requests are pushed as arrival
                # events directly.
                if payload._finished:
                    continue
                if payload.core_id != core_id:
                    (cost_prefix, instr_prefix, mem_idx, mem_events,
                     stats_instr_base, stats_mem_base, core, trace_length,
                     trace_n1, n_mem_events, outstanding, outstanding_append,
                     mshr_entries, mshr_get, mshr_capacity, mshr_shift,
                     block_mask, mshrs, window_size, run_stats,
                     core_id) = core_ctx[payload.core_id]
                next_record = core._next_record
                core_cycle = core._core_cycle
                if cycle > core_cycle:
                    core_cycle = cycle
                mem_ptr = mem_ptrs[core_id]
                new_writebacks = 0
                new_miss_loads = 0
                new_miss_stores = 0
                while next_record < trace_length:
                    if len(mshr_entries) >= mshr_capacity:
                        break
                    if outstanding:
                        oldest = outstanding[0]
                        if oldest.blocks_window:
                            window_limit = oldest.instruction_position \
                                + window_size
                            if instr_prefix[next_record] >= window_limit:
                                break
                            stop = bisect_left(instr_prefix, window_limit,
                                               next_record + 1)
                        else:
                            stop = trace_n1
                    else:
                        stop = trace_n1
                    ev = mem_idx[mem_ptr] if mem_ptr < n_mem_events \
                        else trace_length
                    if ev < stop and ev < trace_length:
                        # Hit run up to (and including) the memory
                        # record — issue cost and exposed cache latency
                        # come from the prefix arrays.
                        core_cycle += cost_prefix[ev + 1] \
                            - cost_prefix[next_record]
                        next_record = ev + 1
                        address, is_write, needs_memory, wbs = \
                            mem_events[mem_ptr]
                        mem_ptr += 1
                        for writeback_address in wbs:
                            new_writebacks += 1
                            if freelist:
                                request = freelist_pop()
                                request.core_id = core_id
                                request.address = writeback_address
                                request.is_write = True
                                request.arrival_cycle = core_cycle
                                request.request_id = next(request_ids)
                            else:
                                request = MemoryRequest(
                                    core_id, writeback_address, True,
                                    core_cycle)
                            heappush(events, (core_cycle, seq,
                                              _REQUEST_ARRIVAL, request))
                            seq += 1
                        if not needs_memory:
                            continue
                        # Inline MSHRFile.allocate: the loop head
                        # guarantees a free entry.
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
                            if freelist:
                                request = freelist_pop()
                                request.core_id = core_id
                                request.address = address
                                request.is_write = False
                                request.arrival_cycle = core_cycle
                                request.request_id = next(request_ids)
                            else:
                                request = MemoryRequest(
                                    core_id, address, False, core_cycle)
                            heappush(events, (core_cycle, seq,
                                              _REQUEST_ARRIVAL, request))
                            seq += 1
                            outstanding_append(_OutstandingMiss(
                                address, instr_prefix[next_record],
                                not is_write, address & block_mask))
                        elif not is_write:
                            # The miss merged into an existing MSHR; the
                            # load still blocks the window on the earlier
                            # request's completion.
                            outstanding_append(_OutstandingMiss(
                                address, instr_prefix[next_record],
                                True, address & block_mask))
                        continue
                    # No executable memory record: pure hit run to the
                    # window-stall point or the end of the trace.
                    stop_record = stop if stop < trace_length \
                        else trace_length
                    core_cycle += cost_prefix[stop_record] \
                        - cost_prefix[next_record]
                    next_record = stop_record
                    break
                mem_ptrs[core_id] = mem_ptr
                core._next_record = next_record
                core._core_cycle = core_cycle
                issued_instructions = instr_prefix[next_record]
                core._issued_instructions = issued_instructions
                run_stats.instructions = stats_instr_base \
                    + issued_instructions
                run_stats.memory_instructions = stats_mem_base \
                    + next_record
                run_stats.writebacks += new_writebacks
                run_stats.llc_miss_loads += new_miss_loads
                run_stats.llc_miss_stores += new_miss_stores
                if next_record >= trace_length and not outstanding:
                    # Inline _retire.
                    core._finished = True
                    run_stats.finish_cycle = core_cycle
                continue
            else:
                # CONTROLLER_WAKE (superseded wake events stay in the
                # queue, exactly like the reference loop's heap).
                if scheduled_wake is not None and scheduled_wake <= cycle:
                    scheduled_wake = None
                next_due = None
                for scan_heap, scan_get in wake_scan:
                    while scan_heap:
                        head = scan_heap[0]
                        if scan_get(head[1]) == head[0]:
                            if next_due is None or head[0] < next_due:
                                next_due = head[0]
                            break
                        heappop(scan_heap)
                if next_due is None:
                    continue
                if next_due <= cycle:
                    # Inline MemoryController.wake: each channel with
                    # pending wake-ups runs ChannelController.wake in
                    # controller order (KEEP IN SYNC with both).
                    due_work = []
                    for ci, live_map in enumerate(wakeup_cycle_l):
                        if not live_map:
                            continue
                        if len(live_map) == 1:
                            bank_index, due_cycle = \
                                next(iter(live_map.items()))
                            if due_cycle <= cycle:
                                del live_map[bank_index]
                                due_work.append((ci, (bank_index,)))
                        else:
                            due = [bank_index for bank_index, due_cycle
                                   in live_map.items()
                                   if due_cycle <= cycle]
                            if due:
                                for bank_index in due:
                                    del live_map[bank_index]
                                due_work.append((ci, due))
                    if not due_work:
                        due_work = None

            # ----------------------------------------------------------
            # Shared scheduling block: inline
            # ChannelController._try_schedule_bank for each due bank of
            # each due channel (KEEP IN SYNC).
            # ----------------------------------------------------------
            if due_work is not None:
                completed = []
                completed_append = completed.append
                for ci, due_banks in due_work:
                    if ci != ctx_ci:
                        ctx_ci = ci
                        (cc, channel, banks, rank_of, refresh_on,
                         apply_refresh, counters, track_rows, reads_by_bank,
                         reads_get, writes_by_bank, writes_get, wakeup_heap,
                         wakeup_cycle_map, wakeup_get, read_latencies,
                         write_latencies, fig_stats, fig_lookup,
                         fig_entries, fig_tags, fig_row_ids, fig_caches,
                         fig_may_cache, fig_insert, lisa_stats,
                         lisa_banks_get, lisa_bank_state,
                         lisa_insert) = chan_ctx[ci]
                    for flat_bank in due_banks:
                        bank = banks[flat_bank]
                        ready_at = bank._busy_until
                        nca = bank._next_col_allowed
                        if nca > ready_at:
                            ready_at = nca
                        while True:
                            if ready_at > cycle:
                                # Inline _note_wakeup, incl. its
                                # no-pending guard.
                                if flat_bank not in reads_by_bank \
                                        and flat_bank \
                                        not in writes_by_bank:
                                    wakeup_cycle_map.pop(flat_bank, None)
                                else:
                                    existing = wakeup_get(flat_bank)
                                    if existing is None \
                                            or ready_at < existing:
                                        wakeup_cycle_map[flat_bank] = \
                                            ready_at
                                        heappush(wakeup_heap,
                                                 (ready_at, flat_bank))
                                        wake_pushed = True
                                break
                            # Inline FRFCFSScheduler.pick + _first_ready
                            # (KEEP IN SYNC).
                            bank_reads = reads_get(flat_bank)
                            bank_writes = writes_get(flat_bank)
                            if bank_writes is None:
                                if bank_reads is None:
                                    break
                                candidates = bank_reads
                            elif bank_reads is None:
                                if not cc._drain_mode \
                                        and cc._write_count < drain_low:
                                    break
                                candidates = bank_writes
                            elif cc._drain_mode:
                                candidates = bank_writes
                            else:
                                candidates = bank_reads
                            if len(candidates) == 1:
                                request = candidates[0]
                            else:
                                request = None
                                open_row = bank.open_row
                                if open_row is not None:
                                    if service_kind == 0:
                                        for cand in candidates:
                                            if cand.decoded.row \
                                                    == open_row:
                                                request = cand
                                                break
                                    elif service_kind == 1:
                                        # Inline FIGCache.effective_row.
                                        lookup_get = \
                                            fig_lookup[flat_bank].get
                                        entries = \
                                            fig_entries[flat_bank]
                                        row_ids = \
                                            fig_row_ids[flat_bank]
                                        for cand in candidates:
                                            cand_decoded = cand.decoded
                                            cand_row = cand_decoded.row
                                            slot = lookup_get(
                                                (cand_row,
                                                 cand_decoded.column_block
                                                 // seg_blocks))
                                            if slot is None:
                                                effective = cand_row
                                            elif not entries[slot].dirty \
                                                    and open_row \
                                                    == cand_row:
                                                effective = cand_row
                                            else:
                                                effective = row_ids[
                                                    slot
                                                    // segments_per_row]
                                            if effective == open_row:
                                                request = cand
                                                break
                                    else:
                                        # Inline LISAVillaMechanism
                                        # .effective_row (a missing bank
                                        # state means an empty cache).
                                        state = \
                                            lisa_banks_get(flat_bank)
                                        if state is None:
                                            for cand in candidates:
                                                if cand.decoded.row \
                                                        == open_row:
                                                    request = cand
                                                    break
                                        else:
                                            entries_get = \
                                                state.entries.get
                                            for cand in candidates:
                                                cand_row = \
                                                    cand.decoded.row
                                                tag_entry = \
                                                    entries_get(cand_row)
                                                if tag_entry is None:
                                                    effective = cand_row
                                                elif not tag_entry.dirty \
                                                        and open_row \
                                                        == cand_row:
                                                    effective = cand_row
                                                else:
                                                    effective = \
                                                        lisa_fast_base \
                                                        + tag_entry \
                                                        .cache_slot
                                                if effective == open_row:
                                                    request = cand
                                                    break
                                if request is None:
                                    request = candidates[0]
                            # Inline _dequeue.
                            is_write = request.is_write
                            if is_write:
                                write_count = cc._write_count = \
                                    cc._write_count - 1
                                if cc._drain_mode \
                                        and write_count <= drain_low:
                                    cc._drain_mode = False
                                index = writes_by_bank
                            else:
                                cc._read_count -= 1
                                index = reads_by_bank
                            queue = index[flat_bank]
                            if queue[0] is request:
                                queue.popleft()
                            else:
                                queue.remove(request)
                            if not queue:
                                del index[flat_bank]
                            # Service: resolve the target row — direct
                            # access serves the decoded row; an in-DRAM
                            # cache hit runs its tag bookkeeping inline
                            # and redirects to the cache row (or the
                            # still-open source row; a write hit marks
                            # the entry dirty and always goes to the
                            # cache row) — then run Channel.access /
                            # Bank.access / Bank._activate on it (KEEP
                            # IN SYNC with those, with FIGCache.service
                            # and LISAVillaMechanism.service, and with
                            # the completion bookkeeping of
                            # _try_schedule_bank).
                            decoded = request.decoded
                            insert_kind = 0
                            if service_kind == 0:
                                row = decoded.row
                                cache_hit = None
                            elif service_kind == 1:
                                src_row = decoded.row
                                segment = \
                                    decoded.column_block // seg_blocks
                                slot = fig_lookup[flat_bank].get(
                                    (src_row, segment))
                                if slot is None:
                                    # Fused miss: serve the source row
                                    # through the timing block below;
                                    # the insertion tail runs after it.
                                    fig_stats.cache_lookups += 1
                                    row = src_row
                                    cache_hit = False
                                    insert_kind = 1
                                else:
                                    fig_stats.cache_lookups += 1
                                    fig_stats.cache_hits += 1
                                    tag_entry = \
                                        fig_entries[flat_bank][slot]
                                    if tag_entry.benefit \
                                            < fig_benefit_max:
                                        tag_entry.benefit += 1
                                    tags = fig_tags[flat_bank]
                                    tags._touch_counter += 1
                                    tag_entry.last_touch = \
                                        tags._touch_counter
                                    if is_write:
                                        tag_entry.dirty = True
                                        row = fig_row_ids[flat_bank][
                                            slot // segments_per_row]
                                    elif not tag_entry.dirty \
                                            and bank.open_row == src_row:
                                        row = src_row
                                    else:
                                        row = fig_row_ids[flat_bank][
                                            slot // segments_per_row]
                                    cache_hit = True
                            else:
                                src_row = decoded.row
                                state = lisa_banks_get(flat_bank)
                                tag_entry = None if state is None \
                                    else state.entries.get(src_row)
                                if tag_entry is None:
                                    lisa_stats.cache_lookups += 1
                                    row = src_row
                                    cache_hit = False
                                    insert_kind = 2
                                else:
                                    lisa_stats.cache_lookups += 1
                                    lisa_stats.cache_hits += 1
                                    if tag_entry.benefit \
                                            < lisa_benefit_max:
                                        tag_entry.benefit += 1
                                    if is_write:
                                        tag_entry.dirty = True
                                        row = lisa_fast_base \
                                            + tag_entry.cache_slot
                                    elif not tag_entry.dirty \
                                            and bank.open_row == src_row:
                                        row = src_row
                                    else:
                                        row = lisa_fast_base \
                                            + tag_entry.cache_slot
                                    cache_hit = True
                            rank = rank_of[flat_bank]
                            if refresh_on \
                                    and cycle >= rank.next_refresh_due:
                                start = apply_refresh(cycle, flat_bank)
                            else:
                                start = cycle
                            served_fast = all_fast or row >= regular_rows
                            busy_until = bank._busy_until
                            if busy_until > start:
                                start = busy_until
                            open_row = bank.open_row
                            if open_row == row:
                                outcome = "hit"
                                counters.row_hits += 1
                                col_cycle = bank._next_col_allowed
                                if start > col_cycle:
                                    col_cycle = start
                            else:
                                if open_row is None:
                                    outcome = "miss"
                                    counters.row_misses += 1
                                    act_cycle = start
                                    naa = bank._next_act_allowed
                                    if act_cycle < naa:
                                        act_cycle = naa
                                else:
                                    outcome = "conflict"
                                    counters.row_conflicts += 1
                                    pre_cycle = bank._next_pre_allowed
                                    if start > pre_cycle:
                                        pre_cycle = start
                                    act_cycle = pre_cycle + (
                                        trp_fast if all_fast
                                        or open_row >= regular_rows
                                        else trp_slow)
                                    counters.precharges += 1
                                rrd_earliest = rank._last_activate + trrd
                                if rrd_earliest > act_cycle:
                                    act_cycle = rrd_earliest
                                recent = rank._recent_activates
                                if len(recent) == 4:
                                    faw_earliest = recent[0] + tfaw
                                    if faw_earliest > act_cycle:
                                        act_cycle = faw_earliest
                                if act_bg_pacing:
                                    bg_last = rank._bg_last_act
                                    bg_index = bank._bg_index
                                    bg_earliest = \
                                        bg_last[bg_index] + trrd_l
                                    if bg_earliest > act_cycle:
                                        act_cycle = bg_earliest
                                    bg_last[bg_index] = act_cycle
                                rank._last_activate = act_cycle
                                recent.append(act_cycle)
                                counters.activates += 1
                                if served_fast:
                                    counters.fast_activates += 1
                                if track_rows:
                                    counters.record_row_activation(
                                        bank._key, row)
                                bank.open_row = row
                                bank._last_act = act_cycle
                                trcd, tras = act_table[served_fast]
                                bank._next_pre_allowed = act_cycle + tras
                                col_cycle = act_cycle + trcd
                            if col_pacing:
                                bg_index = bank._bg_index
                                earliest_col = \
                                    rank._bg_last_col[bg_index] + tccd_l
                                cross = rank._last_col_cycle + tccd_s
                                if cross > earliest_col:
                                    earliest_col = cross
                                if earliest_col > col_cycle:
                                    col_cycle = earliest_col
                            data_latency, tbl, tccd, t_a, t_b = \
                                col_table[2 | served_fast] if is_write \
                                else col_table[served_fast]
                            burst_start = col_cycle + data_latency
                            bus_free_at = channel._bus_free_at
                            if burst_start < bus_free_at:
                                burst_start = bus_free_at
                                col_cycle = burst_start - data_latency
                            completion = burst_start + tbl
                            channel._bus_free_at = completion
                            if is_write:
                                counters.writes += 1
                                if served_fast:
                                    counters.fast_writes += 1
                                next_col = col_cycle + tccd
                                turnaround = completion + t_a  # tWTR
                                if turnaround > next_col:
                                    next_col = turnaround
                                next_pre = completion + t_b    # tWR
                            else:
                                counters.reads += 1
                                if served_fast:
                                    counters.fast_reads += 1
                                next_col = col_cycle + tccd
                                next_pre = col_cycle + t_a     # tRTP
                            ready_at = bank._next_col_allowed
                            if next_col > ready_at:
                                bank._next_col_allowed = ready_at = \
                                    next_col
                            if next_pre > bank._next_pre_allowed:
                                bank._next_pre_allowed = next_pre
                            if col_cycle > bank._busy_until:
                                bank._busy_until = col_cycle
                            if col_pacing:
                                rank._last_col_cycle = col_cycle
                                rank._bg_last_col[bg_index] = col_cycle
                            request.in_dram_cache_hit = cache_hit
                            request.row_buffer_outcome = outcome
                            request.served_fast = served_fast
                            if insert_kind:
                                # Inline FIGCache.service /
                                # LISAVillaMechanism.service miss tails
                                # (KEEP IN SYNC): insertion starts when
                                # the access data is back.  The
                                # relocation work may push the bank's
                                # busy window past the access, so
                                # re-read its readiness (inline
                                # Bank.ready_for_next) for the wake
                                # scheduled below.
                                if insert_kind == 1:
                                    bank_cache = fig_caches[flat_bank]
                                    insertion = bank_cache.insertion
                                    if (bank_cache.excluded_subarray
                                            < 0
                                            or fig_may_cache(
                                                bank_cache, src_row)) \
                                            and (insertion
                                                 .always_inserts
                                                 or insertion
                                                 .should_insert(
                                                     src_row,
                                                     segment)):
                                        fig_insert(
                                            channel, completion,
                                            flat_bank, bank_cache,
                                            src_row, segment,
                                            dirty=is_write)
                                        busy = bank._busy_until
                                        nca = bank._next_col_allowed
                                        ready_at = busy \
                                            if busy > nca else nca
                                else:
                                    if state is None:
                                        state = lisa_bank_state(
                                            flat_bank)
                                    lisa_insert(channel, completion,
                                                flat_bank, state,
                                                src_row,
                                                dirty=is_write)
                                    busy = bank._busy_until
                                    nca = bank._next_col_allowed
                                    ready_at = busy \
                                        if busy > nca else nca
                            request.issue_cycle = cycle
                            request.completion_cycle = completion
                            latency = completion - request.arrival_cycle
                            if is_write:
                                cc.completed_writes += 1
                                write_latencies[latency] = \
                                    write_latencies.get(latency, 0) + 1
                            else:
                                cc.completed_reads += 1
                                read_latencies[latency] = \
                                    read_latencies.get(latency, 0) + 1
                            completed_append(request)

            if completed:
                # Inline completion delivery (see Simulator._run) plus
                # request pooling: reads are recycled right after their
                # notify, writes immediately — nothing retains them.
                # The notify itself is TraceCore.notify_completion
                # inlined (KEEP IN SYNC): clear the block's outstanding
                # misses and MSHR, charge the stall, advance the clock,
                # and reschedule the core if it can now make progress.
                for request in completed:
                    if not request.is_write:
                        if request.core_id != core_id:
                            (cost_prefix, instr_prefix, mem_idx, mem_events,
                             stats_instr_base, stats_mem_base, core,
                             trace_length, trace_n1, n_mem_events,
                             outstanding, outstanding_append, mshr_entries,
                             mshr_get, mshr_capacity, mshr_shift,
                             block_mask, mshrs, window_size, run_stats,
                             core_id) = core_ctx[request.core_id]
                        completion_cycle = request.completion_cycle
                        address = request.address
                        block = address & block_mask
                        kept = [miss for miss in outstanding
                                if miss.block != block]
                        if len(kept) != len(outstanding):
                            issued = core._issued_instructions
                            oldest = outstanding[0]
                            stalled_before = \
                                len(mshr_entries) >= mshr_capacity \
                                or (oldest.blocks_window
                                    and (issued
                                         - oldest.instruction_position)
                                    >= window_size)
                            # In-place so aliases stay valid; the MSHR
                            # entry must exist (outstanding miss =>
                            # live MSHR).
                            outstanding[:] = kept
                            del mshr_entries[address >> mshr_shift]
                            if kept:
                                oldest = kept[0]
                                can_progress = not (
                                    oldest.blocks_window
                                    and (issued
                                         - oldest.instruction_position)
                                    >= window_size)
                            else:
                                can_progress = True
                            core_cycle = core._core_cycle
                            if can_progress \
                                    and completion_cycle > core_cycle:
                                stall = completion_cycle - core_cycle
                                if stalled_before \
                                        and len(mshr_entries) + 1 \
                                        >= mshr_capacity:
                                    run_stats.stall_cycles_mshr += stall
                                else:
                                    run_stats.stall_cycles_window += stall
                                core._core_cycle = core_cycle = \
                                    completion_cycle
                            if not kept \
                                    and core._next_record >= trace_length:
                                # Inline _retire.
                                core._finished = True
                                run_stats.finish_cycle = core_cycle
                            elif can_progress:
                                heappush(events, (completion_cycle, seq,
                                                  _CORE_RUN, core))
                                seq += 1
                    freelist_append(request)

            # Trailing wake scheduling (skipped after CORE_RUN, exactly
            # like the reference loop's `continue`).  Scanning only when
            # this event pushed a wake note or cleared the latch is
            # bit-identical: otherwise the earliest pending wake is
            # already covered by ``scheduled_wake``, so the reference
            # scan would push nothing either.
            if not wake_pushed and kind != _CONTROLLER_WAKE:
                continue
            wake_at = None
            for scan_heap, scan_get in wake_scan:
                while scan_heap:
                    head = scan_heap[0]
                    if scan_get(head[1]) == head[0]:
                        if wake_at is None or head[0] < wake_at:
                            wake_at = head[0]
                        break
                    heappop(scan_heap)
            if wake_at is not None:
                if wake_at < cycle:
                    wake_at = cycle
                if scheduled_wake is None or scheduled_wake > wake_at:
                    scheduled_wake = wake_at
                    heappush(events, (wake_at, seq, _CONTROLLER_WAKE, None))
                    seq += 1
        return self._finish(cycle, processed)
