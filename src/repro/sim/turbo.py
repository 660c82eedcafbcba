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

1. **Per-record core simulation.**  The loop does not step cores
   itself: its core-run handler calls :meth:`TraceCore.run_requests`
   and its completion delivery :meth:`TraceCore.notify_completion`,
   the core's one stepper and one notify, shared with the reference
   loop.  The stepper advances over a compiled plan (the cache
   hierarchy is cycle-free, so each trace is compiled once into prefix
   arrays, memoized by the process-wide plan cache in
   :mod:`repro.cpu.core`) to its next memory event with a ``bisect``
   instead of simulating every record.

2. **Calls and attribute chasing.**  Address decode, the controller's
   enqueue, wake and FR-FCFS scheduling, and the DRAM timing chain
   (``Channel.access`` → ``Bank.access`` → ``Bank._activate``, with
   constants from the flat tables of :mod:`repro.sim.turbo_tables`)
   are inlined into the loop.  KEEP each inlined block IN SYNC with
   the source it names; the golden fixtures and the cross-backend
   parity suite (``tests/test_backend.py``) enforce the equivalence.
   Mechanism policy is never copied: the loop calls the channel's
   FR-FCFS row hook (``ChannelController._row_of``) and the
   mechanism's own ``resolve`` (tag probe and hit bookkeeping) and
   ``fill`` (miss tail) around its inlined timing chain, exactly as
   :meth:`CachingMechanism.service` composes them.  Each channel's
   hoisted handles form one tuple, unpacked into locals only when the
   channel being served changes — once per run for a single-channel
   system.

3. **Allocation.**  Completed :class:`MemoryRequest` records are pooled
   in a freelist and reused for later arrivals.  A reused request draws
   a fresh ``request_id`` from the same global counter, in the same
   order, so FCFS tie-breaking is unchanged.

Every other system shape runs the reference :class:`Simulator` on the
same cores and controller (:meth:`TurboSimulator._run_reference`): a
tracer, a ``ChannelController`` subclass, channels that disagree on
timing tables or drain watermarks, and a mechanism class that overrides
:meth:`CachingMechanism.service` (the fused loop could not see its
policy).  The reference loop drives those through their real methods,
and is bit-identical by contract.

All state is mutated in place through the objects the reference loop
uses, so outside observers (telemetry epochs, the end-of-run write
drain) need no synchronisation points.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, _request_ids
# The plan cache lives with the core; its accessors stay importable here.
from repro.cpu.core import (TraceCore, clear_plan_cache,  # noqa: F401
                            plan_cache_stats)
from repro.sim.simulator import (Simulator, SimulatorLimits, finish_run,
                                 interpreter_run_guard, raise_limit)
from repro.sim.turbo_tables import tables_for_channel

_CORE_RUN = 0
_REQUEST_ARRIVAL = 1
_CONTROLLER_WAKE = 2


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
        disagree on timing tables or drain watermarks, a mechanism with
        its own ``service``) runs the reference loop through
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
        finish_cycle, self._now = finish_run(self._cores, self._controller,
                                             self._telemetry, self._now)
        return finish_cycle

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
        from repro.controller.channel_controller import ChannelController
        from repro.core.mechanism import CachingMechanism
        from repro.dram.address import DecodedAddress

        controller = self._controller
        ccs = controller.channel_controllers
        cores = self._cores
        service = CachingMechanism.service
        drain_high = ccs[0]._drain_high
        drain_low = ccs[0]._drain_low
        for cc in ccs:
            # Traced runs, subclassed controllers (tests, instrumentation)
            # and mechanisms with their own service need the real
            # methods; the loop hoists one pair of drain watermarks.
            if cc.tracer is not None or type(cc) is not ChannelController \
                    or type(cc.mechanism).service is not service \
                    or cc._drain_high != drain_high \
                    or cc._drain_low != drain_low:
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

        # Per-channel structure snapshots, indexed by the decoded
        # channel number (ccs order == MemoryController._controllers_tuple
        # order, which the inlined controller fan-out below relies on).
        # Each channel's hoisted handles are one tuple, unpacked into
        # the loop's locals only when the serviced channel changes (so
        # once per run with one channel).  The mechanism hooks close it:
        # the FR-FCFS row hook (None when the mechanism never remaps
        # rows), then ``resolve``/``fill`` (None for direct access, which
        # the controller serves without the mechanism).
        chan_ctx = []
        for cc, channel in zip(ccs, channels_l):
            mechanism = cc.mechanism
            direct = cc._direct_access
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
                cc.read_latencies, cc.write_latencies, cc._row_of,
                None if direct else mechanism.resolve,
                None if direct else mechanism.fill))
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
                raise_limit(self._limits, cycle, processed)
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
                     write_latencies, row_of, resolve, fill) = chan_ctx[ci]
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
                # The core steps itself; its issued requests become
                # pooled arrival events (exactly the reference loop's
                # pushes, in the same order).
                issued = payload.run_requests(cycle)
                if issued:
                    core_id = payload.core_id
                    for issue_cycle, address, is_write in issued:
                        if freelist:
                            request = freelist_pop()
                            request.core_id = core_id
                            request.address = address
                            request.is_write = is_write
                            request.arrival_cycle = issue_cycle
                            request.request_id = next(request_ids)
                        else:
                            request = MemoryRequest(core_id, address,
                                                    is_write, issue_cycle)
                        heappush(events, (issue_cycle, seq,
                                          _REQUEST_ARRIVAL, request))
                        seq += 1
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
                         write_latencies, row_of, resolve,
                         fill) = chan_ctx[ci]
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
                                    if row_of is None:
                                        for cand in candidates:
                                            if cand.decoded.row \
                                                    == open_row:
                                                request = cand
                                                break
                                    else:
                                        for cand in candidates:
                                            if row_of(cand) == open_row:
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
                            # Service: the mechanism resolves the
                            # target row (direct access serves the
                            # decoded row), then Channel.access /
                            # Bank.access / Bank._activate run on it
                            # (KEEP IN SYNC with those, with
                            # CachingMechanism.service, and with the
                            # completion bookkeeping of
                            # _try_schedule_bank).
                            decoded = request.decoded
                            if resolve is None:
                                row = decoded.row
                                cache_hit = None
                            else:
                                row, cache_hit = resolve(
                                    channel, decoded, flat_bank, is_write)
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
                            if cache_hit is False:
                                # The miss tail starts when the access
                                # data is back.  Its relocation work may
                                # push the bank's busy window past the
                                # access, so re-read its readiness
                                # (inline Bank.ready_for_next) for the
                                # wake scheduled below.
                                fill(channel, completion, decoded,
                                     flat_bank, is_write)
                                busy = bank._busy_until
                                nca = bank._next_col_allowed
                                ready_at = busy if busy > nca else nca
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
                # Completion delivery (see Simulator._run) plus request
                # pooling: reads are recycled right after their notify,
                # writes immediately — nothing retains them.
                for request in completed:
                    if not request.is_write:
                        core = cores[request.core_id]
                        completion_cycle = request.completion_cycle
                        if core.notify_completion(request.address,
                                                  completion_cycle):
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
