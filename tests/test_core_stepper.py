"""Tests for the trace core's plan stepper and the end-of-run checks.

Both backends step cores with :meth:`TraceCore.run_requests`, so the
cross-backend parity suite cannot catch a stepper bug.
:class:`TestPerRecordOracle` can: a short per-record core written here,
sharing no code with ``repro.cpu.core``, must issue the same requests in
the same order and end with the same statistics on drawn traces and core
configurations.

Also pins two faults that would otherwise end a run early with a
plausible-looking result: an MSHR file whose block size disagrees with
the completion match, and a core left waiting when the event queue
drains.
"""

import dataclasses
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BaseMechanism
from repro.controller import MemoryController
from repro.cpu import (CacheConfig, CacheHierarchy, CoreConfig, CoreStats,
                       HierarchyConfig, TraceCore)
from repro.dram import DRAMConfig, DRAMDevice
from repro.sim.backend import resolve_backend
from repro.sim.config import make_system_config
from repro.sim.system import run_workload
from repro.workloads.trace import TraceRecord

BACKENDS = ("python", "turbo")


def _hierarchy(block: int) -> HierarchyConfig:
    """A tiny three-level hierarchy: every level evicts within a few
    dozen distinct blocks, so drawn traces hit, miss and write back."""
    return HierarchyConfig(
        l1=CacheConfig(size_bytes=4 * block, associativity=2,
                       block_size_bytes=block, hit_latency_cycles=0),
        l2=CacheConfig(size_bytes=8 * block, associativity=2,
                       block_size_bytes=block, hit_latency_cycles=3),
        llc=CacheConfig(size_bytes=16 * block, associativity=4,
                        block_size_bytes=block, hit_latency_cycles=8))


class _PerRecordCore:
    """Reference core: one record at a time through its own hierarchy."""

    def __init__(self, trace: list[TraceRecord], config: CoreConfig):
        self.trace = trace
        self.config = config
        self.hierarchy = CacheHierarchy(config.hierarchy)
        self.block_bits = \
            config.hierarchy.l1.block_size_bytes.bit_length() - 1
        self.stats = CoreStats()
        self.next_record = 0
        self.core_cycle = 0
        self.issued = 0
        self.mshrs: dict[int, int] = {}
        self.allocations = 0
        self.merges = 0
        #: [block, instruction position, blocks the window] per load miss.
        self.outstanding: list[tuple[int, int, bool]] = []
        self.finished = False

    def _stalled(self) -> bool:
        if len(self.mshrs) >= self.config.mshr_entries:
            return True
        if not self.outstanding:
            return False
        _, position, blocks_window = self.outstanding[0]
        return blocks_window \
            and self.issued - position >= self.config.window_size

    def _retire_if_done(self) -> None:
        if self.next_record == len(self.trace) and not self.outstanding:
            self.finished = True
            self.stats.finish_cycle = self.core_cycle

    def run_requests(self, now: int) -> list[tuple[int, int, bool]]:
        if self.finished:
            return []
        self.core_cycle = max(self.core_cycle, now)
        requests = []
        while self.next_record < len(self.trace) and not self._stalled():
            record = self.trace[self.next_record]
            self.next_record += 1
            width = self.config.issue_width
            self.core_cycle += max(-(-record.instructions // width), 1)
            self.issued += record.instructions
            self.stats.instructions += record.instructions
            self.stats.memory_instructions += 1
            access = self.hierarchy.access(record.address, record.is_write)
            self.core_cycle += access.exposed_latency
            for address in access.writebacks:
                self.stats.writebacks += 1
                requests.append((self.core_cycle, address, True))
            if not access.needs_memory:
                continue
            if record.is_write:
                self.stats.llc_miss_stores += 1
            else:
                self.stats.llc_miss_loads += 1
            block = record.address >> self.block_bits
            if block in self.mshrs:
                self.mshrs[block] += 1
                self.merges += 1
                if not record.is_write:
                    self.outstanding.append((block, self.issued, True))
            else:
                self.mshrs[block] = 1
                self.allocations += 1
                requests.append((self.core_cycle, record.address, False))
                self.outstanding.append((block, self.issued,
                                         not record.is_write))
        self._retire_if_done()
        return requests

    def notify_completion(self, address: int, cycle: int) -> bool:
        block = address >> self.block_bits
        if all(miss[0] != block for miss in self.outstanding):
            return False
        mshrs_were_full = len(self.mshrs) >= self.config.mshr_entries
        self.outstanding = [miss for miss in self.outstanding
                            if miss[0] != block]
        del self.mshrs[block]
        can_progress = not self._stalled()
        if can_progress and cycle > self.core_cycle:
            if mshrs_were_full:
                self.stats.stall_cycles_mshr += cycle - self.core_cycle
            else:
                self.stats.stall_cycles_window += cycle - self.core_cycle
            self.core_cycle = cycle
        self._retire_if_done()
        return can_progress and not self.finished


def _drive(core, latency: int, jitter: int) -> list[tuple]:
    """Run ``core`` to the end against a fixed-latency memory.

    A read issued at cycle ``c`` completes at ``c + latency`` plus an
    address-dependent jitter, so completions can return out of order.
    Returns the log of issued requests and completions, in order.
    """
    log = []
    events = [(0, 0, "run", None)]
    seq = 1
    while events:
        cycle, _, kind, address = heapq.heappop(events)
        if kind == "run":
            for issue_cycle, request_address, is_write in \
                    core.run_requests(cycle):
                log.append(("issue", issue_cycle, request_address, is_write))
                if not is_write:
                    done = issue_cycle + latency \
                        + (request_address >> 5) % (jitter + 1)
                    heapq.heappush(events, (done, seq, "done",
                                            request_address))
                    seq += 1
        else:
            progress = core.notify_completion(address, cycle)
            log.append(("done", cycle, address, progress))
            if progress:
                heapq.heappush(events, (cycle, seq, "run", None))
                seq += 1
    return log


def _level_counters(hierarchy) -> list[tuple[int, int, int]]:
    return [(level.hits, level.misses, level.writebacks)
            for level in (hierarchy.l1, hierarchy.l2, hierarchy.llc)]


_records = st.builds(
    TraceRecord,
    bubbles=st.one_of(st.just(0), st.integers(0, 9)),
    # 64 B lines from a few hot ones (hits, MSHR merges) or a wider pool
    # (evictions, dirty writebacks), at any byte offset, so 32 B-block
    # hierarchies see two L1 blocks per line.
    address=st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 47)),
                      st.integers(0, 63)).map(
        lambda pair: pair[0] * 64 + pair[1]),
    is_write=st.booleans())

_core_configs = st.builds(
    CoreConfig,
    issue_width=st.integers(1, 4),
    window_size=st.one_of(st.integers(1, 8), st.integers(1, 64)),
    mshr_entries=st.integers(1, 6),
    hierarchy=st.sampled_from((_hierarchy(32), _hierarchy(64),
                               HierarchyConfig())))


class TestPerRecordOracle:
    @settings(max_examples=300, deadline=None)
    @given(trace=st.lists(_records, max_size=60), config=_core_configs,
           latency=st.integers(1, 60), jitter=st.integers(0, 40))
    def test_plan_stepper_matches_per_record_loop(self, trace, config,
                                                  latency, jitter):
        core = TraceCore(0, trace, config)
        oracle = _PerRecordCore(trace, config)
        assert _drive(core, latency, jitter) == \
            _drive(oracle, latency, jitter)
        assert core.finished and oracle.finished
        assert dataclasses.asdict(core.stats) == \
            dataclasses.asdict(oracle.stats)
        assert core.core_cycle == oracle.core_cycle
        assert (core.mshrs.allocations, core.mshrs.merges) == \
            (oracle.allocations, oracle.merges)
        assert _level_counters(core.hierarchy) == \
            _level_counters(oracle.hierarchy)


class TestMshrBlockSize:
    """One block size drives the MSHR merge and the completion match."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_32_byte_blocks_complete_every_load(self, backend):
        # With 64 B MSHR blocks the load to 0x20 merged into 0x0's entry,
        # 0x0's completion freed it, and the merged load never completed.
        core = CoreConfig(hierarchy=HierarchyConfig(
            l1=CacheConfig(size_bytes=16 * 1024, associativity=4,
                           block_size_bytes=32),
            l2=CacheConfig(size_bytes=64 * 1024, associativity=8,
                           block_size_bytes=32, hit_latency_cycles=3),
            llc=CacheConfig(size_bytes=256 * 1024, associativity=16,
                            block_size_bytes=32, hit_latency_cycles=8)))
        config = make_system_config("Base", channels=1, core=core,
                                    backend=backend)
        trace = [TraceRecord(bubbles=0, address=address, is_write=False)
                 for address in (0x0, 0x20, 0x10000)]
        result = run_workload(config, [trace], "mshr-32b")
        assert result.cores[0].instructions == 3
        assert result.cores[0].llc_misses == 3
        # Three DRAM reads take far longer than one cycle.
        assert result.total_cycles > 50


class _DeafCore(TraceCore):
    """A core that ignores every completion, so it can never finish."""

    __slots__ = ()

    def notify_completion(self, address: int, completion_cycle: int) -> bool:
        return False


class TestStuckCore:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drained_queue_with_unfinished_core_raises(self, backend):
        config = DRAMConfig(channels=1)
        device = DRAMDevice(config, refresh_enabled=False)
        controller = MemoryController(device, [BaseMechanism()])
        trace = [TraceRecord(bubbles=0, address=0x1000, is_write=False)]
        cores = [TraceCore(0, trace), _DeafCore(1, trace)]
        simulator = resolve_backend(backend).create(cores, controller)
        with pytest.raises(RuntimeError, match=r"core\(s\) \[1\]"):
            simulator.run()
