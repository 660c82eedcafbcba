"""Per-core cache hierarchy (L1 / L2 / LLC).

The hierarchy filters the core's memory instructions: only LLC misses and
dirty LLC writebacks reach the memory controller.  Latency at each level is
charged to the core as a (small) exposed hit cost; out-of-order execution is
assumed to hide the rest, which is the usual first-order approximation for
trace-driven memory-system studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.cache import CacheConfig, SetAssociativeCache
from repro.cpu.cache import _ABSENT


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache hierarchy configuration.

    The paper's Table 1 uses a 64 kB 4-way L1, a 256 kB 8-way L2, and a
    2 MB/core 16-way LLC.  The reproduction's default scales each level down
    (the synthetic traces are correspondingly smaller than the paper's
    billion-instruction traces); the paper-sized hierarchy is available via
    :meth:`paper_table1`.
    """

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=16 * 1024, associativity=4, hit_latency_cycles=0))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024, associativity=8, hit_latency_cycles=3))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8))

    @classmethod
    def paper_table1(cls) -> "HierarchyConfig":
        """The paper's full-size per-core hierarchy."""
        return cls(
            l1=CacheConfig(size_bytes=64 * 1024, associativity=4,
                           hit_latency_cycles=0),
            l2=CacheConfig(size_bytes=256 * 1024, associativity=8,
                           hit_latency_cycles=3),
            llc=CacheConfig(size_bytes=2 * 1024 * 1024, associativity=16,
                            hit_latency_cycles=8),
        )


@dataclass(frozen=True, slots=True)
class HierarchyAccess:
    """Outcome of pushing one memory instruction through the hierarchy.

    Immutable — the hierarchy returns shared instances for the common
    no-writeback outcomes.
    """

    #: Level that served the access: ``L1``, ``L2``, ``LLC``, or ``memory``.
    level: str
    #: Exposed latency charged to the core for cache hits (cycles).
    exposed_latency: int
    #: True when a request must be sent to the memory controller.
    needs_memory: bool
    #: Block-aligned addresses of dirty LLC blocks evicted by this access.
    writebacks: tuple[int, ...] = ()


class CacheHierarchy:
    """Three-level private cache hierarchy for one core."""

    __slots__ = ('_config', 'l1', 'l2', 'llc', 'accesses', 'llc_misses',
                 '_l1_hit', '_l2_hit', '_llc_hit', '_memory_miss')

    def __init__(self, config: HierarchyConfig | None = None):
        self._config = config or HierarchyConfig()
        self.l1 = SetAssociativeCache(self._config.l1)
        self.l2 = SetAssociativeCache(self._config.l2)
        self.llc = SetAssociativeCache(self._config.llc)
        self.accesses = 0
        self.llc_misses = 0
        # Shared results for the writeback-free outcomes (the vast majority
        # of accesses): one immutable instance per (level, latency) pair.
        config = self._config
        self._l1_hit = HierarchyAccess(
            level="L1", exposed_latency=config.l1.hit_latency_cycles,
            needs_memory=False)
        self._l2_hit = HierarchyAccess(
            level="L2", exposed_latency=config.l2.hit_latency_cycles,
            needs_memory=False)
        self._llc_hit = HierarchyAccess(
            level="LLC", exposed_latency=config.llc.hit_latency_cycles,
            needs_memory=False)
        self._memory_miss = HierarchyAccess(
            level="memory", exposed_latency=config.llc.hit_latency_cycles,
            needs_memory=True)

    @property
    def config(self) -> HierarchyConfig:
        """The hierarchy configuration."""
        return self._config

    def access(self, address: int, is_write: bool) -> HierarchyAccess:
        """Push one memory instruction through L1, L2, and the LLC.

        The three per-level lookups are fused into one function: the
        synthetic traces are dominated by full misses, so the common path
        pays all three, and a ``SetAssociativeCache.access`` call per level
        is the single largest per-record cost of the core model.  Each
        level's inline block mirrors ``SetAssociativeCache.access``
        exactly; victim fills between levels still go through
        :meth:`_fill_lower` (dirty victims only, a minority of misses).
        """
        self.accesses += 1

        # --- L1 -----------------------------------------------------------
        l1 = self.l1
        offset_bits = l1._offset_bits
        block = address >> offset_bits
        mask = l1._set_mask
        cache_set = l1._sets[block & mask if mask is not None
                             else block % l1._num_sets]
        dirty = cache_set.get(block, _ABSENT)
        if dirty is not _ABSENT:
            l1.hits += 1
            if next(reversed(cache_set)) == block:
                if is_write and not dirty:
                    cache_set[block] = True
            else:
                del cache_set[block]
                cache_set[block] = dirty or is_write
            return self._l1_hit
        l1.misses += 1
        l1_writeback = None
        if len(cache_set) >= l1._associativity:
            victim_block = next(iter(cache_set))
            if cache_set.pop(victim_block):
                l1.writebacks += 1
                l1_writeback = victim_block << offset_bits
        cache_set[block] = is_write

        # L1 victim writebacks are absorbed by L2 (modelled as L2 writes).
        writebacks: list[int] = []
        if l1_writeback is not None:
            self._fill_lower(self.l2, l1_writeback, dirty=True,
                             writebacks=writebacks)

        # --- L2 -----------------------------------------------------------
        l2 = self.l2
        offset_bits = l2._offset_bits
        block = address >> offset_bits
        mask = l2._set_mask
        cache_set = l2._sets[block & mask if mask is not None
                             else block % l2._num_sets]
        dirty = cache_set.get(block, _ABSENT)
        if dirty is not _ABSENT:
            l2.hits += 1
            if next(reversed(cache_set)) == block:
                if is_write and not dirty:
                    cache_set[block] = True
            else:
                del cache_set[block]
                cache_set[block] = dirty or is_write
            # Writebacks triggered by the L1-victim fill are absorbed here,
            # matching the original model: an L2 hit never surfaces them.
            return self._l2_hit
        l2.misses += 1
        l2_writeback = None
        if len(cache_set) >= l2._associativity:
            victim_block = next(iter(cache_set))
            if cache_set.pop(victim_block):
                l2.writebacks += 1
                l2_writeback = victim_block << offset_bits
        cache_set[block] = is_write
        if l2_writeback is not None:
            self._fill_lower(self.llc, l2_writeback, dirty=True,
                             writebacks=writebacks)

        # --- LLC ----------------------------------------------------------
        llc = self.llc
        offset_bits = llc._offset_bits
        block = address >> offset_bits
        mask = llc._set_mask
        cache_set = llc._sets[block & mask if mask is not None
                              else block % llc._num_sets]
        dirty = cache_set.get(block, _ABSENT)
        if dirty is not _ABSENT:
            llc.hits += 1
            if next(reversed(cache_set)) == block:
                if is_write and not dirty:
                    cache_set[block] = True
            else:
                del cache_set[block]
                cache_set[block] = dirty or is_write
            if not writebacks:
                return self._llc_hit
            return HierarchyAccess(
                level="LLC",
                exposed_latency=self._config.llc.hit_latency_cycles,
                needs_memory=False, writebacks=tuple(writebacks))
        llc.misses += 1
        if len(cache_set) >= llc._associativity:
            victim_block = next(iter(cache_set))
            if cache_set.pop(victim_block):
                llc.writebacks += 1
                writebacks.append(victim_block << offset_bits)
        cache_set[block] = is_write

        self.llc_misses += 1
        if not writebacks:
            return self._memory_miss
        return HierarchyAccess(
            level="memory",
            exposed_latency=self._config.llc.hit_latency_cycles,
            needs_memory=True, writebacks=tuple(writebacks))

    def _fill_lower(self, cache: SetAssociativeCache, address: int,
                    dirty: bool, writebacks: list[int]) -> None:
        """Install a victim block into the next lower level."""
        result = cache.access(address, dirty)
        if result.writeback_address is not None:
            if cache is self.l2:
                self._fill_lower(self.llc, result.writeback_address,
                                 dirty=True, writebacks=writebacks)
            else:
                writebacks.append(result.writeback_address)
