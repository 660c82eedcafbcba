"""Set-associative cache model.

A straightforward write-back, write-allocate, LRU cache used for the L1, L2,
and last-level caches of the simulated cores.  Only hit/miss behaviour and
dirty evictions are modelled — the data itself never exists, because the
simulator only needs addresses and timing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    #: Total capacity in bytes.
    size_bytes: int
    #: Associativity (ways per set).
    associativity: int
    #: Cache block size in bytes.
    block_size_bytes: int = 64
    #: Access latency in CPU cycles charged on a hit at this level.
    hit_latency_cycles: int = 0

    @property
    def num_blocks(self) -> int:
        """Total number of blocks the cache can hold."""
        return self.size_bytes // self.block_size_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return max(1, self.num_blocks // self.associativity)

    def validate(self) -> None:
        """Raise ``ValueError`` for impossible geometries."""
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache size and associativity must be positive")
        if self.block_size_bytes <= 0 or \
                self.block_size_bytes & (self.block_size_bytes - 1):
            raise ValueError("block size must be a positive power of two")
        if self.size_bytes % (self.associativity * self.block_size_bytes):
            raise ValueError(
                "cache size must be a multiple of associativity x block size")


@dataclass(frozen=True, slots=True)
class CacheAccessResult:
    """Outcome of one cache access.

    Frozen so the shared hit/clean-miss singletons below cannot be
    corrupted by a caller; fresh instances are only built on the rare
    dirty-writeback miss, where the frozen-init cost is irrelevant.
    """

    hit: bool
    #: Block-aligned address of a dirty block evicted by this access, if any.
    writeback_address: int | None = None


#: Shared results for the two outcomes that carry no per-access data (every
#: hit, and every miss without a dirty eviction).  Callers treat access
#: results as read-only, so one instance each serves the whole simulation
#: instead of allocating an object per cache lookup.
_HIT = CacheAccessResult(hit=True)
_CLEAN_MISS = CacheAccessResult(hit=False)

#: Sentinel distinguishing "absent" from a stored False dirty flag.
_ABSENT = object()


class SetAssociativeCache:
    """Write-back, write-allocate, LRU set-associative cache."""

    __slots__ = ('_config', '_offset_bits', '_num_sets', '_associativity',
                 '_set_mask', '_sets', 'hits', 'misses', 'writebacks')

    def __init__(self, config: CacheConfig):
        config.validate()
        self._config = config
        self._offset_bits = config.block_size_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        #: Bit mask for the set index when the set count is a power of two
        #: (an AND is cheaper than the general modulo), else None.
        self._set_mask = self._num_sets - 1 \
            if self._num_sets & (self._num_sets - 1) == 0 else None
        # Each set is a plain dict mapping block tag -> dirty flag, ordered
        # from least to most recently used.  Plain dicts preserve insertion
        # order and their pop/reinsert (LRU bump) and first-key eviction are
        # measurably faster than OrderedDict's linked-list maintenance on
        # this, the single hottest call site of the CPU model.
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def config(self) -> CacheConfig:
        """Cache geometry and latency."""
        return self._config

    def _locate(self, address: int) -> tuple[int, int]:
        block = address >> self._offset_bits
        return block % self._num_sets, block

    def access(self, address: int, is_write: bool) -> CacheAccessResult:
        """Look up (and on a miss, allocate) the block holding ``address``.

        The returned result is shared for hits and clean misses — treat it
        as read-only.  KEEP IN SYNC with the fused per-level copies in
        :meth:`repro.cpu.hierarchy.CacheHierarchy.access`, which inline
        this algorithm for L1/L2/LLC on the full-miss hot path.
        """
        block = address >> self._offset_bits
        set_mask = self._set_mask
        cache_set = self._sets[block & set_mask if set_mask is not None
                               else block % self._num_sets]
        dirty = cache_set.get(block, _ABSENT)
        if dirty is not _ABSENT:
            self.hits += 1
            # LRU bump: skip the pop/reinsert when the block is already the
            # most recently used (assignment to an existing key does not
            # change dict order, so the dirty update stays in place).
            if next(reversed(cache_set)) == block:
                if is_write and not dirty:
                    cache_set[block] = True
            else:
                del cache_set[block]
                cache_set[block] = dirty or is_write
            return _HIT

        self.misses += 1
        writeback: int | None = None
        if len(cache_set) >= self._associativity:
            victim_block = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_block)
            if victim_dirty:
                self.writebacks += 1
                writeback = victim_block << self._offset_bits
        cache_set[block] = is_write
        if writeback is None:
            return _CLEAN_MISS
        return CacheAccessResult(hit=False, writeback_address=writeback)

    def contains(self, address: int) -> bool:
        """Return True when the block holding ``address`` is resident."""
        set_index, block = self._locate(address)
        return block in self._sets[set_index]

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def occupancy(self) -> int:
        """Number of resident blocks."""
        return sum(len(cache_set) for cache_set in self._sets)
