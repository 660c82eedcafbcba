"""LISA-VILLA: the state-of-the-art in-DRAM cache baseline.

LISA-VILLA (Chang et al., HPCA 2016) caches *entire DRAM rows* in fast
subarrays, relocating rows between subarrays over wide inter-subarray links.
The relocation latency is distance dependent: a row must be moved hop by hop
through the local row buffers of the subarrays between the source and the
destination.  To bound that distance, LISA-VILLA interleaves many fast
subarrays (16 per bank in the paper's comparison) among the slow subarrays.

This reproduction models LISA-VILLA with the following behaviour, matching
how the paper characterises it (Sections 3 and 8):

* caching granularity is a full DRAM row;
* the in-DRAM cache has 512 rows per bank (16 fast subarrays x 32 rows);
* a cached row is served with fast-subarray timings, but its row-buffer
  locality is unchanged (the cached row holds exactly the original row);
* relocation cost grows with the hop distance between the source subarray
  and its nearest fast subarray;
* replacement is benefit based at row granularity, insertion is on-miss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mechanism import CachingMechanism
from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel
from repro.dram.config import DRAMConfig


@dataclass(frozen=True)
class LISAVillaConfig:
    """Configuration of the LISA-VILLA baseline."""

    #: In-DRAM cache rows per bank (16 fast subarrays x 32 rows each).
    cache_rows_per_bank: int = 512
    #: Number of fast subarrays interleaved in each bank.
    fast_subarrays_per_bank: int = 16
    #: Latency of moving a row buffer one subarray hop over the LISA links.
    hop_latency_ns: float = 8.0
    #: Benefit counter width (same 5-bit counters as FIGCache).
    benefit_bits: int = 5

    def validate(self, dram: DRAMConfig) -> None:
        """Check that the DRAM device provides the required fast rows."""
        if dram.fast_rows_per_bank < self.cache_rows_per_bank:
            raise ValueError(
                f"LISA-VILLA needs {self.cache_rows_per_bank} fast rows per "
                f"bank but the DRAM configuration provides "
                f"{dram.fast_rows_per_bank}")


@dataclass(slots=True)
class _RowEntry:
    """Tag-store entry for one cached row."""

    cache_slot: int
    source_row: int
    dirty: bool = False
    benefit: int = 0


@dataclass(slots=True)
class _BankState:
    """Per-bank cache state for LISA-VILLA."""

    #: Map from source row to its tag entry.
    entries: dict[int, _RowEntry]
    #: Cache slots (0 .. cache_rows_per_bank - 1) not currently used.
    free_slots: list[int]
    #: Reverse map from cache slot to source row.
    slot_to_row: dict[int, int]


class LISAVillaMechanism(CachingMechanism):
    """Row-granularity in-DRAM cache with distance-dependent relocation."""

    name = "LISA-VILLA"

    def __init__(self, dram_config: DRAMConfig,
                 config: LISAVillaConfig | None = None):
        super().__init__()
        self._dram = dram_config
        self._cfg = config or LISAVillaConfig()
        self._cfg.validate(dram_config)
        self._benefit_max = (1 << self._cfg.benefit_bits) - 1
        self._hop_cycles = dram_config.slow_timing_set().cycles(
            self._cfg.hop_latency_ns)
        # Hot-path constants: the first fast-region row id (cache slot ``s``
        # lives at row ``base + s``), the rows per regular subarray, and the
        # hop distance per regular subarray (see :meth:`hop_distance`),
        # precomputed so insertions do no per-call layout arithmetic.
        self._fast_row_base = dram_config.regular_rows_per_bank
        self._rows_per_subarray = dram_config.rows_per_subarray
        period = max(1, dram_config.subarrays_per_bank
                     // self._cfg.fast_subarrays_per_bank)
        self._hops_by_subarray = [
            min(period - (subarray % period), (subarray % period) + 1)
            for subarray in range(dram_config.subarrays_per_bank)]
        #: Per-bank states, eagerly built at system-assembly time.
        self._banks: dict[int, _BankState] = {
            flat_bank: _BankState(
                entries={},
                free_slots=list(range(self._cfg.cache_rows_per_bank)),
                slot_to_row={})
            for flat_bank in range(dram_config.banks_per_channel)}

    # ------------------------------------------------------------------
    # Configuration accessors.
    # ------------------------------------------------------------------
    @property
    def config(self) -> LISAVillaConfig:
        """The LISA-VILLA configuration."""
        return self._cfg

    def hop_distance(self, source_row: int) -> int:
        """Hops between the source row's subarray and its nearest fast subarray.

        The paper's LISA-VILLA interleaves ``fast_subarrays_per_bank`` fast
        subarrays evenly among the regular subarrays, so the worst-case
        distance is half the interleaving period and the average is a
        quarter of it.  The modelled physical layout places one fast subarray
        after every ``subarrays_per_bank / fast_subarrays_per_bank`` regular
        subarrays.
        """
        period = max(1, self._dram.subarrays_per_bank
                     // self._cfg.fast_subarrays_per_bank)
        subarray = self._dram.subarray_of_row(source_row)
        position = subarray % period
        # Distance to the fast subarray at the end of this group, or the one
        # at the end of the previous group, whichever is closer.
        to_next = period - position
        to_previous = position + 1
        return min(to_next, to_previous)

    def relocation_transfer_cycles(self, source_row: int) -> int:
        """Transfer cycles for relocating a full row from ``source_row``."""
        if source_row < self._fast_row_base:
            hops = self._hops_by_subarray[source_row
                                          // self._rows_per_subarray]
            return hops * self._hop_cycles
        return self.hop_distance(source_row) * self._hop_cycles

    # ------------------------------------------------------------------
    # CachingMechanism interface.
    # ------------------------------------------------------------------
    def effective_row(self, channel: Channel, decoded: DecodedAddress,
                      flat_bank: int) -> int:
        state = self._banks.get(flat_bank)
        if state is None:
            state = self._bank_state(flat_bank)
        row = decoded.row
        entry = state.entries.get(row)
        if entry is None:
            return row
        if not entry.dirty and channel.bank(flat_bank).open_row == row:
            # The original row is still open and the cached copy is clean;
            # serving from the open row is a row hit (same optimization as
            # FIGCache's row-buffer-aware redirection, applied for fairness).
            return row
        return self._fast_row_base + entry.cache_slot

    def resolve(self, channel: Channel, decoded: DecodedAddress,
                flat_bank: int, is_write: bool) -> tuple[int, bool]:
        state = self._banks.get(flat_bank)
        if state is None:
            state = self._bank_state(flat_bank)
        self.stats.cache_lookups += 1
        row = decoded.row
        entry = state.entries.get(row)
        if entry is None:
            return row, False
        self.stats.cache_hits += 1
        if entry.benefit < self._benefit_max:
            entry.benefit += 1
        if is_write:
            entry.dirty = True
        # Same source-row preference as effective_row; a write hit always
        # goes to the cache row, whose copy it dirties.
        elif not entry.dirty and channel.bank(flat_bank).open_row == row:
            return row, True
        return self._fast_row_base + entry.cache_slot, True

    def fill(self, channel: Channel, now: int, decoded: DecodedAddress,
             flat_bank: int, is_write: bool) -> int:
        """Insert-on-miss: relocate the whole row into the cache."""
        return self._insert_row(channel, now, flat_bank,
                                self._banks[flat_bank], decoded.row,
                                dirty=is_write)

    # ------------------------------------------------------------------
    # Cache management.
    # ------------------------------------------------------------------
    def _insert_row(self, channel: Channel, now: int, flat_bank: int,
                    state: _BankState, source_row: int, dirty: bool) -> int:
        """Relocate a full row into the cache; returns relocation cycles."""
        relocation_cycles = 0
        current = now

        if state.free_slots:
            slot = state.free_slots.pop()
        else:
            slot, writeback_cycles, current = self._evict_row(
                channel, current, flat_bank, state)
            relocation_cycles += writeback_cycles

        transfer = self.relocation_transfer_cycles(source_row)
        outcome = channel.bulk_relocate(current, flat_bank, source_row,
                                        self._dram.fast_region_row(slot),
                                        transfer, keep_source_open=True)
        relocation_cycles += outcome.completion_cycle - outcome.start_cycle
        self.stats.relocation_operations += 1
        self.stats.relocation_cycles += relocation_cycles
        self.stats.insertions += 1

        state.entries[source_row] = _RowEntry(cache_slot=slot,
                                              source_row=source_row,
                                              dirty=dirty, benefit=1)
        state.slot_to_row[slot] = source_row
        if self.tracer is not None:
            self.tracer.mechanism_event(
                outcome.completion_cycle, channel.channel_id, flat_bank,
                "villa-insert",
                {"source_row": source_row, "slot": slot, "dirty": dirty,
                 "hops": transfer // self._hop_cycles
                         if self._hop_cycles else 0,
                 "relocation_cycles": relocation_cycles})
        return relocation_cycles

    def _evict_row(self, channel: Channel, now: int, flat_bank: int,
                   state: _BankState) -> tuple[int, int, int]:
        """Evict the lowest-benefit cached row; returns (slot, cycles, time)."""
        # Manual argmin over (benefit, cache_slot): this scan runs once per
        # eviction over every cached row, and a key-lambda ``min`` costs a
        # call plus a tuple per entry.
        victim_row = None
        best_benefit = best_slot = 0
        for entry in state.entries.values():
            benefit = entry.benefit
            if victim_row is None or benefit < best_benefit \
                    or (benefit == best_benefit
                        and entry.cache_slot < best_slot):
                victim_row = entry
                best_benefit = benefit
                best_slot = entry.cache_slot
        slot = victim_row.cache_slot
        del state.entries[victim_row.source_row]
        del state.slot_to_row[slot]
        self.stats.evictions += 1

        writeback_cycles = 0
        current = now
        if victim_row.dirty:
            transfer = self.relocation_transfer_cycles(victim_row.source_row)
            outcome = channel.bulk_relocate(
                current, flat_bank, self._dram.fast_region_row(slot),
                victim_row.source_row, transfer)
            writeback_cycles = outcome.completion_cycle - outcome.start_cycle
            current = outcome.completion_cycle
            self.stats.relocation_operations += 1
            self.stats.dirty_writebacks += 1
        if self.tracer is not None:
            self.tracer.mechanism_event(
                current, channel.channel_id, flat_bank, "villa-evict",
                {"source_row": victim_row.source_row, "slot": slot,
                 "dirty": victim_row.dirty,
                 "writeback_cycles": writeback_cycles})
        return slot, writeback_cycles, current

    def _bank_state(self, flat_bank: int) -> _BankState:
        state = self._banks.get(flat_bank)
        if state is None:
            state = _BankState(entries={},
                               free_slots=list(
                                   range(self._cfg.cache_rows_per_bank)),
                               slot_to_row={})
            self._banks[flat_bank] = state
        return state
