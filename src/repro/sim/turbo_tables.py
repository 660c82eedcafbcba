"""Precompiled flat timing tables for the turbo simulation backend.

The reference timing model (:mod:`repro.dram.bank`) reads its constants
through :class:`~repro.dram.timings.TimingSet` attributes and per-bank
hoisted tuples.  The turbo backend's fused service path instead indexes a
:class:`ChannelTables` record compiled once per device organization: every
per-access timing decision becomes one integer-indexed load from a flat
tuple, with the speed class (slow/fast region) and the direction
(read/write) folded into the index.

Table layout (all entries are integer CPU cycles):

* ``col[(is_write << 1) | served_fast]`` → ``(data_latency, tbl, tccd,
  t_a, t_b)``.  For reads ``t_a`` is tRTP and ``t_b`` is unused (0); for
  writes ``t_a`` is tWTR and ``t_b`` is tWR.  The asymmetric tails are
  padded so both directions unpack identically.
* ``act[served_fast]`` → ``(trcd, tras)`` for the ACTIVATE of a row in
  that speed class.
* ``trp[speed_class]`` → precharge latency of the *open* row's class
  (conflicts pay the open row's tRP, not the new row's).

Rank-pacing scalars (tRRD, tFAW, and the bank-group tCCD_S/L and tRRD_L
splits with their gating flags) are carried alongside so the fused path
sees the exact same pacing rules as :meth:`Bank._activate` and the
column-pacing block of :meth:`Bank.access` — including the flags that
keep non-bank-grouped standards (the DDR4-1600 Table 1 device, LPDDR4)
on the historical ungated path.  KEEP the derivations IN SYNC with
``Bank.__init__``; the cross-backend parity suite (``tests/test_backend``)
and the golden fixtures enforce the equivalence across all six standards.

Tables are cached by their timing/layout content — two channels (or two
simulations) built from the same :class:`~repro.dram.standards.DeviceProfile`
share one compiled record.  ``TimingSet`` is a frozen dataclass, hence
hashable, which is what makes the content key cheap.

This module is deliberately free of hot-loop state: it is plain data
compiled from frozen inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.channel import Channel
from repro.dram.config import DRAMConfig
from repro.dram.timings import TimingSet


@dataclass(frozen=True)
class ChannelTables:
    """Flat int-indexed timing tables for one DRAM organization."""

    #: ``col[(is_write << 1) | served_fast]`` → 5-tuple (see module doc).
    col: tuple[tuple[int, int, int, int, int], ...]
    #: ``act[served_fast]`` → ``(trcd, tras)``.
    act: tuple[tuple[int, int], ...]
    #: ``trp[speed_class]`` → tRP of a row in that class.
    trp: tuple[int, int]
    #: Rank-wide ACTIVATE pacing (from the slow/rank timing set).
    trrd: int
    tfaw: int
    #: Bank-group column pacing: gate flag plus the tCCD_L/tCCD_S split.
    col_pacing: bool
    tccd_l: int
    tccd_s: int
    #: Bank-group ACTIVATE pacing: gate flag plus tRRD_L.
    act_bg_pacing: bool
    trrd_l: int
    #: Fast-region predicate inputs (``served_fast = all_fast or
    #: row >= regular_rows``).
    all_fast: bool
    regular_rows: int


#: Compiled tables keyed by timing/layout content; see :func:`compile_tables`.
_TABLE_CACHE: dict[tuple, ChannelTables] = {}


def compile_tables(config: DRAMConfig) -> ChannelTables:
    """Compile (or fetch the cached) tables for one DRAM organization."""
    slow = config.slow_timing_set()
    fast = config.fast_timing_set()
    key = (slow, fast, config.all_subarrays_fast,
           config.regular_rows_per_bank)
    tables = _TABLE_CACHE.get(key)
    if tables is not None:
        return tables

    sets: tuple[TimingSet, TimingSet] = (slow, fast)
    col = tuple(
        [(t.tcl, t.tbl, t.tccd, t.trtp, 0) for t in sets]      # reads
        + [(t.tcwl, t.tbl, t.tccd, t.twtr, t.twr) for t in sets]  # writes
    )
    act = tuple((t.trcd, t.tras) for t in sets)
    # Rank pacing uses the slow set (ranks are built from it; see
    # Channel.__init__), exactly as Bank.__init__ hoists it.
    tables = ChannelTables(
        col=col,
        act=act,
        trp=(slow.trp, fast.trp),
        trrd=slow.trrd,
        tfaw=slow.tfaw,
        col_pacing=slow.tccd_s < slow.tccd,
        tccd_l=slow.tccd,
        tccd_s=slow.tccd_s,
        act_bg_pacing=slow.trrd_l > slow.trrd,
        trrd_l=slow.trrd_l,
        all_fast=config.all_subarrays_fast,
        regular_rows=config.regular_rows_per_bank,
    )
    _TABLE_CACHE[key] = tables
    return tables


def tables_for_channel(channel: Channel) -> ChannelTables:
    """The compiled timing tables for ``channel``'s organization."""
    return compile_tables(channel.config)
