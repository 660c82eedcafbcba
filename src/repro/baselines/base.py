"""Base configuration: conventional DDR4 with no in-DRAM cache."""

from __future__ import annotations

from repro.core.mechanism import CachingMechanism
from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel


class BaseMechanism(CachingMechanism):
    """Serve every request from its original row; no caching, no relocation.

    This is both the paper's *Base* configuration (on a DRAM device with no
    fast subarrays) and its *LL-DRAM* configuration (on a DRAM device with
    ``all_subarrays_fast=True``, where every access enjoys fast timings).
    """

    name = "Base"

    #: No in-DRAM cache: requests are always served from their address row,
    #: so the scheduler can skip the effective-row hook entirely and the
    #: channel controller can serve requests without the service wrapper.
    remaps_rows = False
    direct_access = True

    def effective_row(self, channel: Channel, decoded: DecodedAddress,
                      flat_bank: int) -> int:
        return decoded.row

    def resolve(self, channel: Channel, decoded: DecodedAddress,
                flat_bank: int, is_write: bool) -> tuple[int, None]:
        return decoded.row, None
