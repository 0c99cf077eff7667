"""Occupancy calculation, parameterized by the architecture profile.

Occupancy is the fraction of an SM's warp slots that can be resident
simultaneously.  Register usage is the paper's central constraint: more
registers per thread → fewer resident warps → less latency hiding
(Section IV: "aggressive application of scalar replacement increases
register pressure, which may lead to low threads occupancy").

Two register models are supported, selected by the :class:`GpuArch`
profile (never by hard-coded constants):

* **per-SM warp-granule** (NVIDIA Kepler/Fermi): registers are allocated
  per *warp* in ``arch.register_warp_granule``-sized granules from one
  per-SM file (256-register granules on Kepler);
* **per-SIMD wavefront** (AMD CDNA2, selected when
  ``arch.registers_per_simd`` is set): each SIMD's per-lane VGPR file is
  shared by its resident wavefronts — ``min(slots, file // regs)``
  wavefronts per SIMD, times ``arch.simds_per_sm`` SIMDs per CU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..pickling import positional_pickle
from .arch import GpuArch, KEPLER_K20XM


@positional_pickle
@dataclass(frozen=True, slots=True)
class Occupancy:
    """Resident-block/warp capacity of one SM for a given kernel."""

    blocks_per_sm: int
    warps_per_block: int
    active_warps: int
    occupancy: float
    limited_by: str
    warp_size: int = 32

    @property
    def active_threads(self) -> int:
        return self.active_warps * self.warp_size


def _register_block_limit(
    regs: int, warps_per_block: int, arch: GpuArch
) -> int:
    """Blocks per SM permitted by the register file, under the arch's
    register model (``regs`` already rounded to the granularity)."""
    if arch.registers_per_simd is not None:
        waves = arch.waves_per_simd(regs) * arch.simds_per_sm
        return waves // warps_per_block
    regs_per_warp = _round_up(regs * arch.warp_size, arch.register_warp_granule)
    return arch.registers_per_sm // (regs_per_warp * warps_per_block)


def compute_occupancy(
    registers_per_thread: int,
    threads_per_block: int,
    arch: GpuArch = KEPLER_K20XM,
    shared_mem_per_block: int = 0,
) -> Occupancy:
    """How many blocks/warps of this kernel fit on one SM."""
    threads_per_block = max(1, min(threads_per_block, arch.max_threads_per_block))
    warps_per_block = math.ceil(threads_per_block / arch.warp_size)
    regs = arch.round_registers(max(registers_per_thread, 1))

    by_regs = _register_block_limit(regs, warps_per_block, arch)
    by_threads = arch.max_threads_per_sm // threads_per_block
    # Partial warps still occupy whole warp slots.
    by_warps = arch.max_warps_per_sm // warps_per_block
    by_threads = min(by_threads, by_warps)
    by_blocks = arch.max_blocks_per_sm
    if shared_mem_per_block > 0:
        by_smem = arch.shared_mem_per_sm // shared_mem_per_block
    else:
        by_smem = by_blocks

    blocks = max(0, min(by_regs, by_threads, by_blocks, by_smem))
    limits = {
        "registers": by_regs,
        "threads": by_threads,
        "blocks": by_blocks,
        "shared-memory": by_smem,
    }
    limited_by = min(limits, key=lambda k: limits[k])
    active_warps = blocks * warps_per_block
    return Occupancy(
        blocks_per_sm=blocks,
        warps_per_block=warps_per_block,
        active_warps=active_warps,
        occupancy=active_warps / arch.max_warps_per_sm,
        limited_by=limited_by,
        warp_size=arch.warp_size,
    )


def _round_up(value: int, granule: int) -> int:
    return ((value + granule - 1) // granule) * granule
