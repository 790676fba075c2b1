"""MSR addresses and bit-layout codecs for the virtual host interface.

This is the data-sheet layer: pure functions that encode and decode the
register fields the paper's tooling (msr-tools, x86_adapt, pepc) reads
and writes. Nothing here touches the simulator — the device model in
:mod:`repro.hostif.msrdev` composes these with the live node.

Note on MSR_UNCORE_RATIO_LIMIT: at the time of the paper the register
was undocumented ("neither the actual number of this MSR nor the encoded
information is available", Section II-D). The host interface
implements the encoding Intel later documented (and pepc uses): max
ratio in bits 6:0, min ratio in bits 14:8, in units of the 100 MHz BCLK.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MsrError

#: Haswell-EP bus clock: every ratio field is in multiples of this.
BCLK_HZ = 100_000_000


@dataclass(frozen=True)
class BitField:
    """One contiguous field of a 64-bit MSR: ``bits hi:lo`` in SDM terms."""

    name: str
    lo: int
    width: int

    @property
    def hi(self) -> int:
        return self.lo + self.width - 1

    @property
    def value_mask(self) -> int:
        """The unshifted mask (what the field value is ANDed with)."""
        return (1 << self.width) - 1

    @property
    def mask(self) -> int:
        """The in-register mask (shifted to the field position)."""
        return self.value_mask << self.lo


class HostMsr(enum.IntEnum):
    """Registers the virtual ``/dev/cpu/*/msr`` device serves."""

    IA32_TIME_STAMP_COUNTER = 0x10
    IA32_MPERF = 0xE7
    IA32_APERF = 0xE8
    IA32_PERF_STATUS = 0x198
    IA32_PERF_CTL = 0x199
    IA32_MISC_ENABLE = 0x1A0
    IA32_ENERGY_PERF_BIAS = 0x1B0
    MSR_RAPL_POWER_UNIT = 0x606
    MSR_PKG_POWER_LIMIT = 0x610
    MSR_PKG_ENERGY_STATUS = 0x611
    MSR_DRAM_ENERGY_STATUS = 0x619
    MSR_UNCORE_RATIO_LIMIT = 0x620
    MSR_PP0_ENERGY_STATUS = 0x639


# ---- declarative register layout -------------------------------------------
# The single source of truth for every mask and shift below. The
# ``msr-layout`` rule of ``repro-lint`` validates it statically (fields
# must not overlap, must fit 64 bits, energy-status registers must carry
# the 32-bit wrap field) and cross-checks every literal mask/shift in
# this module against the declared extents, so codec and table cannot
# drift apart. ``tests/test_hostif.py`` asserts the same at runtime.

REGISTER_LAYOUT: dict[HostMsr, tuple[BitField, ...]] = {
    HostMsr.IA32_TIME_STAMP_COUNTER: (BitField("count", 0, 64),),
    HostMsr.IA32_MPERF: (BitField("count", 0, 64),),
    HostMsr.IA32_APERF: (BitField("count", 0, 64),),
    HostMsr.IA32_PERF_STATUS: (BitField("current_ratio", 8, 8),),
    HostMsr.IA32_PERF_CTL: (BitField("target_ratio", 8, 8),),
    HostMsr.IA32_MISC_ENABLE: (BitField("eist_enable", 16, 1),
                               BitField("turbo_disable", 38, 1)),
    HostMsr.IA32_ENERGY_PERF_BIAS: (BitField("epb", 0, 4),),
    HostMsr.MSR_RAPL_POWER_UNIT: (BitField("power_unit", 0, 4),
                                  BitField("energy_unit", 8, 5),
                                  BitField("time_unit", 16, 4)),
    HostMsr.MSR_PKG_POWER_LIMIT: (BitField("pl1_limit", 0, 15),
                                  BitField("pl1_enable", 15, 1)),
    HostMsr.MSR_PKG_ENERGY_STATUS: (BitField("energy", 0, 32),),
    HostMsr.MSR_DRAM_ENERGY_STATUS: (BitField("energy", 0, 32),),
    HostMsr.MSR_UNCORE_RATIO_LIMIT: (BitField("max_ratio", 0, 7),
                                     BitField("min_ratio", 8, 7)),
    HostMsr.MSR_PP0_ENERGY_STATUS: (BitField("energy", 0, 32),),
}


# ---- ratio fields (IA32_PERF_CTL/STATUS, 0x620) ---------------------------

def encode_ratio(f_hz: float) -> int:
    """Frequency -> BCLK ratio (rounded to the nearest bin)."""
    return int(round(f_hz / BCLK_HZ))


def decode_ratio(ratio: int) -> float:
    return float(ratio * BCLK_HZ)


def encode_perf_ctl(f_hz: float) -> int:
    """IA32_PERF_CTL: target ratio in bits 15:8."""
    return (encode_ratio(f_hz) & 0xFF) << 8


def decode_perf_ctl(value: int) -> float:
    ratio = (value >> 8) & 0xFF
    if ratio == 0:
        raise MsrError("IA32_PERF_CTL: zero target ratio")
    return decode_ratio(ratio)


def encode_perf_status(f_hz: float) -> int:
    """IA32_PERF_STATUS: current ratio in bits 15:8 (read-only)."""
    return (encode_ratio(f_hz) & 0xFF) << 8


# ---- IA32_MISC_ENABLE ------------------------------------------------------

#: Bit 16: Enhanced Intel SpeedStep (EIST) enable.
MISC_ENABLE_EIST = 1 << 16
#: Bit 38: turbo-mode *disable* (1 = turbo off).
MISC_ENABLE_TURBO_DISABLE = 1 << 38


def encode_misc_enable(turbo_enabled: bool, eist_enabled: bool = True) -> int:
    value = MISC_ENABLE_EIST if eist_enabled else 0
    if not turbo_enabled:
        value |= MISC_ENABLE_TURBO_DISABLE
    return value


def decode_misc_enable_turbo(value: int) -> bool:
    """True iff the write leaves turbo enabled."""
    return not (value & MISC_ENABLE_TURBO_DISABLE)


# ---- MSR_RAPL_POWER_UNIT ---------------------------------------------------

#: Power unit: 1/2^3 W = 0.125 W per count (bits 3:0).
RAPL_POWER_UNIT_EXP = 3
POWER_UNIT_W = 1.0 / (1 << RAPL_POWER_UNIT_EXP)
#: Time unit: 1/2^10 s (bits 19:16).
RAPL_TIME_UNIT_EXP = 10


def encode_rapl_power_unit(energy_exponent: int) -> int:
    """Full SDM layout: power 3:0, energy 12:8, time 19:16."""
    return (RAPL_POWER_UNIT_EXP
            | (energy_exponent & 0x1F) << 8
            | RAPL_TIME_UNIT_EXP << 16)


def decode_rapl_energy_unit_j(unit_register: int) -> float:
    return 1.0 / (1 << ((unit_register >> 8) & 0x1F))


# ---- MSR_PKG_POWER_LIMIT (PL1 fields) --------------------------------------

PL1_MASK = 0x7FFF          # bits 14:0, in power units
PL1_ENABLE = 1 << 15


def encode_power_limit(limit_w: float, enabled: bool = True) -> int:
    counts = int(limit_w / POWER_UNIT_W) & PL1_MASK
    return counts | (PL1_ENABLE if enabled else 0)


def decode_power_limit(value: int) -> tuple[float, bool]:
    """-> (PL1 watts, enable bit)."""
    return (value & PL1_MASK) * POWER_UNIT_W, bool(value & PL1_ENABLE)


# ---- MSR_UNCORE_RATIO_LIMIT ------------------------------------------------

def encode_uncore_ratio_limit(min_hz: float, max_hz: float) -> int:
    """Max ratio bits 6:0, min ratio bits 14:8."""
    return ((encode_ratio(max_hz) & 0x7F)
            | (encode_ratio(min_hz) & 0x7F) << 8)


def decode_uncore_ratio_limit(value: int) -> tuple[float, float]:
    """-> (min_hz, max_hz)."""
    max_hz = decode_ratio(value & 0x7F)
    min_hz = decode_ratio((value >> 8) & 0x7F)
    if max_hz <= 0 or min_hz <= 0:
        raise MsrError("UNCORE_RATIO_LIMIT: zero ratio field")
    return min_hz, max_hz


# ---- 32-bit energy-status counters -----------------------------------------

ENERGY_STATUS_MASK = 0xFFFF_FFFF
