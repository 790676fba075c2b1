"""FIRESTARTER — the processor stress test (Section VIII).

Two layers:

* :class:`FirestarterKernel` rebuilds the paper's *code generator*: the
  stress loop is a sequence of 4-instruction groups (I1-I4), one group
  per 16-byte fetch window, with distinct group flavors per memory level
  (reg, L1, L2, L3, mem) mixed at the published ratios (27.8 % reg,
  62.7 % L1, 7.1 % L2, 0.8 % L3, 1.6 % mem). The loop must exceed the
  micro-op cache but fit the L1 instruction cache.
* :func:`firestarter` derives the behavioral workload: IPC 3.1 with
  Hyper-Threading / 2.8 without (paper numbers), activity 1.0 (the
  calibration reference), near-TDP power, highly constant consumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.rng import make_rng
from repro.errors import ConfigurationError
from repro.workloads.base import Workload, steady

# Execution mix over group flavors (paper Section VIII).
MIX_RATIOS: dict[str, float] = {
    "reg": 0.278,
    "L1": 0.627,
    "L2": 0.071,
    "L3": 0.008,
    "mem": 0.016,
}

# Instruction templates per flavor. I1 is a packed-double FMA on registers
# (reg, mem) or a store to the target cache level; I2 an FMA, combinable
# with a load (L1/L2/L3/mem); I3 a right shift; I4 a xor (reg) or a
# pointer-increment add.
_GROUP_TEMPLATES: dict[str, tuple[str, str, str, str]] = {
    "reg": ("vfmadd231pd reg", "vfmadd231pd reg", "shr", "xor"),
    "L1": ("store L1", "vfmadd231pd load L1", "shr", "add ptr"),
    "L2": ("store L2", "vfmadd231pd load L2", "shr", "add ptr"),
    "L3": ("store L3", "vfmadd231pd load L3", "shr", "add ptr"),
    "mem": ("vfmadd231pd reg", "vfmadd231pd load mem", "shr", "add ptr"),
}

_FETCH_WINDOW_BYTES = 16
# Haswell decoded-µop cache: ~1.5 K µops ≈ 6 KiB of hot code; L1I: 32 KiB.
_UOP_CACHE_BYTES = 6 * 1024
_L1I_BYTES = 32 * 1024


@dataclass(frozen=True)
class InstructionGroup:
    """One 16-byte fetch window of four instructions."""

    flavor: str
    instructions: tuple[str, str, str, str]

    def __post_init__(self) -> None:
        if self.flavor not in MIX_RATIOS:
            raise ConfigurationError(f"unknown group flavor {self.flavor!r}")
        if len(self.instructions) != 4:
            raise ConfigurationError("a group is exactly four instructions")

    @property
    def bytes(self) -> int:
        return _FETCH_WINDOW_BYTES

    @property
    def fma_count(self) -> int:
        return sum("vfmadd" in i for i in self.instructions)

    @property
    def has_load(self) -> bool:
        return any("load" in i for i in self.instructions)

    @property
    def has_store(self) -> bool:
        return any("store" in i for i in self.instructions)


class FirestarterKernel:
    """Synthesizes and validates a stress-loop instruction sequence."""

    def __init__(self, n_groups: int = 1024, seed: int = 2015) -> None:
        if not (_UOP_CACHE_BYTES // _FETCH_WINDOW_BYTES
                < n_groups
                <= _L1I_BYTES // _FETCH_WINDOW_BYTES):
            raise ConfigurationError(
                "loop must exceed the micro-op cache "
                f"(> {_UOP_CACHE_BYTES // _FETCH_WINDOW_BYTES} groups) and fit "
                f"L1I (<= {_L1I_BYTES // _FETCH_WINDOW_BYTES} groups)")
        self.n_groups = n_groups
        self.groups = self._generate(n_groups, seed)

    @staticmethod
    def _generate(n_groups: int, seed: int) -> list[InstructionGroup]:
        """Deterministically interleave flavors at the target ratios.

        Uses largest-remainder quotas plus a seeded shuffle so the mix is
        exact while avoiding long same-flavor runs (the real generator
        interleaves levels to keep power flat).
        """
        quotas = {f: int(round(r * n_groups)) for f, r in MIX_RATIOS.items()}
        drift = n_groups - sum(quotas.values())
        quotas["L1"] += drift     # absorb rounding in the largest bucket
        flavors: list[str] = []
        for flavor, count in quotas.items():
            flavors.extend([flavor] * count)
        rng = make_rng(seed)
        rng.shuffle(flavors)
        return [InstructionGroup(f, _GROUP_TEMPLATES[f]) for f in flavors]

    # ---- static properties used by tests and DESIGN checks ------------------

    @property
    def code_bytes(self) -> int:
        return sum(g.bytes for g in self.groups)

    def fits_constraints(self) -> bool:
        return _UOP_CACHE_BYTES < self.code_bytes <= _L1I_BYTES

    def mix_fractions(self) -> dict[str, float]:
        counts: dict[str, int] = {f: 0 for f in MIX_RATIOS}
        for group in self.groups:
            counts[group.flavor] += 1
        return {f: c / len(self.groups) for f, c in counts.items()}

    @property
    def fma_fraction(self) -> float:
        """Fraction of instruction slots that are packed-double FMAs."""
        total = 4 * len(self.groups)
        return sum(g.fma_count for g in self.groups) / total

    def longest_same_flavor_run(self) -> int:
        longest = run = 1
        for prev, cur in zip(self.groups, self.groups[1:]):
            run = run + 1 if cur.flavor == prev.flavor else 1
            longest = max(longest, run)
        return longest

    def render_asm(self, max_groups: int | None = 8) -> str:
        """Pseudo-assembly listing of the generated stress loop.

        One 16-byte fetch window per group, annotated with the memory
        level it exercises; truncated to ``max_groups`` windows (None
        for the full loop).
        """
        mnemonics = {
            "vfmadd231pd reg": "vfmadd231pd ymm{0}, ymm{1}, ymm{2}",
            "vfmadd231pd load L1": "vfmadd231pd ymm{0}, ymm{1}, [r9]",
            "vfmadd231pd load L2": "vfmadd231pd ymm{0}, ymm{1}, [r10]",
            "vfmadd231pd load L3": "vfmadd231pd ymm{0}, ymm{1}, [r11]",
            "vfmadd231pd load mem": "vfmadd231pd ymm{0}, ymm{1}, [r12]",
            "store L1": "vmovapd [r9], ymm{0}",
            "store L2": "vmovapd [r10], ymm{0}",
            "store L3": "vmovapd [r11], ymm{0}",
            "shr": "shr r13, 1",
            "xor": "xor r14, r15",
            "add ptr": "add r9, 64",
        }
        lines = ["stress_loop:"]
        shown = self.groups if max_groups is None \
            else self.groups[:max_groups]
        reg = 0
        for i, group in enumerate(shown):
            lines.append(f"  ; group {i} [{group.flavor}]")
            for instr in group.instructions:
                text = mnemonics[instr].format(reg % 16, (reg + 1) % 16,
                                               (reg + 2) % 16)
                lines.append(f"  {text}")
                reg += 1
        if max_groups is not None and len(self.groups) > max_groups:
            lines.append(f"  ; ... {len(self.groups) - max_groups} "
                         "more groups ...")
        lines.append("  sub rcx, 1")
        lines.append("  jnz stress_loop")
        return "\n".join(lines)


# Behavioral calibration (DESIGN.md): per-thread IPC law fitted to
# Table IV; activity factors solved from the TDP equilibria of
# Tables IV/V.
_IPC_PARITY_HT = 1.538        # per thread; 2 threads -> ~3.1 per core
_IPC_SLOPE_HT = 0.472
_IPC_PARITY_NOHT = 2.80       # per core (one thread)
_IPC_SLOPE_NOHT = 0.85
_ACTIVITY_HT = 1.0
_ACTIVITY_NOHT = 0.894


def firestarter(ht: bool = True) -> Workload:
    """The behavioral FIRESTARTER workload (Haswell support, v1.2).

    ``ht`` selects 2 threads/core (IPC 3.1) or 1 (IPC 2.8).
    """
    return steady(
        "firestarter",
        threads_per_core=2 if ht else 1,
        avx_fraction=0.85,
        power_activity=_ACTIVITY_HT if ht else _ACTIVITY_NOHT,
        ipc_parity=_IPC_PARITY_HT if ht else _IPC_PARITY_NOHT,
        ipc_uncore_slope=_IPC_SLOPE_HT if ht else _IPC_SLOPE_NOHT,
        stall_fraction=0.15,
        l3_bytes_per_cycle=0.5,
        dram_bytes_per_cycle=1.85,
        rapl_model_bias=1.05,
    )
