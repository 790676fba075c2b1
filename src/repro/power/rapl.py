"""RAPL (running average power limiting) energy accounting (Section IV).

A :class:`RaplBank` is plain storage: one float per supported domain,
a view of its socket's scalar accumulators in the node's accumulator
vector, which :meth:`repro.system.node.Node.integrate` advances with
every other accumulator. What each segment adds is the socket's
per-second RAPL rate, and that rate carries the paper's central RAPL
finding:

* Haswell-EP (``modeled=False``): FIVR current sensing makes RAPL an
  actual *measurement*; the package and DRAM rates are the true power,
  so the accumulated energy equals the ground truth (plus quantization
  to the energy unit and the ~1 ms register update period).
* Sandy Bridge-EP (``modeled=True``): RAPL was a *model* driven by event
  counters, with a workload-dependent bias. The rates are the true
  power times the bias of whatever is executing, which recreates the
  per-workload branches of Fig. 2a.

Haswell-EP specifics the paper documents are enforced here: the PP0
(core) domain is not supported; the DRAM domain must be read with the
15.3 uJ energy unit (DRAM mode 1) rather than the generic unit of the
SDM — configuring mode 0 yields the "unreasonably high values" the paper
warns about; counters are 32-bit and wrap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import UnsupportedFeatureError, ConfigurationError
from repro.specs.cpu import CpuSpec


class RaplDomain(enum.Enum):
    PACKAGE = "package"
    DRAM = "dram"
    PP0 = "pp0"

    # Identity hash (consistent with enum identity-equality): every
    # refresh and counter read hits the per-domain dicts, and the
    # Python-level Enum.__hash__ shows up there.
    __hash__ = object.__hash__


class DramRaplMode(enum.Enum):
    """BIOS-selectable DRAM RAPL mode. Haswell-EP supports only mode 1."""

    MODE0 = 0
    MODE1 = 1


_COUNTER_BITS = 32
_COUNTER_WRAP = 1 << _COUNTER_BITS


@dataclass
class RaplBank:
    """The RAPL MSR bank of one socket."""

    spec: CpuSpec
    # Sandy Bridge-style event-counter model (biased) instead of the
    # Haswell-EP measurement; the socket scales its RAPL rates by it.
    modeled: bool = False
    dram_mode: DramRaplMode = DramRaplMode.MODE1

    def __post_init__(self) -> None:
        self.domains = (RaplDomain.PACKAGE, RaplDomain.DRAM) + (
            (RaplDomain.PP0,) if self.spec.has_pp0_rapl else ())
        self._slot = {d: i for i, d in enumerate(self.domains)}
        # continuously integrated energy (J), in ``domains`` order
        self.energy_j = np.zeros(len(self.domains), dtype=np.float64)
        # snapshot visible through the MSR, refreshed every ~1 ms
        self._visible_j = {d: 0.0 for d in self.domains}
        # raw-counter skew (counts) per domain — fault injection shifts
        # the 32-bit counter's phase so a wrap lands at a chosen instant
        # without perturbing the true accumulated energy
        self._counter_skew: dict[RaplDomain, int] = {}

    def _check(self, domain: RaplDomain) -> int:
        slot = self._slot.get(domain)
        if slot is None:
            raise UnsupportedFeatureError(
                f"RAPL domain {domain.value} not supported on {self.spec.model}")
        return slot

    def refresh(self) -> None:
        """Latch accumulated energy into the visible MSR snapshot.

        Hardware updates the energy-status MSRs roughly once per
        millisecond; the node schedules this at
        ``spec.rapl_update_period_ns``.
        """
        self.latch(self.energy_j)

    def latch(self, energy_j: np.ndarray) -> None:
        """:meth:`refresh` as of an instant whose domain energies
        (``domains`` order) were ``energy_j`` (a refresh a steady span
        absorbed)."""
        self._visible_j.update(zip(self.domains, energy_j.tolist()))

    # ---- units ------------------------------------------------------------------

    def energy_unit_j(self, domain: RaplDomain) -> float:
        """The unit a *correct* reader must apply for ``domain``.

        On Haswell-EP the DRAM domain uses 15.3 uJ (Section IV, quoting
        the registers datasheet), not the generic unit from the SDM.
        """
        if domain is RaplDomain.DRAM and self.dram_mode is DramRaplMode.MODE1:
            unit = self.spec.rapl_dram_energy_unit_j
        else:
            unit = self.spec.rapl_energy_unit_j
        if unit <= 0.0:
            raise UnsupportedFeatureError(
                f"{self.spec.model} has no RAPL energy unit for {domain.value}")
        return unit

    # ---- reads --------------------------------------------------------------------

    def read_counter(self, domain: RaplDomain) -> int:
        """Raw 32-bit energy-status counter (wraps)."""
        self._check(domain)
        unit = self.energy_unit_j(domain)
        skew = self._counter_skew.get(domain, 0)
        return (int(self._visible_j[domain] / unit) + skew) % _COUNTER_WRAP

    # ---- fault injection ----------------------------------------------------

    def force_wrap(self, domain: RaplDomain, margin_counts: int = 0) -> int:
        """Skew the counter so it wraps after ``margin_counts`` more counts.

        Models the 32-bit counter being caught near its wrap point
        mid-measurement. Only the raw counter phase changes — the true
        accumulated energy is untouched, so wrap-aware readers
        (:func:`wraparound_delta`) still recover exact deltas while naive
        ``after - before`` subtraction goes hugely negative. Returns the
        skewed counter value.
        """
        if not 0 <= margin_counts < _COUNTER_WRAP:
            raise ConfigurationError(
                f"wrap margin must be in [0, 2^32), got {margin_counts}")
        current = self.read_counter(domain)
        target = (_COUNTER_WRAP - margin_counts) % _COUNTER_WRAP
        self._counter_skew[domain] = (
            self._counter_skew.get(domain, 0) + target - current)
        return self.read_counter(domain)

    def read_energy_j(self, domain: RaplDomain,
                      assumed_unit_j: float | None = None) -> float:
        """Counter scaled by an energy unit, as software would compute it.

        ``assumed_unit_j`` lets callers reproduce the misconfiguration the
        paper warns about: scaling the Haswell DRAM counter with the
        generic SDM unit produces values ~4x too high.
        """
        unit = assumed_unit_j if assumed_unit_j is not None \
            else self.energy_unit_j(domain)
        if unit <= 0.0:
            raise ConfigurationError("energy unit must be positive")
        return self.read_counter(domain) * unit

    def true_energy_j(self, domain: RaplDomain) -> float:
        """Unquantized accumulated energy (test/analysis convenience)."""
        return float(self.energy_j[self._check(domain)])


def wraparound_delta(counter_before: int, counter_after: int) -> int:
    """Counter difference accounting for 32-bit wrap (at most one wrap)."""
    delta = counter_after - counter_before
    if delta < 0:
        delta += _COUNTER_WRAP
    return delta


def unit_exponent(unit_j: float) -> int:
    """The SDM ``1/2^n`` exponent closest to a given energy unit."""
    return round(-math.log2(unit_j))
