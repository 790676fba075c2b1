"""Voltage/frequency operating-point curves.

The FIVRs pick a supply voltage for each granted frequency from a V/f
curve. The curve is affine over the usable range, which is a good
approximation of published Haswell operating points and is what gives the
power model its superlinear P(f) behaviour (P ~ f * V(f)^2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import to_ghz


@dataclass(frozen=True)
class VfCurve:
    """Affine voltage/frequency curve ``V(f) = v0 + v1 * f_ghz``.

    ``offset_v`` models per-part binning skew: the paper observed that the
    cores of the second processor of the test system run at higher voltage
    for the same p-state (Section III).
    """

    v0: float                  # volts at (extrapolated) 0 GHz
    v1: float                  # volts per GHz
    f_min_hz: float
    f_max_hz: float
    offset_v: float = 0.0

    def __post_init__(self) -> None:
        if self.f_min_hz <= 0 or self.f_max_hz <= self.f_min_hz:
            raise ConfigurationError("invalid V/f frequency range")
        if self.voltage(self.f_min_hz) <= 0:
            raise ConfigurationError("V/f curve yields non-positive voltage")

    def voltage(self, f_hz: float) -> float:
        """Supply voltage (V) for frequency ``f_hz``, clamped to the range."""
        # Hot path (called per power evaluation): scalar min/max, not np.clip.
        f = min(max(f_hz, self.f_min_hz), self.f_max_hz)
        return self.v0 + self.v1 * to_ghz(f) + self.offset_v

    def with_offset(self, offset_v: float) -> "VfCurve":
        """A copy of this curve shifted by ``offset_v`` volts."""
        return VfCurve(
            v0=self.v0,
            v1=self.v1,
            f_min_hz=self.f_min_hz,
            f_max_hz=self.f_max_hz,
            offset_v=self.offset_v + offset_v,
        )
