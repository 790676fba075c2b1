"""Frequency-over-time recorder.

Samples each monitored core's granted frequency and AVX license state at
a fine period (default 50 us — below the PCU quantum), producing the
timelines behind the AVX-transient and EET studies: Fig. 4-style views
of when the hardware actually switched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.simulator import Simulator
from repro.errors import MeasurementError
from repro.system.core import AvxLicense
from repro.system.node import Node
from repro.units import us


@dataclass(frozen=True)
class FreqTraceSample:
    time_ns: int
    freq_hz: float
    license: AvxLicense
    throttled: bool


class FreqTrace:
    def __init__(self, sim: Simulator, node: Node, core_ids: list[int],
                 period_ns: int = us(50)) -> None:
        self.sim = sim
        self.node = node
        self.core_ids = list(core_ids)
        self.period_ns = period_ns
        self.samples: dict[int, list[FreqTraceSample]] = {
            cid: [] for cid in core_ids}
        self._task = None

    def start(self) -> None:
        if self._task is not None:
            raise MeasurementError("trace already running")
        self._task = self.sim.schedule_every(self.period_ns, self._sample,
                                             label="freq-trace")

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _sample(self, now_ns: int) -> None:
        for cid in self.core_ids:
            core = self.node.core(cid)
            self.samples[cid].append(FreqTraceSample(
                time_ns=now_ns,
                freq_hz=core.freq_hz,
                license=core.avx_license,
                throttled=core.execution_throttle() < 1.0,
            ))

    # ---- analysis -------------------------------------------------------------

    def series(self, core_id: int) -> tuple[np.ndarray, np.ndarray]:
        samples = self.samples[core_id]
        if not samples:
            raise MeasurementError("no samples recorded")
        return (np.array([s.time_ns for s in samples]),
                np.array([s.freq_hz for s in samples]))

    def change_times(self, core_id: int, min_delta_hz: float = 20e6
                     ) -> np.ndarray:
        """Times at which the granted frequency moved."""
        t, f = self.series(core_id)
        idx = np.nonzero(np.abs(np.diff(f)) >= min_delta_hz)[0]
        return t[idx + 1]

    def license_intervals(self, core_id: int,
                          state: AvxLicense) -> list[tuple[int, int]]:
        """Contiguous [start, end) sample intervals spent in ``state``."""
        out = []
        start = None
        for s in self.samples[core_id]:
            if s.license is state and start is None:
                start = s.time_ns
            elif s.license is not state and start is not None:
                out.append((start, s.time_ns))
                start = None
        if start is not None:
            out.append((start, self.samples[core_id][-1].time_ns))
        return out
