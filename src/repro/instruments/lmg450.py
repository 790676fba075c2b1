"""The ZES ZIMMER LMG450 power meter (Section III, [19]).

Samples the node's AC draw at 20 Sa/s with the instrument's specified
accuracy of 0.07 % of reading + 0.23 W (Table II). Internally the real
device samples far faster to reach that accuracy; the model folds that
into per-sample Gaussian noise with the spec as a 3-sigma bound.
"""

from __future__ import annotations

import numpy as np

from repro.engine.rng import spawn_rng
from repro.engine.simulator import Simulator
from repro.errors import MeasurementError
from repro.system.node import Node
from repro.units import NS_PER_S, seconds

SAMPLE_RATE_HZ = 20
ACCURACY_RELATIVE = 0.0007
ACCURACY_ABSOLUTE_W = 0.23


class Lmg450:
    """AC-side reference power measurement.

    Each 50 ms reading is the *mean* power over the sample interval (the
    real instrument integrates voltage/current at a much higher internal
    rate), so sub-millisecond transients — e.g. LINPACK phase flips
    racing the PCU tick — are smoothed the way the hardware smooths them.
    """

    def __init__(self, sim: Simulator, node: Node) -> None:
        self.sim = sim
        self.node = node
        self.rng = spawn_rng(sim.rng)
        self.times_ns: list[int] = []
        self.watts: list[float] = []
        self._task = None
        self._last_energy_j = 0.0
        self._last_time_ns = 0

    def start(self) -> None:
        if self._task is not None:
            raise MeasurementError("meter already running")
        self._last_energy_j = self.node.ac_energy_j
        self._last_time_ns = self.sim.now_ns
        period = seconds(1.0 / SAMPLE_RATE_HZ)
        self._task = self.sim.schedule_every(period, self._sample,
                                             label="lmg450-sample")
        # A sample only reads the node's AC energy: steady spans absorb
        # the samples while no fault hook intercepts them.
        self.node.add_span_reader(self._task, self._samples,
                                  fault_point="lmg450-sample")

    def stop(self) -> None:
        if self._task is not None:
            self.node.remove_span_reader(self._task)
            self._task.stop()
            self._task = None

    def _sample(self, now_ns: int) -> None:
        value = self._record(now_ns, self.node.ac_energy_j)
        if value is None:
            return
        # Fault hooks model real meter misbehaviour: sample dropouts
        # (value never reaches the logger) and out-of-envelope glitches.
        for directive in self.sim.fire_fault_hooks(
                "lmg450-sample", time_ns=now_ns, watts=value):
            action = directive.get("action")
            if action == "drop":
                return
            if action == "replace":
                value = float(directive["watts"])
        self.times_ns.append(now_ns)
        self.watts.append(value)

    def _samples(self, times_ns: list[int], energies_j: list[float]) -> None:
        """The samples a steady span absorbed, in order: each firing's
        time and the node's AC energy then (no fault hook is
        registered)."""
        for now_ns, energy_j in zip(times_ns, energies_j):
            value = self._record(now_ns, energy_j)
            if value is not None:
                self.times_ns.append(now_ns)
                self.watts.append(value)

    def _record(self, now_ns: int, energy_j: float) -> float | None:
        """The noisy mean power since the last sample, with the node's
        AC energy at ``energy_j`` at ``now_ns`` (None: no time passed)."""
        dt_s = (now_ns - self._last_time_ns) / NS_PER_S
        if dt_s <= 0:
            return None
        true = (energy_j - self._last_energy_j) / dt_s
        self._last_energy_j = energy_j
        self._last_time_ns = now_ns
        sigma = (ACCURACY_RELATIVE * true + ACCURACY_ABSOLUTE_W) / 3.0
        return true + float(self.rng.normal(0.0, sigma))

    # ---- analysis views -------------------------------------------------------

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.asarray(self.times_ns, dtype=np.int64),
                np.asarray(self.watts, dtype=np.float64))

    def average(self, t0_ns: int, t1_ns: int) -> float:
        """Mean power over a window (the paper's 4 s constant-load mean)."""
        times, watts = self.series()
        mask = (times >= t0_ns) & (times < t1_ns)
        if not mask.any():
            raise MeasurementError("no meter samples in the window")
        return float(watts[mask].mean())

    def max_window_average(self, window_s: float = 60.0) -> float:
        """Highest sliding-window mean (the Table V 1-minute extraction)."""
        _, watts = self.series()
        n = int(round(window_s * SAMPLE_RATE_HZ))
        if len(watts) < n:
            raise MeasurementError(
                f"need at least {n} samples for a {window_s:.0f} s window, "
                f"have {len(watts)}")
        csum = np.concatenate(([0.0], np.cumsum(watts)))
        windows = (csum[n:] - csum[:-n]) / n
        return float(windows.max())

    def clear(self) -> None:
        self.times_ns.clear()
        self.watts.clear()
