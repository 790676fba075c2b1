"""High-resolution power-trace recorder.

Samples per-socket package/DRAM power (from the integrated energy
counters) at millisecond resolution and computes the trace statistics
the paper's Section VIII discussion needs: mean, peak, standard
deviation, and the constancy comparison between stress tests
("FIRESTARTER ... causes a much more static power consumption than
mprime").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.simulator import Simulator
from repro.errors import MeasurementError
from repro.system.node import Node
from repro.units import ms, NS_PER_S


@dataclass(frozen=True)
class PowerTraceStats:
    mean_w: float
    peak_w: float
    std_w: float
    p95_w: float


class PowerTrace:
    """Per-socket power sampling at a configurable period."""

    def __init__(self, sim: Simulator, node: Node,
                 period_ns: int = ms(1)) -> None:
        self.sim = sim
        self.node = node
        self.period_ns = period_ns
        self.times_ns: list[int] = []
        self.pkg_w: dict[int, list[float]] = {
            s.socket_id: [] for s in node.sockets}
        self.dram_w: dict[int, list[float]] = {
            s.socket_id: [] for s in node.sockets}
        self._last_e: dict[int, tuple[float, float]] = {}
        self._last_t = 0
        self._task = None

    def start(self) -> None:
        if self._task is not None:
            raise MeasurementError("trace already running")
        self._last_t = self.sim.now_ns
        self._last_e = {s.socket_id: (s.energy_pkg_j, s.energy_dram_j)
                        for s in self.node.sockets}
        self._task = self.sim.schedule_every(self.period_ns, self._sample,
                                             label="power-trace")

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _sample(self, now_ns: int) -> None:
        dt_s = (now_ns - self._last_t) / NS_PER_S
        if dt_s <= 0:
            return
        self.times_ns.append(now_ns)
        for socket in self.node.sockets:
            e_pkg, e_dram = self._last_e[socket.socket_id]
            self.pkg_w[socket.socket_id].append(
                (socket.energy_pkg_j - e_pkg) / dt_s)
            self.dram_w[socket.socket_id].append(
                (socket.energy_dram_j - e_dram) / dt_s)
            self._last_e[socket.socket_id] = (socket.energy_pkg_j,
                                              socket.energy_dram_j)
        self._last_t = now_ns

    def stats(self, socket_id: int, domain: str = "pkg") -> PowerTraceStats:
        series = self.pkg_w if domain == "pkg" else self.dram_w
        data = np.asarray(series[socket_id])
        if data.size == 0:
            raise MeasurementError("no samples recorded")
        return PowerTraceStats(
            mean_w=float(data.mean()),
            peak_w=float(data.max()),
            std_w=float(data.std()),
            p95_w=float(np.percentile(data, 95)),
        )

    def node_stats(self) -> PowerTraceStats:
        """Package+DRAM power summed over all sockets."""
        total = None
        for sid in self.pkg_w:
            arr = (np.asarray(self.pkg_w[sid])
                   + np.asarray(self.dram_w[sid]))
            total = arr if total is None else total + arr
        if total is None or total.size == 0:
            raise MeasurementError("no samples recorded")
        return PowerTraceStats(
            mean_w=float(total.mean()),
            peak_w=float(total.max()),
            std_w=float(total.std()),
            p95_w=float(np.percentile(total, 95)),
        )
