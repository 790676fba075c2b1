"""C-state / frequency residency reporting.

Summarizes where cores and packages spent their time — the view
``powertop``-class tools give — from the counters the node integrator
maintains. Used to verify, e.g., that an idle system actually sits in
PC6 and that a busy core is 100 % C0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cstates.states import CState, PackageCState
from repro.errors import MeasurementError
from repro.system.node import Node


@dataclass(frozen=True)
class CoreResidency:
    core_id: int
    fractions: dict[CState, float]      # of total observed time

    @property
    def c0_fraction(self) -> float:
        return self.fractions.get(CState.C0, 0.0)

    def deepest_visited(self) -> CState:
        visited = [s for s, f in self.fractions.items() if f > 0.0]
        return max(visited) if visited else CState.C0


@dataclass(frozen=True)
class PackageResidency:
    socket_id: int
    fractions: dict[PackageCState, float]


class ResidencyReport:
    """Snapshot/delta-based residency accounting."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self._core_base: dict[int, dict[CState, int]] = {}
        self._pkg_base: dict[int, dict[PackageCState, int]] = {}
        self.reset()

    def reset(self) -> None:
        for core in self.node.all_cores:
            self._core_base[core.core_id] = dict(
                core.counters.cstate_residency_ns)
        for socket in self.node.sockets:
            self._pkg_base[socket.socket_id] = {
                s: socket.package_residency_ns(s) for s in PackageCState}

    def core(self, core_id: int) -> CoreResidency:
        counters = self.node.core(core_id).counters.cstate_residency_ns
        base = self._core_base[core_id]
        deltas = {s: counters[s] - base[s] for s in CState}
        total = sum(deltas.values())
        if total <= 0:
            raise MeasurementError("no time observed since reset")
        return CoreResidency(
            core_id=core_id,
            fractions={s: d / total for s, d in deltas.items()})

    def package(self, socket_id: int) -> PackageResidency:
        socket = self.node.sockets[socket_id]
        base = self._pkg_base[socket_id]
        deltas = {s: socket.package_residency_ns(s) - base[s]
                  for s in PackageCState}
        total = sum(deltas.values())
        if total <= 0:
            raise MeasurementError("no time observed since reset")
        return PackageResidency(
            socket_id=socket_id,
            fractions={s: d / total for s, d in deltas.items()})

    def render(self) -> str:
        lines = ["residency since last reset:"]
        for socket in self.node.sockets:
            pkg = self.package(socket.socket_id)
            pkg_text = " ".join(
                f"{s.name}={f * 100:.0f}%"
                for s, f in pkg.fractions.items() if f > 0.005)
            lines.append(f"  socket {socket.socket_id}: {pkg_text}")
            for core in socket.cores[:4]:
                res = self.core(core.core_id)
                core_text = " ".join(
                    f"{s.name}={f * 100:.0f}%"
                    for s, f in res.fractions.items() if f > 0.005)
                lines.append(f"    core {core.core_id:2d}: {core_text}")
        return "\n".join(lines)
