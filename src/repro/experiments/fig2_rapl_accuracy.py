"""Fig. 2: RAPL (package + DRAM) vs. LMG450 AC reference power.

Runs the paper's micro-benchmark set (idle, sinus, busy wait, memory,
compute, dgemm, sqrt) in several threading configurations on a simulated
node, averaging each point over a window of ``measure_s`` (1 s at the
catalogue's default size, the paper's 4 s with ``--full``) after
``settle_s`` of settling, and compares software RAPL readings (counter
deltas x energy unit, with 32-bit wrap handling) against the AC meter.
The sinus load's period is a quarter of the window, in 32 steps, so
each of its phases lasts ``measure_s / 128``: 7.8 ms at default size,
31 ms with ``--full`` and 3.9 ms in perfbench's shortened run
(``measure_s`` 0.5 s). The results:

* **Haswell-EP** (measured RAPL): all workloads collapse onto a single
  quadratic AC = f(RAPL) — the paper's footnote-2 fit with R² > 0.9998;
* **Sandy Bridge-EP** (modeled RAPL): per-workload bias fans the points
  out around the linear fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.fitting import FitResult, linear_fit, quadratic_fit
from repro.analysis.tables import render_table
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.instruments.lmg450 import Lmg450
from repro.power.rapl import RaplDomain, wraparound_delta
from repro.specs.node import (
    HASWELL_TEST_NODE,
    SANDY_BRIDGE_TEST_NODE,
    NodeSpec,
)
from repro.system.node import Node, build_node
from repro.units import seconds
from repro.workloads.base import Workload
from repro.workloads.micro import (
    busy_wait,
    compute,
    dgemm,
    idle,
    memory_read,
    sinus,
    sqrt_bench,
)


@dataclass(frozen=True)
class Fig2Point:
    workload: str
    n_threads: int
    rapl_w: float            # package + DRAM, both sockets, via MSR reads
    ac_w: float              # LMG450 average


@dataclass(frozen=True)
class Fig2Result:
    arch: str
    points: list[Fig2Point]
    fit: FitResult
    fit_kind: str            # "quadratic" | "linear"

    def residuals_by_workload(self) -> dict[str, float]:
        """Max |AC - fit(RAPL)| per workload — the bias signature."""
        out: dict[str, float] = {}
        for p in self.points:
            resid = abs(p.ac_w - float(self.fit.predict(p.rapl_w)))
            out[p.workload] = max(out.get(p.workload, 0.0), resid)
        return out


def _workload_set(node: Node, measure_s: float) -> list[tuple[str, Workload]]:
    spec = node.spec.cpu
    # The sinus period must divide the averaging window, otherwise the
    # 20 Sa/s meter mean and the RAPL mean see different partial periods.
    sinus_period_ns = seconds(measure_s / 4.0)
    return [
        ("idle", idle()),
        ("sinus", sinus(period_ns=sinus_period_ns)),
        ("busy wait", busy_wait()),
        ("memory", memory_read(spec)),
        ("compute", compute()),
        ("dgemm", dgemm()),
        ("sqrt", sqrt_bench()),
    ]


def _read_rapl_w(node: Node, before: list[dict], dt_s: float) -> float:
    """Software-style RAPL power: counter deltas x units / time."""
    total = 0.0
    for socket, snap in zip(node.sockets, before):
        for domain in (RaplDomain.PACKAGE, RaplDomain.DRAM):
            delta = wraparound_delta(snap[domain],
                                     socket.rapl.read_counter(domain))
            total += delta * socket.rapl.energy_unit_j(domain) / dt_s
    return total


def _snapshot_counters(node: Node) -> list[dict]:
    return [
        {domain: s.rapl.read_counter(domain)
         for domain in (RaplDomain.PACKAGE, RaplDomain.DRAM)}
        for s in node.sockets
    ]


def run_fig2(
    arch: str = "haswell",
    seed: int = 11,
    measure_s: float = 4.0,
    settle_s: float = 0.5,
    thread_counts: tuple[int, ...] | None = None,
) -> Fig2Result:
    if arch == "haswell":
        spec: NodeSpec = HASWELL_TEST_NODE
    elif arch == "sandybridge":
        spec = SANDY_BRIDGE_TEST_NODE
    else:
        raise ConfigurationError(f"unknown arch {arch!r}")

    sim = Simulator(seed=seed)
    node = build_node(sim, spec)
    meter = Lmg450(sim, node)
    meter.start()
    all_ids = [c.core_id for c in node.all_cores]
    if thread_counts is None:
        n = spec.cpu.n_cores
        thread_counts = (1, n // 2, n, 2 * n)   # up to both sockets full

    points: list[Fig2Point] = []
    for name, workload in _workload_set(node, measure_s):
        counts = (0,) if name == "idle" else thread_counts
        for n_threads in counts:
            node.stop_workload(all_ids)
            if n_threads > 0:
                node.run_workload(all_ids[:n_threads], workload)
            sim.run_for(seconds(settle_s))
            snap = _snapshot_counters(node)
            t0 = sim.now_ns
            sim.run_for(seconds(measure_s))
            rapl_w = _read_rapl_w(node, snap, measure_s)
            ac_w = meter.average(t0, sim.now_ns)
            points.append(Fig2Point(name, n_threads, rapl_w, ac_w))
    node.stop_workload(all_ids)

    rapl = np.array([p.rapl_w for p in points])
    ac = np.array([p.ac_w for p in points])
    if arch == "haswell":
        fit = quadratic_fit(rapl, ac)
        kind = "quadratic"
    else:
        fit = linear_fit(rapl, ac)
        kind = "linear"
    return Fig2Result(arch=arch, points=points, fit=fit, fit_kind=kind)


def render_fig2(result: Fig2Result) -> str:
    rows = [[p.workload, str(p.n_threads), f"{p.rapl_w:.1f}", f"{p.ac_w:.1f}",
             f"{p.ac_w - float(result.fit.predict(p.rapl_w)):+.2f}"]
            for p in result.points]
    c = result.fit.coeffs
    fit_text = " + ".join(f"{coef:.4g}*P^{i}" for i, coef in enumerate(c))
    return render_table(
        headers=["workload", "threads", "RAPL pkg+DRAM (W)", "LMG450 AC (W)",
                 "residual (W)"],
        rows=rows,
        title=(f"Fig. 2 ({result.arch}): AC = {fit_text}, "
               f"{result.fit_kind} fit, R^2 = {result.fit.r_squared:.5f}"),
    )
