"""Analytic shared-bandwidth model (latency-concurrency + roofline).

Per integration segment, each active core presents a *demand* (bytes per
core cycle at each level, from its workload descriptor). Achieved
bandwidth is the demand clipped by three limits:

* **issue limit** — a core can only request so much per cycle; for L3 the
  effective rate degrades with the core/uncore clock ratio (ring round
  trips cost more core cycles when the uncore is relatively slow);
* **concurrency limit** — DRAM demand is capped by outstanding-miss
  parallelism: ``line-fill buffers x 64 B / loaded latency`` (SMT raises
  usable MLP a bit);
* **shared capacity** — the socket-level L3 transport and DRAM channel
  capacity, both functions of the *uncore* frequency.

These three limits are exactly what produces the paper's Section VII
shapes: DRAM saturation at ~8 cores, core-frequency independence of
saturated DRAM bandwidth on Haswell (uncore pinned at 3.0 GHz under
stalls), proportionality on Sandy Bridge (uncore tied to core clock), and
L3 bandwidth that tracks core frequency but flattens at the top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memory.latency import dram_latency_ns
from repro.specs.cpu import CpuSpec
from repro.units import ghz, to_ghz


@dataclass(frozen=True)
class BandwidthConfig:
    """Per-architecture bandwidth-law constants (socket scope)."""

    dram_peak_gbs: float                 # channel capacity ceiling
    dram_gbs_per_uncore_ghz: float       # transport limit vs uncore clock
    dram_base_latency_ns: float
    dram_core_overhead_cycles: float
    lfb_per_core: int
    ht_mlp_boost: float                  # fractional MLP gain from thread 2
    l3_bytes_per_core_cycle: float       # issue limit at clock parity
    l3_kappa: float                      # core/uncore ratio degradation
    l3_transport_gbs_per_uncore_ghz: float
    l3_low_n_penalty: float              # single-core inefficiency
    uncore_ref_hz: float                 # reference clock for latency law

    def __post_init__(self) -> None:
        if self.dram_peak_gbs <= 0 or self.l3_bytes_per_core_cycle <= 0:
            raise ConfigurationError("bandwidth limits must be positive")


_CONFIGS: dict[str, BandwidthConfig] = {
    # Calibrated to Figs. 7/8: DRAM saturates near 60 GB/s at 8 cores with
    # the uncore at 3.0 GHz; L3 ~230 GB/s at 12 cores x 2.5 GHz.
    "haswell-ep": BandwidthConfig(
        dram_peak_gbs=60.0,
        dram_gbs_per_uncore_ghz=20.0,
        dram_base_latency_ns=70.0,
        dram_core_overhead_cycles=40.0,
        lfb_per_core=10,
        ht_mlp_boost=0.30,
        l3_bytes_per_core_cycle=10.0,
        l3_kappa=0.35,
        l3_transport_gbs_per_uncore_ghz=110.0,
        l3_low_n_penalty=0.06,
        uncore_ref_hz=ghz(3.0),
    ),
    # Uncore tied to core clock -> both L3 and DRAM scale with core
    # frequency; DRAM peak lower (DDR3-1600).
    "sandybridge-ep": BandwidthConfig(
        dram_peak_gbs=42.0,
        dram_gbs_per_uncore_ghz=16.0,
        dram_base_latency_ns=78.0,
        dram_core_overhead_cycles=45.0,
        lfb_per_core=10,
        ht_mlp_boost=0.25,
        l3_bytes_per_core_cycle=8.0,
        l3_kappa=0.0,                 # clock parity by construction
        l3_transport_gbs_per_uncore_ghz=40.0,
        l3_low_n_penalty=0.03,
        uncore_ref_hz=ghz(2.6),
    ),
    # Fixed uncore clock -> DRAM bandwidth independent of core frequency.
    "westmere-ep": BandwidthConfig(
        dram_peak_gbs=27.0,
        dram_gbs_per_uncore_ghz=10.0,
        dram_base_latency_ns=65.0,
        dram_core_overhead_cycles=50.0,
        lfb_per_core=10,
        ht_mlp_boost=0.25,
        l3_bytes_per_core_cycle=6.0,
        l3_kappa=0.15,
        l3_transport_gbs_per_uncore_ghz=30.0,
        l3_low_n_penalty=0.03,
        uncore_ref_hz=ghz(2.66),
    ),
}


def bandwidth_config_for(spec: CpuSpec) -> BandwidthConfig:
    try:
        return _CONFIGS[spec.microarch.codename]
    except KeyError:
        raise ConfigurationError(
            f"no bandwidth model for {spec.microarch.codename}") from None


@dataclass(frozen=True)
class BandwidthDemand:
    """One active core's traffic demand for a segment."""

    core_id: int
    f_core_hz: float
    n_threads: int                   # hardware threads running on the core
    l3_bytes_per_cycle: float        # demanded, per core cycle
    dram_bytes_per_cycle: float


@dataclass(frozen=True)
class BandwidthResult:
    """Achieved bandwidth for a segment (socket scope)."""

    l3_bytes_per_s: dict[int, float]     # per core
    dram_bytes_per_s: dict[int, float]
    l3_throttle: float                   # achieved/demand across the socket
    dram_throttle: float

    @property
    def total_l3_gbs(self) -> float:
        return sum(self.l3_bytes_per_s.values()) / 1e9

    @property
    def total_dram_gbs(self) -> float:
        return sum(self.dram_bytes_per_s.values()) / 1e9


class SocketBandwidthModel:
    """Evaluates the three-limit bandwidth law for one socket."""

    def __init__(self, spec: CpuSpec) -> None:
        self.spec = spec
        self.config = bandwidth_config_for(spec)
        # The uncore share of the DRAM latency term is a scalar pow of
        # the uncore frequency alone; UFS grants rotate through a small
        # discrete set, so cache the pow per uncore point (the cached
        # value is the identical float — parity-transparent).
        self._uncore_lat: dict[float, float] = {}

    _UNCORE_LAT_MAX = 256

    def _uncore_latency_ns(self, f_u_ghz: float) -> float:
        """``base_ns * (f_ref / f_u) ** 0.3``, cached per uncore point."""
        hit = self._uncore_lat.get(f_u_ghz)
        if hit is None:
            cfg = self.config
            if len(self._uncore_lat) >= self._UNCORE_LAT_MAX:
                self._uncore_lat.clear()
            hit = (cfg.dram_base_latency_ns
                   * (to_ghz(cfg.uncore_ref_hz) / f_u_ghz) ** 0.3)
            self._uncore_lat[f_u_ghz] = hit
        return hit

    # ---- per-core limits ------------------------------------------------------

    def dram_mlp_limit_bytes_per_s(self, f_core_hz: float, f_uncore_hz: float,
                                   n_threads: int) -> float:
        """Concurrency-limited per-core DRAM rate."""
        cfg = self.config
        latency = dram_latency_ns(
            f_core_hz, f_uncore_hz, cfg.uncore_ref_hz,
            base_ns=cfg.dram_base_latency_ns,
            core_cycles=cfg.dram_core_overhead_cycles,
        )
        mlp = cfg.lfb_per_core * (1.0 + cfg.ht_mlp_boost * (min(n_threads, 2) - 1))
        return mlp * 64.0 / (latency * 1e-9)

    def l3_issue_limit_bytes_per_s(self, f_core_hz: float,
                                   f_uncore_hz: float) -> float:
        """Issue-limited per-core L3 rate."""
        cfg = self.config
        ratio = f_core_hz / max(f_uncore_hz, 1.0)
        return (cfg.l3_bytes_per_core_cycle * f_core_hz
                / (1.0 + cfg.l3_kappa * ratio))

    # ---- socket solve ----------------------------------------------------------

    def solve(self, demands: list[BandwidthDemand],
              f_uncore_hz: float) -> BandwidthResult:
        cfg = self.config
        fu_ghz = to_ghz(f_uncore_hz)

        l3_demand: dict[int, float] = {}
        dram_demand: dict[int, float] = {}
        n_l3_active = sum(1 for d in demands if d.l3_bytes_per_cycle > 0)

        for d in demands:
            if d.l3_bytes_per_cycle > 0:
                issue = self.l3_issue_limit_bytes_per_s(d.f_core_hz, f_uncore_hz)
                want = d.l3_bytes_per_cycle * d.f_core_hz
                eff = 1.0 - cfg.l3_low_n_penalty / max(n_l3_active, 1)
                l3_demand[d.core_id] = min(want, issue) * eff
            if d.dram_bytes_per_cycle > 0:
                mlp = self.dram_mlp_limit_bytes_per_s(
                    d.f_core_hz, f_uncore_hz, d.n_threads)
                want = d.dram_bytes_per_cycle * d.f_core_hz
                dram_demand[d.core_id] = min(want, mlp)

        l3_capacity = cfg.l3_transport_gbs_per_uncore_ghz * fu_ghz * 1e9
        dram_capacity = min(cfg.dram_peak_gbs,
                            cfg.dram_gbs_per_uncore_ghz * fu_ghz) * 1e9

        l3_total = sum(l3_demand.values())
        dram_total = sum(dram_demand.values())
        l3_scale = min(1.0, l3_capacity / l3_total) if l3_total > 0 else 1.0
        dram_scale = min(1.0, dram_capacity / dram_total) if dram_total > 0 else 1.0

        return BandwidthResult(
            l3_bytes_per_s={cid: v * l3_scale for cid, v in l3_demand.items()},
            dram_bytes_per_s={cid: v * dram_scale for cid, v in dram_demand.items()},
            l3_throttle=l3_scale,
            dram_throttle=dram_scale,
        )

    def solve_uniform(
        self,
        n: int,                          # identical active cores
        f_core_hz: float,
        n_threads: int,                  # already max(n, 1)
        l3_bytes_per_cycle: float,
        dram_bytes_per_cycle: float,
        f_uncore_hz: float,
    ) -> tuple[float, float, float, float]:
        """:meth:`solve` for ``n`` identical active cores.

        Lockstep fleets (every active core at the same frequency, phase
        and thread count — the tick-heavy benchmark, gang-scheduled HPC
        workloads) collapse the per-core solve to a single scalar lane.
        Every expression repeats the per-demand law of :meth:`solve`
        (inlining the issue and MLP limits) with the same associativity,
        and the socket totals replay the left-to-right fold over ``n``
        equal per-core terms rather than multiplying — ``n * v`` differs
        from ``v + v + ...`` in the last ulp.

        Returns ``(l3_bytes_per_s, dram_bytes_per_s, total_l3_gbs,
        total_dram_gbs)`` with the per-core rates as scalars.
        """
        cfg = self.config
        fu_ghz = to_ghz(f_uncore_hz)
        n_l3_active = n if l3_bytes_per_cycle > 0.0 else 0

        ratio = f_core_hz / max(f_uncore_hz, 1.0)
        issue = (cfg.l3_bytes_per_core_cycle * f_core_hz
                 / (1.0 + cfg.l3_kappa * ratio))
        want_l3 = l3_bytes_per_cycle * f_core_hz
        eff = 1.0 - cfg.l3_low_n_penalty / max(n_l3_active, 1)
        l3_val = min(want_l3, issue) * eff

        f_u = max(to_ghz(f_uncore_hz), 1e-3)
        f_c = max(to_ghz(f_core_hz), 1e-3)
        latency = (self._uncore_latency_ns(f_u)
                   + cfg.dram_core_overhead_cycles / f_c)
        mlp = cfg.lfb_per_core * (
            1.0 + cfg.ht_mlp_boost * (min(n_threads, 2) - 1))
        dram_limit = mlp * 64.0 / (latency * 1e-9)
        dram_val = min(dram_bytes_per_cycle * f_core_hz, dram_limit)

        l3_capacity = cfg.l3_transport_gbs_per_uncore_ghz * fu_ghz * 1e9
        dram_capacity = min(cfg.dram_peak_gbs,
                            cfg.dram_gbs_per_uncore_ghz * fu_ghz) * 1e9

        l3_total = 0.0
        dram_total = 0.0
        for _ in range(n):
            l3_total += l3_val
            dram_total += dram_val
        l3_scale = min(1.0, l3_capacity / l3_total) if l3_total > 0 else 1.0
        dram_scale = min(1.0, dram_capacity / dram_total) \
            if dram_total > 0 else 1.0

        l3_achieved = l3_val * l3_scale
        dram_achieved = dram_val * dram_scale
        total_l3 = 0.0
        total_dram = 0.0
        for _ in range(n):
            total_l3 += l3_achieved
            total_dram += dram_achieved
        return (l3_achieved, dram_achieved,
                total_l3 / 1e9, total_dram / 1e9)
