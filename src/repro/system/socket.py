"""One processor package: cores + uncore + RAPL + segment rates.

A socket turns its operating point into per-second rates over a
segment during which every frequency, c-state and workload phase is
constant (the engine guarantees this). This is where the frequency,
bandwidth, IPC and power models meet. Every float accumulator of the
socket is an entry of the node's accumulator vector (core counters,
uncore counters, true energy, RAPL energy), which
:meth:`repro.system.node.Node.integrate` advances with one vectorized
multiply-add; :meth:`Socket.integrate` syncs the package c-state,
keeps the socket's entries of the node rate vector current, and counts
package residency.

Steady-state fast path: most consecutive segments share the exact same
operating point, so the per-second rates are computed once per *epoch*
(a socket-local dirty counter bumped by every mutation that can change
rates — frequency grants, phase swaps, c-state transitions, AVX-license
changes, uncore frequency/halt; see :mod:`repro.engine.epoch`) and
copied into the node rate block only when the epoch moves. This is the
difference between O(events x cores x models) and O(events) for the
common case. ``Node.set_fastpath(False)`` recomputes every segment from
scratch; both paths are bit-identical by construction and by test
(``tests/test_perf_fastpath.py``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from repro.cstates.states import CState, PackageCState, resolve_package_cstate
from repro.engine.epoch import EpochCell
from repro.engine import sanitize
from repro.errors import EpochConsistencyError
from repro.memory.bandwidth import BandwidthDemand, SocketBandwidthModel
from repro.power.fivr import Fivr
from repro.power.model import PowerModel, SocketPowerBreakdown
from repro.power.rapl import RaplBank
from repro.specs.cpu import CpuSpec
from repro.system.core import AVX_REQUEST_THROTTLE, AvxLicense, Core
from repro.system.counters import (
    CSTATE_ROW,
    FIELD_ROW,
    UNCORE_COUNTER_FIELDS,
    no_pending_residency,
)
from repro.system.uncore import Uncore
from repro.workloads.base import WorkloadPhase

# Modeled (pre-Haswell) RAPL underestimates idle power; the offset keeps
# the Fig. 2a idle point off the common trend like the original data.
_MODELED_IDLE_BIAS = 0.85

# Accumulator rows, resolved once (see counters.CORE_COUNTER_FIELDS).
_ROW_TSC = FIELD_ROW["tsc"]
_ROW_APERF = FIELD_ROW["aperf"]
_ROW_MPERF = FIELD_ROW["mperf"]
_ROW_INSTR_CORE = FIELD_ROW["instructions_core"]
_ROW_INSTR_T0 = FIELD_ROW["instructions_thread0"]
_ROW_STALL = FIELD_ROW["stall_cycles"]
_ROW_L3 = FIELD_ROW["l3_bytes"]
_ROW_DRAM = FIELD_ROW["dram_bytes"]
_N_FIELD_ROWS = len(FIELD_ROW)
_C0_RES_ROW = CSTATE_ROW[CState.C0]
_CSTATE_C0 = CState.C0
# The seven rows a uniform lane fills, as one fancy-index vector: one
# broadcast assignment instead of seven row-slice assignments.
_UNIFORM_ROWS = np.array(
    [_ROW_APERF, _ROW_MPERF, _ROW_INSTR_T0, _ROW_INSTR_CORE,
     _ROW_STALL, _ROW_L3, _ROW_DRAM], dtype=np.intp)
# A socket's scalar accumulators in the node vector: the uncore
# counters, true package and DRAM energy, then RaplBank.domains.
_UNCORE = slice(0, len(UNCORE_COUNTER_FIELDS))
_TRUE_PKG, _TRUE_DRAM = _UNCORE.stop, _UNCORE.stop + 1
_RAPL = slice(_UNCORE.stop + 2, None)


@dataclass(frozen=True)
class _SegmentRates:
    """Precomputed per-second rates for one socket operating point."""

    # (n_fields, n_cores) counter rates per second; copied into the
    # socket's slice of the node rate block when the epoch moves.
    rate_matrix: np.ndarray
    # per-core residency row (current c-state) in the residency matrix
    res_rows: np.ndarray
    uncore_l3_rate: float
    uncore_dram_rate: float
    uclk_rate: float
    breakdown: SocketPowerBreakdown
    bias: float
    # sizes the scalar rates; a modeled bank's carry the bias
    rapl: InitVar[RaplBank]
    # flat indices (row-major) into the residency matrix for the same
    # cells `res_rows` addresses column-wise; a 1-D fancy add on these
    # is cheaper than the 2-D (rows, cols) form and lands on the exact
    # same int64 cells.
    res_flat: np.ndarray = field(init=False)

    # the node's dc sum, precomputed once per operating point instead
    # of re-adding on every segment.
    dc_w: float = field(init=False)
    # per-second rates of the scalar accumulators, copied into the node
    # rate vector with rate_matrix (PP0 accumulates nothing: rate 0)
    scalars: np.ndarray = field(init=False)

    def __post_init__(self, rapl: RaplBank) -> None:
        n = self.res_rows.shape[0]
        object.__setattr__(self, "res_flat",
                           self.res_rows * n + np.arange(n, dtype=np.intp))
        pkg_w, dram_w = self.breakdown.package_w, self.breakdown.dram_w
        object.__setattr__(self, "dc_w", pkg_w + dram_w)
        scale = self.bias if rapl.modeled else 1.0   # x * 1.0 is exact
        scalars = np.zeros(_RAPL.start + len(rapl.domains))
        scalars[:_RAPL.start + 2] = (
            self.uclk_rate, self.uncore_l3_rate, self.uncore_dram_rate,
            pkg_w, dram_w, pkg_w * scale, dram_w * scale)
        object.__setattr__(self, "scalars", scalars)


@dataclass
class Socket:
    """Mutable state of one processor package."""

    spec: CpuSpec
    socket_id: int
    cores: list[Core]
    uncore: Uncore
    power_model: PowerModel
    bw_model: SocketBandwidthModel
    rapl: RaplBank
    # last evaluated instantaneous breakdown (for meters/PCU)
    last_breakdown: SocketPowerBreakdown | None = None
    package_cstate: PackageCState = PackageCState.PC0
    # steady-state fast path (Node.set_fastpath toggles it)
    fastpath_enabled: bool = True
    _residency_pkg_ns: dict[PackageCState, int] = field(
        default_factory=lambda: {s: 0 for s in PackageCState})

    def __post_init__(self) -> None:
        # Epoch-consistency sanitizer: the process default, read once.
        self.sanitize_enabled = sanitize.enabled()
        self._sanitize_segments = 0
        self.sanitize_checks = 0
        # Socket-local epoch; chained to the node epoch once the node
        # assembles its sockets.
        self.epoch = EpochCell()
        n = len(self.cores)
        # Structure-of-arrays counter storage: adopt every core's
        # counters as column views of one accumulator matrix. The node
        # rebinds the float counters and the rates to column slices of
        # its blocks (attach); until then the socket owns standalone
        # storage that nothing integrates into.
        self._cnt_data = np.zeros((_N_FIELD_ROWS, n), dtype=np.float64)
        self._rate_view = np.zeros_like(self._cnt_data)
        self._cnt_res = np.zeros((len(CSTATE_ROW), n), dtype=np.int64)
        self._cnt_res_flat = self._cnt_res.reshape(-1)   # shared view
        self._cols = slice(0, n)        # columns of the node block (attach)
        self._sync_residency = no_pending_residency
        for j, core in enumerate(self.cores):
            core.counters.adopt(self._cnt_data[:, j], self._cnt_res[:, j])
            core._epoch_cell = self.epoch
        # Scalar accumulators and rates; node vector entries on attach.
        self._scalars = np.zeros(_RAPL.start + len(self.rapl.domains))
        self._scalar_rates = np.zeros_like(self._scalars)
        self.uncore._epoch_cell = self.epoch
        # Epoch-keyed caches (instance state, never class-level: a
        # class-level cache slot would alias across sockets).
        self._rates: _SegmentRates | None = None
        self._rates_epoch = -1
        self._rates_memo: dict[tuple, _SegmentRates] = {}
        # Pre-filled rate-matrix template (TSC always runs at nominal);
        # a memo miss copies it instead of zeroing + refilling the row.
        self._matrix_template = np.zeros_like(self._cnt_data)
        self._matrix_template[_ROW_TSC, :] = self.spec.nominal_hz
        # Staging column for _uniform_rates' one-shot row broadcast.
        self._uniform_scratch = np.empty((len(_UNIFORM_ROWS), 1),
                                         dtype=np.float64)
        self._pkg_sync_key: tuple[int, bool] | None = None
        self._active_cache: list[Core] = []
        self._active_epoch = -1

    def attach(self, cnt_block: np.ndarray, rate_block: np.ndarray,
               first_col: int, scalars: np.ndarray,
               scalar_rates: np.ndarray, sync_residency) -> None:
        """Move every float accumulator and rate into node storage.

        Called once, by the node, before the first segment. Columns
        ``first_col : first_col + n_cores`` of the node's
        ``(n_fields, n_cores_total)`` counter and rate blocks become
        this socket's, as do ``scalars`` and ``scalar_rates`` (entries
        of the node's vectors, ``_scalars.size`` long);
        ``sync_residency`` folds the node's pending residency
        nanoseconds into every socket's residency matrix and is run
        before any of this socket's residency reads or rate
        replacements.
        """
        cols = slice(first_col, first_col + len(self.cores))
        self._cols = cols
        self._sync_residency = sync_residency
        self._cnt_data = cnt_block[:, cols]
        self._rate_view = rate_block[:, cols]
        for j, core in enumerate(self.cores):
            core.counters.adopt(self._cnt_data[:, j], self._cnt_res[:, j],
                                sync_residency)
        scalars[:] = self._scalars
        self._scalars = scalars
        self._scalar_rates = scalar_rates
        self.uncore.counters.adopt(scalars[_UNCORE])
        scalars[_RAPL] = self.rapl.energy_j
        self.rapl.energy_j = scalars[_RAPL]

    # ---- construction ---------------------------------------------------------

    @classmethod
    def build(cls, spec: CpuSpec, socket_id: int, first_core_id: int,
              voltage_offset_v: float, measured_rapl: bool) -> "Socket":
        power_model = PowerModel(spec, voltage_offset_v)
        vf_core = spec.vf_core.with_offset(voltage_offset_v)
        vf_uncore = spec.vf_uncore.with_offset(voltage_offset_v)
        cores = [
            Core(spec=spec, core_id=first_core_id + i, socket_id=socket_id,
                 fivr=Fivr(domain=f"core{first_core_id + i}", vf_curve=vf_core))
            for i in range(spec.n_cores)
        ]
        uncore = Uncore(spec=spec,
                        fivr=Fivr(domain=f"uncore{socket_id}", vf_curve=vf_uncore))
        return cls(spec=spec, socket_id=socket_id, cores=cores, uncore=uncore,
                   power_model=power_model, bw_model=SocketBandwidthModel(spec),
                   rapl=RaplBank(spec=spec, modeled=not measured_rapl))

    @property
    def energy_pkg_j(self) -> float:
        """True (unbiased, unquantized) package energy (J)."""
        return float(self._scalars[_TRUE_PKG])

    @property
    def energy_dram_j(self) -> float:
        return float(self._scalars[_TRUE_DRAM])

    # ---- views used by the PCU and instruments ----------------------------------

    def active_cores(self) -> list[Core]:
        """Cores in C0 with an active phase (cached per epoch; treat the
        returned list as read-only)."""
        if self.fastpath_enabled and self._active_epoch == self.epoch.value:
            return self._active_cache
        active = [c for c in self.cores
                  if c.cstate is CState.C0 and (p := c._phase) is not None
                  and p.active]
        self._active_cache = active
        self._active_epoch = self.epoch.value
        return active

    def breakdown_current(self) -> bool:
        """Whether :attr:`last_breakdown` is the current operating
        point's: no rate-relevant mutation since the last segment."""
        return self._rates_epoch == self.epoch.value

    def package_state_current(self, any_active_in_system: bool) -> bool:
        """Whether :meth:`sync_package_state` would change nothing."""
        return self._pkg_sync_key == (self.epoch.value, any_active_in_system)

    def counter_total(self, name: str) -> float:
        """Sum of one counter over all cores (vectorized over the SoA)."""
        return float(self._cnt_data[FIELD_ROW[name]].sum())

    def counter_totals(self, rows: slice,
                       states: np.ndarray | None = None) -> list:
        """Sums of a slice of counter rows over all cores, in one reduce.

        Each row is summed like :meth:`counter_total` sums it (the same
        pairwise reduction along the contiguous core axis), so every
        value is bit-identical to the corresponding single-row call.
        ``states`` is a stack of node counter-block states, shape
        ``(k, n_fields, n_cores_total)`` (a steady span's EET replay):
        the same reduce then yields a ``(k, n_rows)`` array of sums. By
        default the live counters are read, into a list.
        """
        if states is None:
            return np.add.reduce(self._cnt_data[rows, :], axis=-1).tolist()
        return np.add.reduce(states[..., self._cols][..., rows, :], axis=-1)

    # ---- bandwidth evaluation ------------------------------------------------------

    def _demands(self) -> list[BandwidthDemand]:
        demands = []
        for core in self.active_cores():
            phase = core.current_phase
            if phase.l3_bytes_per_cycle > 0 or phase.dram_bytes_per_cycle > 0:
                demands.append(BandwidthDemand(
                    core_id=core.core_id,
                    f_core_hz=core.freq_hz,
                    n_threads=max(core.n_threads, 1),
                    l3_bytes_per_cycle=phase.l3_bytes_per_cycle,
                    dram_bytes_per_cycle=phase.dram_bytes_per_cycle,
                ))
        return demands

    def evaluate_power(self) -> SocketPowerBreakdown:
        """Instantaneous power at the current operating point."""
        bw = self.bw_model.solve(self._demands(), self.uncore.freq_hz)
        core_points = [(c.freq_hz, c.current_phase.power_activity)
                       for c in self.active_cores()]
        return self.power_model.socket_power(
            core_points, self.uncore.freq_hz, self.uncore.halted,
            bw.total_dram_gbs)

    # ---- package state ------------------------------------------------------------

    def sync_package_state(self, any_active_in_system: bool) -> PackageCState:
        key = (self.epoch.value, any_active_in_system)
        if self.fastpath_enabled and key == self._pkg_sync_key:
            return self.package_cstate
        state = resolve_package_cstate(
            [c.cstate for c in self.cores], any_active_in_system)
        self.package_cstate = state
        if state.uncore_halted:
            self.uncore.halt()
        else:
            self.uncore.resume()
        # Re-read the epoch: halt()/resume() bump it when they flip the
        # uncore state, and that bump must invalidate the rate cache
        # (not this key — the package state is already up to date).
        self._pkg_sync_key = (self.epoch.value, any_active_in_system)
        return state

    # ---- the integrator ---------------------------------------------------------------

    def _compute_rates_scalar(self) -> "_SegmentRates":
        """Reference (per-core scalar) segment-rate computation.

        The ground truth the idle and uniform lanes of
        :meth:`_rates_from_key` are proven against: the sanitize-mode
        epoch check cross-compares both on sampled segments, and
        ``tests/test_rate_parity.py`` asserts exact equality over seeded
        operating points. It also serves every mixed (non-uniform)
        operating point, which is rare enough on every benchmarked
        workload that no vectorized lane is kept for it.
        """
        bw = self.bw_model.solve(self._demands(), self.uncore.freq_hz)
        nominal = self.spec.nominal_hz
        rate_matrix = np.zeros_like(self._cnt_data)
        rate_matrix[_ROW_TSC, :] = nominal
        res_rows = np.empty(len(self.cores), dtype=np.intp)
        core_points: list[tuple[float, float]] = []
        bias_num = 0.0
        bias_den = 0.0

        for j, core in enumerate(self.cores):
            res_rows[j] = CSTATE_ROW[core.cstate]
            phase = core.current_phase
            if not (core.is_active and phase is not None and phase.active):
                continue
            f = core.freq_hz
            throttle = self._bw_throttle(core, phase, bw)
            ipc_thread = (phase.ipc_thread(f, self.uncore.freq_hz, throttle)
                          * core.execution_throttle())
            instr_rate = ipc_thread * f
            rate_matrix[_ROW_APERF, j] = f
            rate_matrix[_ROW_MPERF, j] = nominal
            rate_matrix[_ROW_INSTR_T0, j] = instr_rate
            rate_matrix[_ROW_INSTR_CORE, j] = \
                instr_rate * max(core.n_threads, 1)
            rate_matrix[_ROW_STALL, j] = phase.stall_fraction * f
            rate_matrix[_ROW_L3, j] = bw.l3_bytes_per_s.get(core.core_id, 0.0)
            rate_matrix[_ROW_DRAM, j] = \
                bw.dram_bytes_per_s.get(core.core_id, 0.0)
            core_points.append((f, phase.power_activity))
            p_core = self.power_model.core_power_w(f, phase.power_activity)
            bias_num += p_core * phase.rapl_model_bias
            bias_den += p_core

        breakdown = self.power_model.socket_power(
            core_points, self.uncore.freq_hz, self.uncore.halted,
            bw.total_dram_gbs)
        return _SegmentRates(
            rate_matrix=rate_matrix,
            res_rows=res_rows,
            uncore_l3_rate=bw.total_l3_gbs * 1e9,
            uncore_dram_rate=bw.total_dram_gbs * 1e9,
            uclk_rate=0.0 if self.uncore.halted else self.uncore.freq_hz,
            breakdown=breakdown,
            bias=bias_num / bias_den if bias_den > 0 else _MODELED_IDLE_BIAS,
            rapl=self.rapl,
        )

    def _compute_rates(self) -> "_SegmentRates":
        """Segment rates for the current operating point, uncached.

        Byte-equal to :meth:`_compute_rates_scalar` (enforced by the
        sanitize cross-check and the rate-parity tests); cheaper when
        the socket is idle or every active core shares one lane.
        """
        return self._rates_from_key(self._gather_key())

    def _rates_from_key(self, key: tuple) -> "_SegmentRates":
        """Rate computation driven entirely by a gathered key.

        The memo key is a complete image of every input (uncore point
        plus one lane tuple or c-state per core), so a miss reads the
        key instead of re-walking the cores: one core walk serves both
        the memo probe and the recompute. A mixed operating point
        falls back to :meth:`_compute_rates_scalar`, which re-reads the
        live cores the key was just gathered from.
        """
        fu = key[0]
        halted = key[1]
        c0_row = _C0_RES_ROW
        res_list: list[int] = []
        cols: list[int] = []                   # active core columns
        lane0: tuple | None = None
        uniform = True
        for j, part in enumerate(key[2:]):
            if type(part) is tuple:
                res_list.append(c0_row)
                cols.append(j)
                if lane0 is None:
                    lane0 = part
                elif uniform and part != lane0:
                    uniform = False
            else:
                res_list.append(CSTATE_ROW[part])
        if not uniform:
            return self._compute_rates_scalar()
        res_rows = np.array(res_list, dtype=np.intp)

        rate_matrix = self._matrix_template.copy()
        if not cols:
            breakdown = self.power_model.socket_power(
                [], fu, halted, 0.0)
            return _SegmentRates(
                rate_matrix=rate_matrix, res_rows=res_rows,
                uncore_l3_rate=0.0, uncore_dram_rate=0.0,
                uclk_rate=0.0 if halted else fu,
                breakdown=breakdown, bias=_MODELED_IDLE_BIAS,
                rapl=self.rapl)

        f0, phase0, nthr0, exec0 = lane0
        return self._uniform_rates(
            rate_matrix, res_rows, cols,
            (f0, phase0, max(nthr0, 1), exec0), fu, halted)

    def _uniform_rates(self, rate_matrix: np.ndarray, res_rows: np.ndarray,
                       cols: list[int], lane: tuple, fu: float,
                       halted: bool) -> "_SegmentRates":
        """Single-lane segment rates for a homogeneous socket.

        Every active core shares one ``(freq, phase, threads, throttle)``
        lane — lockstep fleets, gang-scheduled sweeps, the tick-heavy
        benchmark — so the per-lane laws are evaluated once as scalars
        and broadcast into the rate matrix. Each expression repeats the
        per-core law of :meth:`_compute_rates_scalar` with the same
        associativity, and the cross-core reductions replay its
        left-to-right fold over ``n`` equal terms. Guarded by the
        sanitize cross-check and ``tests/test_rate_parity.py``.
        """
        f, phase, nthr, exec_throttle = lane
        n = len(cols)
        l3pc = phase.l3_bytes_per_cycle
        drpc = phase.dram_bytes_per_cycle

        l3_rate, dram_rate, l3_gbs, dram_gbs = self.bw_model.solve_uniform(
            n, f, nthr, l3pc, drpc, fu)

        throttle = 1.0
        if phase.bw_bound:
            want = (l3pc + drpc) * f
            if want > 0.0:
                throttle = min(1.0, (l3_rate + dram_rate) / want)

        par = phase.ipc_parity
        ratio = f / max(fu, 1.0)
        ipc = par + phase.ipc_uncore_slope * (1.0 - ratio)
        ipc = max(ipc, 0.05 * par)
        ipc = ipc * throttle
        ipc_thread = ipc * exec_throttle
        instr = ipc_thread * f

        if n == rate_matrix.shape[1]:
            # Whole socket active: one (7,1)-over-(7,n) broadcast fills
            # every row. The scratch column holds plain scalars, so the
            # elements are the identical floats the row-by-row
            # assignments would store.
            scratch = self._uniform_scratch
            scratch[0, 0] = f
            scratch[1, 0] = self.spec.nominal_hz
            scratch[2, 0] = instr
            scratch[3, 0] = instr * nthr
            scratch[4, 0] = phase.stall_fraction * f
            scratch[5, 0] = l3_rate
            scratch[6, 0] = dram_rate
            rate_matrix[_UNIFORM_ROWS] = scratch
        else:
            col_idx = np.array(cols, dtype=np.intp)
            rate_matrix[_ROW_APERF, col_idx] = f
            rate_matrix[_ROW_MPERF, col_idx] = self.spec.nominal_hz
            rate_matrix[_ROW_INSTR_T0, col_idx] = instr
            rate_matrix[_ROW_INSTR_CORE, col_idx] = instr * nthr
            rate_matrix[_ROW_STALL, col_idx] = phase.stall_fraction * f
            rate_matrix[_ROW_L3, col_idx] = l3_rate
            rate_matrix[_ROW_DRAM, col_idx] = dram_rate

        p_core = self.power_model.core_power_w(f, phase.power_activity)
        p_bias = p_core * phase.rapl_model_bias
        bias_num = 0.0
        bias_den = 0.0
        for _ in range(n):
            bias_num += p_bias
            bias_den += p_core

        breakdown = SocketPowerBreakdown(
            static_w=self.spec.power.static_w,
            core_dyn_w=bias_den,
            uncore_w=self.power_model.uncore_power_w(fu, halted),
            dram_w=self.power_model.dram_power_w(dram_gbs))
        return _SegmentRates(
            rate_matrix=rate_matrix,
            res_rows=res_rows,
            uncore_l3_rate=l3_gbs * 1e9,
            uncore_dram_rate=dram_gbs * 1e9,
            uclk_rate=0.0 if halted else fu,
            breakdown=breakdown,
            bias=bias_num / bias_den if bias_den > 0 else _MODELED_IDLE_BIAS,
            rapl=self.rapl,
        )

    # Operating-point memo: tick-heavy workloads cycle through a handful
    # of phase combinations, each revisit bumping the epoch; the memo
    # keys the full rate computation on the operating point itself so a
    # revisited point costs one key build instead of a model evaluation.
    _RATES_MEMO_MAX = 256

    def _gather_key(self) -> tuple:
        """Hashable image of every rate-computation input.

        Phases are frozen dataclasses compared by value, so the key
        cannot alias across distinct operating points; keying by value
        (not ``id``) also makes entries immune to object reuse. The key
        doubles as the gather: :meth:`_rates_from_key` reads its lane
        tuples instead of walking the cores a second time.
        """
        uncore = self.uncore
        requesting = AvxLicense.REQUESTING
        c0 = _CSTATE_C0
        # One comprehension, one conditional expression per core; the
        # throttle term inlines core.execution_throttle().
        return (uncore.freq_hz, uncore.halted) + tuple(
            [(core.freq_hz, p, core._nthr,
              AVX_REQUEST_THROTTLE
              if core.avx_license is requesting else 1.0)
             if (core.cstate is c0 and (p := core._phase) is not None
                 and p.active)
             else core.cstate
             for core in self.cores])

    def _segment_rates(self) -> "_SegmentRates":
        key = self._gather_key()
        rates = self._rates_memo.get(key)
        if rates is None:
            rates = self._memoize(key, self._rates_from_key(key))
        return rates

    def _memoize(self, key: tuple, rates: "_SegmentRates"
                 ) -> "_SegmentRates":
        """Stores ``rates`` as the memo's entry for ``key``."""
        memo = self._rates_memo
        if len(memo) >= self._RATES_MEMO_MAX:
            memo.clear()
        memo[key] = rates
        return rates

    def _adopt_rates(self, rates: "_SegmentRates") -> "_SegmentRates":
        """Makes ``rates`` the cached rates of the current epoch and
        writes them into this socket's entries of the node rate
        vectors (fold the pending residency first)."""
        self._rates = rates
        self._rates_epoch = self.epoch.value
        self._rate_view[...] = rates.rate_matrix
        self._scalar_rates[...] = rates.scalars
        return rates

    def landed_lane(self) -> tuple | None:
        """What a landed grant leaves of this operating point besides
        the active cores' one clock, gathered once for every landing of
        a steady span: ``(key, res_rows, cols, lane)``, the memo key
        (:meth:`_gather_key`), the residency rows, the active core
        columns and their shared ``(phase, threads, throttle)``. None
        when no core is active or the active cores differ in more than
        their clocks (a mixed point's rates read the live cores)."""
        key = self._gather_key()
        res_list: list[int] = []
        cols: list[int] = []
        lane = None
        for j, part in enumerate(key[2:]):
            if type(part) is tuple:
                res_list.append(_C0_RES_ROW)
                cols.append(j)
                if lane is None:
                    lane = part[1:]
                elif part[1:] != lane:
                    return None
            else:
                res_list.append(CSTATE_ROW[part])
        if lane is None:
            return None
        res_rows = np.array(res_list, dtype=np.intp)
        res_rows.flags.writeable = False     # shared by every landing
        return key, res_rows, cols, lane

    def landed_rates(self, lane: tuple, f_hz: float) -> "_SegmentRates":
        """The segment rates of :meth:`landed_lane`'s point with every
        active core's clock at ``f_hz``: what the first segment after
        the landing computes (a memo hit holds the same rates)."""
        key, res_rows, cols, (phase, nthr, exec_throttle) = lane
        return self._uniform_rates(
            self._matrix_template.copy(), res_rows, cols,
            (f_hz, phase, max(nthr, 1), exec_throttle), key[0], key[1])

    @staticmethod
    def landed_key(lane: tuple, f_hz: float) -> tuple:
        """The memo key of :meth:`landed_rates`' point."""
        key = lane[0]
        return key[:2] + tuple([(f_hz,) + part[1:] if type(part) is tuple
                                else part for part in key[2:]])

    def cohort_lane(self, moved: int) -> tuple | None:
        """:meth:`landed_lane` when the ``moved`` cores a phase cohort
        advances on this socket are all its active cores and share one
        clock, so they share one lane on their next phase too; else
        None."""
        lane = self.landed_lane()
        if lane is None or len(lane[2]) != moved:
            return None
        key = lane[0]
        f_hz = key[2 + lane[2][0]][0]
        if any(key[2 + j][0] != f_hz for j in lane[2]):
            return None
        return lane

    def cohort_rates(self, lane: tuple, phase: WorkloadPhase) -> tuple:
        """The memo key and segment rates of :meth:`cohort_lane`'s point
        with every active core on ``phase``: what the first segment
        after the cohort computes, a memo hit or the uniform lane of
        :meth:`_rates_from_key`. The active cores share one clock and
        lane (:meth:`cohort_lane`), so they share one key part."""
        key, _, cols, (_, nthr, exec_throttle) = lane
        active = (key[2 + cols[0]][0], phase, nthr, exec_throttle)
        key = key[:2] + tuple([active if type(part) is tuple else part
                               for part in key[2:]])
        rates = self._rates_memo.get(key)
        return key, rates if rates is not None else self._rates_from_key(key)

    def integrate(self, dt_ns: int, any_active_in_system: bool) -> None:
        """This socket's share of one node segment of ``dt_ns`` (> 0).

        Brings the socket's entries of the node rate vector up to date
        and counts package residency; every float accumulator is
        advanced by :meth:`repro.system.node.Node.integrate` once every
        socket has run.
        """
        # Inline fast check of sync_package_state's memo key; the method
        # re-resolves only when the epoch or system activity moved.
        if not (self.fastpath_enabled
                and self._pkg_sync_key == (self.epoch.value,
                                           any_active_in_system)):
            self.sync_package_state(any_active_in_system)

        rates = self._rates
        if (rates is None or not self.fastpath_enabled
                or self._rates_epoch != self.epoch.value):
            # The pending residency was earned at the outgoing rows.
            self._sync_residency()
            # Fastpath consults the operating-point memo; with the fast
            # path off every segment recomputes genuinely (bit-identical
            # either way — the memo stores what the computation returns).
            rates = self._adopt_rates(self._segment_rates()
                                      if self.fastpath_enabled
                                      else self._compute_rates())
        elif self.sanitize_enabled:
            self._check_epoch_consistency(rates)
        self.last_breakdown = rates.breakdown
        self._residency_pkg_ns[self.package_cstate] += dt_ns

    def adopt(self, key: tuple, rates: "_SegmentRates",
              any_active_in_system: bool) -> None:
        """What the first segment after a steady span's last landed
        grant or carried phase cohort does before it integrates
        (:meth:`integrate`): the package-state sync and the rate
        refresh to ``rates``, under the memo ``key``."""
        self.sync_package_state(any_active_in_system)
        self._sync_residency()
        hit = self._rates_memo.get(key)
        rates = self._adopt_rates(hit if hit is not None
                                  else self._memoize(key, rates))
        self.last_breakdown = rates.breakdown

    def remember(self, key: tuple, rates: "_SegmentRates") -> None:
        """The memo insert of a segment that refreshed to ``rates`` under
        ``key`` inside a steady span, before its last refresh."""
        if key not in self._rates_memo:
            self._memoize(key, rates)

    def absorb_span(self, elapsed_ns: int, n_hits: int) -> None:
        """Commit a steady span of ``elapsed_ns`` at the current package
        state (the node has written the accumulators), ``n_hits`` of
        whose segments kept their cached rates."""
        self._residency_pkg_ns[self.package_cstate] += elapsed_ns
        if self.sanitize_enabled and n_hits:
            self._check_epoch_consistency(self._rates, n_hits)

    def _check_epoch_consistency(self, cached: "_SegmentRates",
                                 n_segments: int = 1) -> None:
        """Sanitize mode: recompute the cached rates on a sampled segment.

        Runs on cache-hit segments only, every ``EPOCH_CHECK_STRIDE``-th
        hit; a steady span counts its ``n_segments`` hits at once and
        runs the check once if a stride boundary falls among them. The
        fresh recompute goes through :meth:`_compute_rates` —
        the path integration actually uses — deliberately bypassing the
        operating-point memo (a memo hit would just echo the
        possibly-stale cache back at itself). Both the cached
        ``_SegmentRates`` and the socket's entries of the node rate
        vector (what the node actually integrates: its slice of the
        rate block and its scalar rates) must equal it. It is then
        cross-checked
        against the scalar reference, so one sampled segment catches
        both failure modes: a rate-relevant mutation that skipped the
        epoch bump, and a bug that made the idle or uniform lane drift
        from the per-core math. Both computations are pure (no RNG, no
        state mutation), so the check observes without perturbing.
        """
        counter = self._sanitize_segments
        self._sanitize_segments = counter + n_segments
        stride = sanitize.EPOCH_CHECK_STRIDE
        # Stride boundaries among the hits counter .. counter + n - 1;
        # the check is pure, so one run covers every boundary a steady
        # span's segments cross.
        due = (counter + n_segments - 1) // stride - (counter - 1) // stride
        if not due:
            return
        self.sanitize_checks += due
        fresh = self._compute_rates()
        if not np.array_equal(cached.rate_matrix, fresh.rate_matrix):
            bad = np.argwhere(
                cached.rate_matrix != fresh.rate_matrix)[0]
            raise EpochConsistencyError(
                f"socket {self.socket_id}: cached segment rates diverge "
                f"from a fresh recompute at epoch {self.epoch.value} "
                f"(first at row {bad[0]}, core column {bad[1]}) — a "
                "rate-relevant field was mutated without an epoch bump")
        if not np.array_equal(self._rate_view, fresh.rate_matrix):
            bad = np.argwhere(self._rate_view != fresh.rate_matrix)[0]
            raise EpochConsistencyError(
                f"socket {self.socket_id}: the node rate block diverges "
                f"from a fresh recompute at epoch {self.epoch.value} "
                f"(first at row {bad[0]}, core column {bad[1]}) — the "
                "block was written outside a rate refresh")
        if not np.array_equal(self._scalar_rates, fresh.scalars):
            bad = np.argwhere(self._scalar_rates != fresh.scalars)[0]
            raise EpochConsistencyError(
                f"socket {self.socket_id}: the node rate vector diverges "
                f"from a fresh recompute at epoch {self.epoch.value} "
                f"(first at scalar entry {bad[0]}) — the vector was "
                "written outside a rate refresh")
        if not np.array_equal(cached.res_rows, fresh.res_rows):
            raise EpochConsistencyError(
                f"socket {self.socket_id}: cached c-state residency rows "
                f"diverge from a fresh recompute at epoch "
                f"{self.epoch.value} — a c-state change skipped the "
                "__setattr__-intercepted path")
        reference = self._compute_rates_scalar()
        if not (np.array_equal(fresh.rate_matrix, reference.rate_matrix)
                and np.array_equal(fresh.res_rows, reference.res_rows)
                and fresh.uncore_l3_rate == reference.uncore_l3_rate
                and fresh.uncore_dram_rate == reference.uncore_dram_rate
                and fresh.uclk_rate == reference.uclk_rate
                and fresh.bias == reference.bias
                and fresh.breakdown == reference.breakdown):
            raise EpochConsistencyError(
                f"socket {self.socket_id}: segment rates diverge from "
                f"the scalar reference at epoch {self.epoch.value} — the "
                "idle/uniform lane lost bit-parity with the per-core math")

    @staticmethod
    def _bw_throttle(core: Core, phase: WorkloadPhase, bw) -> float:
        """Achieved/demanded traffic ratio for bandwidth-bound phases."""
        if not phase.bw_bound:
            return 1.0
        want = ((phase.l3_bytes_per_cycle + phase.dram_bytes_per_cycle)
                * core.freq_hz)
        if want <= 0:
            return 1.0
        got = (bw.l3_bytes_per_s.get(core.core_id, 0.0)
               + bw.dram_bytes_per_s.get(core.core_id, 0.0))
        return min(1.0, got / want)

    # ---- residency accessor ---------------------------------------------------

    def package_residency_ns(self, state: PackageCState) -> int:
        return self._residency_pkg_ns[state]
