"""Turbo bins and TDP budget enforcement (Sections II-E/F, V-B).

The limiter reproduces the balanced-EPB behaviour measured in Table IV:

* targets above the budget scale core and uncore down together along a
  clock-parity line (turbo/2.5/2.4 GHz settings -> ~2.31 GHz core,
  ~2.33 GHz uncore);
* targets that *almost* exhaust the budget are undershot slightly and
  the freed headroom handed to the uncore (2.3 GHz -> ~2.27 core,
  ~2.5 uncore — the paper's 1 % IPS win over turbo);
* comfortable targets run at the request with the uncore soaking all
  remaining headroom up to its UFS target (2.2 GHz -> uncore ~2.8;
  2.1 GHz -> below 120 W, nothing throttles, uncore at 3.0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.rng import DrawBatch
from repro.pcu.epb import Epb
from repro.power.model import PowerModel
from repro.specs.cpu import CpuSpec
from repro.util.roots import brentq

# Uncore/core clock-parity ratio the PCU maintains when both domains are
# power constrained (balanced EPB).
PARITY = 1.01
# Budget utilization above which the PCU undershoots the core request and
# shifts headroom to the uncore.
NEAR_BUDGET_UTILIZATION = 0.97
CORE_UNDERSHOOT = 0.013
# Control-loop dither on TDP-bound grants (the duty-cycling hardware
# oscillation that makes measured medians sit between 100 MHz bins).
DITHER_SIGMA_HZ = 5e6


@dataclass(frozen=True)
class FrequencyDecision:
    """One PCU tick's frequency grants for a socket."""

    core_targets_hz: dict[int, float]    # per active core id
    uncore_hz: float | None              # None = clock halted
    tdp_bound: bool


@dataclass(frozen=True)
class SolvedPoint:
    """The pure part of a decision: the budget split before dither."""

    core_hz: float | None       # common core grant; None = no core grants
    uncore_hz: float | None     # None = clock halted
    tdp_bound: bool
    f_common_hz: float          # fastest target (the dither's ceiling)


class TdpLimiter:
    """Computes frequency grants under the package power budget."""

    #: The arguments of one dither draw, ``normal(*DITHER_ARGS)``.
    DITHER_ARGS = (0.0, DITHER_SIGMA_HZ)

    def __init__(self, spec: CpuSpec, power_model: PowerModel,
                 budget_w: float | None = None) -> None:
        self.spec = spec
        self.power_model = power_model
        self.budget_w = budget_w if budget_w is not None else spec.tdp_w
        # The solve is a pure function of its inputs; workloads present
        # a small rotating set of (target, activity, ufs) points —
        # steady fleets one, phase-cycling fleets one per phase mix —
        # so memoize the Brent solve per input point and
        # re-dither on top (:meth:`grant`). A single-entry cache
        # thrashes as soon as two phase mixes alternate.
        self._solve_memo: dict[tuple, tuple[float, float, bool]] = {}
        # How often the memo was cleared: a key it held is still there
        # while this count stands.
        self.memo_clears = 0

    _SOLVE_MEMO_MAX = 128

    # ---- per-core pre-TDP target ------------------------------------------------

    def core_target_hz(self, requested_hz: float | None, n_active: int,
                       avx_capped: bool, epb: Epb, turbo_enabled: bool,
                       eet_trim_hz: float) -> float:
        """Request + turbo bins + EPB semantics + EET trim (no TDP yet)."""
        bin_cap = self.spec.turbo.limit(n_active, avx_capped)
        if requested_hz is None:
            target = bin_cap if turbo_enabled else self.spec.nominal_hz
        elif (epb is Epb.PERFORMANCE
              and requested_hz >= self.spec.nominal_hz):
            # Section II-C: EPB=performance activates turbo even when the
            # base frequency is selected.
            target = bin_cap if turbo_enabled else self.spec.nominal_hz
        else:
            target = requested_hz
        target = min(target, bin_cap)
        target = max(target - eet_trim_hz, self.spec.min_hz)
        return target

    # ---- socket-level decision -----------------------------------------------------

    def decide(
        self,
        targets_hz: dict[int, float],        # active core id -> pre-TDP target
        activity_sum: float,
        ufs_target_hz: float | None,
        rng: "np.random.Generator | DrawBatch | None" = None,
    ) -> FrequencyDecision:
        """One tick's grants: the pure :meth:`solve` plus the dithered
        :meth:`grant` on top."""
        return self.grant(self.solve(targets_hz, activity_sum, ufs_target_hz),
                          targets_hz, rng)

    def solve(self, targets_hz: dict[int, float], activity_sum: float,
              ufs_target_hz: float | None,
              cached_only: bool = False) -> SolvedPoint | None:
        """The budget split for these inputs, before dither (pure).

        With ``cached_only`` a memo miss returns None instead of
        solving: the memo's visits stay those of the decisions."""
        spec = self.spec
        if ufs_target_hz is None:
            # Package sleeping: no active cores by definition.
            return SolvedPoint(None, None, False, 0.0)
        ufs_cap = min(ufs_target_hz, spec.uncore_max_hz)
        if not targets_hz:
            return SolvedPoint(None, ufs_cap, False, 0.0)

        budget = self.budget_w
        f_common = max(targets_hz.values())

        key = (round(f_common), round(activity_sum, 6), round(ufs_cap), budget)
        memo = self._solve_memo
        hit = memo.get(key)
        if hit is None:
            if cached_only:
                return None
            hit = self._solve(f_common, activity_sum, ufs_cap, budget)
            if len(memo) >= self._SOLVE_MEMO_MAX:
                memo.clear()
                self.memo_clears += 1
            memo[key] = hit
        f_core, f_uncore, tdp_bound = hit
        return SolvedPoint(f_core, f_uncore, tdp_bound, f_common)

    def dither(self, point: SolvedPoint,
               rng: "np.random.Generator | DrawBatch | None" = None,
               ) -> float | None:
        """The common core grant of ``point`` for one decision.

        The only place a decision draws: a TDP-bound point takes one
        dither draw per call, so every caller consumes the same stream
        at the same ledger site.
        """
        f_core = point.core_hz
        if f_core is None or not point.tdp_bound or rng is None:
            return f_core
        # The PCU hands in a batched buffer; callers with a bare
        # generator (tuning scripts, tests) draw directly. Same
        # distribution, same one-draw-per-decision ledger footprint.
        if isinstance(rng, DrawBatch):
            dither = self.take_dithers(rng)
        else:
            dither = float(rng.normal(*self.DITHER_ARGS))
        return self.dithered(point, dither)

    @staticmethod
    def take_dithers(batch: DrawBatch, k: int | None = None):
        """The dither draw site of a PCU's batch: one draw (``k`` None),
        refilling as needed, or the next ``k`` at once, never refilling
        (the ticks of a steady span, :meth:`DrawBatch.take_n`)."""
        take, take_n = batch.take, batch.take_n
        args = TdpLimiter.DITHER_ARGS
        # One line, so both forms record the same ledger site.
        return take(*args) if k is None else take_n(k, *args)

    def dithered(self, point: SolvedPoint, dither: float) -> float:
        """The grant of a TDP-bound ``point`` under one dither draw."""
        return min(max(point.core_hz + dither, self.spec.min_hz),
                   point.f_common_hz)

    def dithered_n(self, point: SolvedPoint, dithers: np.ndarray,
                   cap_hz: float) -> np.ndarray:
        """:meth:`dithered` for an array of draws, each grant then capped
        at ``cap_hz``: the same IEEE operations, elementwise (two caps
        in a row are one at the lower)."""
        return np.minimum(np.maximum(point.core_hz + dithers,
                                     self.spec.min_hz),
                          min(point.f_common_hz, cap_hz))

    def grant(self, point: SolvedPoint, targets_hz: dict[int, float],
              rng: "np.random.Generator | DrawBatch | None" = None,
              ) -> FrequencyDecision:
        """Grants for ``targets_hz`` at a solved point (one
        :meth:`dither`)."""
        return self.grant_at(point, self.dither(point, rng), targets_hz)

    @staticmethod
    def grant_at(point: SolvedPoint, f_core: float | None,
                 targets_hz: dict[int, float]) -> FrequencyDecision:
        """The decision that grants ``f_core``, already dithered, to
        every target above it."""
        if f_core is None:
            return FrequencyDecision(core_targets_hz={},
                                     uncore_hz=point.uncore_hz,
                                     tdp_bound=False)
        # min(t, f_core), spelled out: this runs on every applied grant.
        grants = {cid: f_core if f_core < t else t
                  for cid, t in targets_hz.items()}
        return FrequencyDecision(core_targets_hz=grants,
                                 uncore_hz=point.uncore_hz,
                                 tdp_bound=point.tdp_bound)

    def _solve(self, f_common: float, activity_sum: float, ufs_cap: float,
               budget: float) -> tuple[float, float, bool]:
        spec = self.spec

        def fu_parity(f_c: float) -> float:
            return min(max(f_c * PARITY, spec.uncore_min_hz), ufs_cap)

        p_at_request = self.power_model.package_power_at(
            f_common, fu_parity(f_common), activity_sum)

        if p_at_request > budget:
            # Both domains constrained: shrink along the parity line.
            def excess(f_c: float) -> float:
                return self.power_model.package_power_at(
                    f_c, fu_parity(f_c), activity_sum) - budget

            lo, hi = spec.min_hz, f_common
            if excess(lo) >= 0.0:
                f_core = lo
            else:
                f_core = brentq(excess, lo, hi, xtol=1e5)
            return f_core, fu_parity(f_core), True
        if p_at_request > NEAR_BUDGET_UTILIZATION * budget:
            # Near the edge: undershoot the core, hand headroom to uncore —
            # but never below the lowest ratio the silicon can grant.
            f_core = max(f_common * (1.0 - CORE_UNDERSHOOT), spec.min_hz)
        else:
            f_core = f_common
        f_uncore = min(ufs_cap, self.power_model.solve_uncore_for_budget(
            f_core, activity_sum, budget))
        f_uncore = max(f_uncore, spec.uncore_min_hz)
        return f_core, f_uncore, False
