"""PCU building blocks: EPB, UFS, EET, turbo/TDP limiter."""

import numpy as np
import pytest

from repro.engine import sanitize
from repro.errors import ConfigurationError
from repro.pcu.eet import EetController
from repro.pcu.epb import CANONICAL_ENCODING, Epb, decode_epb, encode_epb
from repro.pcu.turbo import TdpLimiter
from repro.pcu.ufs import STALL_THRESHOLD, ufs_target_hz
from repro.power.model import PowerModel
from repro.specs.cpu import E5_2670_SNB, E5_2680_V3
from repro.units import ghz


class TestEpb:
    """Section II-C: 16 encodings, 3 behaviours."""

    def test_canonical_values(self):
        assert decode_epb(0) is Epb.PERFORMANCE
        assert decode_epb(6) is Epb.BALANCED
        assert decode_epb(15) is Epb.POWERSAVE

    def test_measured_mapping_1_to_7_balanced(self):
        for v in range(1, 8):
            assert decode_epb(v) is Epb.BALANCED

    def test_measured_mapping_8_to_15_powersave(self):
        for v in range(8, 16):
            assert decode_epb(v) is Epb.POWERSAVE

    def test_encode_roundtrip(self):
        for epb in Epb:
            assert decode_epb(encode_epb(epb)) is epb
        assert CANONICAL_ENCODING[Epb.BALANCED] == 6

    def test_rejects_out_of_field(self):
        with pytest.raises(ConfigurationError):
            decode_epb(16)
        with pytest.raises(ConfigurationError):
            decode_epb(-1)


class TestUfs:
    """Table III / Section V-A."""

    def test_halted_when_package_sleeps(self):
        assert ufs_target_hz(E5_2680_V3, Epb.BALANCED, package_sleeping=True,
                             socket_has_active_core=False,
                             max_stall_fraction=0.0,
                             system_fastest_setting_hz=ghz(2.5)) is None

    def test_epb_performance_pins_max(self):
        assert ufs_target_hz(E5_2680_V3, Epb.PERFORMANCE,
                             package_sleeping=False,
                             socket_has_active_core=True,
                             max_stall_fraction=0.0,
                             system_fastest_setting_hz=ghz(2.5)) \
            == E5_2680_V3.uncore_max_hz

    def test_memory_stalls_pin_max_even_at_low_core_freq(self):
        # "3.0 GHz ... also for lower core frequencies"
        assert ufs_target_hz(E5_2680_V3, Epb.BALANCED,
                             package_sleeping=False,
                             socket_has_active_core=True,
                             max_stall_fraction=0.5,
                             system_fastest_setting_hz=ghz(1.2)) \
            == E5_2680_V3.uncore_max_hz

    @pytest.mark.parametrize("setting,active,passive", [
        (None, 3.0, 2.95),
        (2.5, 2.2, 2.1),
        (2.3, 2.0, 1.9),
        (2.0, 1.75, 1.65),
        (1.8, 1.6, 1.5),
        (1.5, 1.3, 1.2),
        (1.2, 1.2, 1.2),
    ])
    def test_no_stall_table(self, setting, active, passive):
        setting_hz = None if setting is None else ghz(setting)
        got_active = ufs_target_hz(E5_2680_V3, Epb.BALANCED, False, True,
                                   0.0, setting_hz)
        got_passive = ufs_target_hz(E5_2680_V3, Epb.BALANCED, False, False,
                                    0.0, setting_hz)
        assert got_active == pytest.approx(ghz(active))
        assert got_passive == pytest.approx(ghz(passive))

    def test_stall_threshold_is_small(self):
        assert 0.0 < STALL_THRESHOLD <= 0.1

    def test_non_ufs_parts_rejected(self):
        with pytest.raises(ConfigurationError):
            ufs_target_hz(E5_2670_SNB, Epb.BALANCED, False, True, 0.0,
                          ghz(2.0))


class TestEet:
    def test_trim_scales_with_stalls_and_epb(self):
        eet = EetController()
        eet.poll(0.25, Epb.POWERSAVE)
        power_trim = eet.trim_hz
        eet.poll(0.25, Epb.BALANCED)
        bal_trim = eet.trim_hz
        eet.poll(0.25, Epb.PERFORMANCE)
        perf_trim = eet.trim_hz
        assert power_trim > bal_trim > perf_trim == 0.0
        assert power_trim == pytest.approx(0.25 * ghz(0.2))

    def test_no_stalls_no_trim(self):
        eet = EetController()
        eet.poll(0.0, Epb.POWERSAVE)
        assert eet.trim_hz == 0.0

    def test_disabled_never_trims(self):
        eet = EetController(enabled=False)
        eet.poll(0.9, Epb.POWERSAVE)
        assert eet.trim_hz == 0.0

    def test_trim_is_stale_between_polls(self):
        # the 1 ms sporadic polling the paper warns about: the trim keeps
        # the value of the *last* poll regardless of current stalls
        eet = EetController()
        eet.poll(0.5, Epb.POWERSAVE)
        stale = eet.trim_hz
        assert eet.trim_hz == stale        # unchanged until next poll
        eet.poll(0.0, Epb.POWERSAVE)
        assert eet.trim_hz == 0.0


class TestTdpLimiter:
    @pytest.fixture
    def limiter(self) -> TdpLimiter:
        return TdpLimiter(E5_2680_V3, PowerModel(E5_2680_V3))

    def test_turbo_request_uses_bins(self, limiter):
        t = limiter.core_target_hz(None, n_active=1, avx_capped=False,
                                   epb=Epb.BALANCED, turbo_enabled=True,
                                   eet_trim_hz=0.0)
        assert t == pytest.approx(ghz(3.3))
        t = limiter.core_target_hz(None, n_active=12, avx_capped=True,
                                   epb=Epb.BALANCED, turbo_enabled=True,
                                   eet_trim_hz=0.0)
        assert t == pytest.approx(ghz(2.8))

    def test_turbo_disabled_caps_at_nominal(self, limiter):
        t = limiter.core_target_hz(None, n_active=1, avx_capped=False,
                                   epb=Epb.BALANCED, turbo_enabled=False,
                                   eet_trim_hz=0.0)
        assert t == pytest.approx(ghz(2.5))

    def test_epb_performance_turbos_at_base_request(self, limiter):
        # Section II-C: EPB=performance activates turbo even when the
        # base frequency is selected
        t = limiter.core_target_hz(ghz(2.5), n_active=12, avx_capped=False,
                                   epb=Epb.PERFORMANCE, turbo_enabled=True,
                                   eet_trim_hz=0.0)
        assert t == pytest.approx(ghz(2.9))

    def test_explicit_request_honored_otherwise(self, limiter):
        t = limiter.core_target_hz(ghz(1.8), n_active=12, avx_capped=False,
                                   epb=Epb.PERFORMANCE, turbo_enabled=True,
                                   eet_trim_hz=0.0)
        assert t == pytest.approx(ghz(1.8))

    def test_eet_trim_subtracts(self, limiter):
        t = limiter.core_target_hz(ghz(2.5), n_active=12, avx_capped=False,
                                   epb=Epb.POWERSAVE, turbo_enabled=True,
                                   eet_trim_hz=ghz(0.05))
        assert t == pytest.approx(ghz(2.45))

    def test_decide_unconstrained_grants_requests(self, limiter):
        decision = limiter.decide({0: ghz(2.5)}, activity_sum=0.2,
                                  ufs_target_hz=ghz(2.2))
        assert decision.core_targets_hz[0] == pytest.approx(ghz(2.5))
        assert decision.uncore_hz == pytest.approx(ghz(2.2))
        assert not decision.tdp_bound

    def test_decide_tdp_bound_matches_table4(self, limiter):
        # 12 FIRESTARTER-HT cores at the AVX turbo bin -> ~2.31/2.33 GHz
        targets = {i: ghz(2.8) for i in range(12)}
        decision = limiter.decide(targets, activity_sum=12.0,
                                  ufs_target_hz=ghz(3.0))
        assert decision.tdp_bound
        granted = decision.core_targets_hz[0]
        assert granted == pytest.approx(ghz(2.31), rel=0.02)
        assert decision.uncore_hz == pytest.approx(granted * 1.01, rel=0.01)

    def test_decide_headroom_goes_to_uncore(self, limiter):
        # Table IV, 2.2 GHz setting: core at request, uncore ~2.8
        targets = {i: ghz(2.2) for i in range(12)}
        decision = limiter.decide(targets, activity_sum=12.0,
                                  ufs_target_hz=ghz(3.0))
        assert not decision.tdp_bound
        assert decision.core_targets_hz[0] == pytest.approx(ghz(2.2))
        assert decision.uncore_hz == pytest.approx(ghz(2.8), rel=0.03)

    def test_decide_near_budget_undershoots_core(self, limiter):
        # Table IV, 2.3 GHz setting: slight core undershoot, uncore ~2.5
        targets = {i: ghz(2.3) for i in range(12)}
        decision = limiter.decide(targets, activity_sum=12.0,
                                  ufs_target_hz=ghz(3.0))
        granted = decision.core_targets_hz[0]
        assert ghz(2.25) < granted < ghz(2.3)
        assert decision.uncore_hz > ghz(2.4)

    def test_decide_untouched_below_budget(self, limiter):
        # 2.1 GHz setting: nothing throttles, uncore free to hit 3.0
        targets = {i: ghz(2.1) for i in range(12)}
        decision = limiter.decide(targets, activity_sum=12.0,
                                  ufs_target_hz=ghz(3.0))
        assert not decision.tdp_bound
        assert decision.core_targets_hz[0] == pytest.approx(ghz(2.1))
        assert decision.uncore_hz == pytest.approx(ghz(3.0))

    def test_decide_respects_ufs_cap(self, limiter):
        targets = {0: ghz(2.5)}
        decision = limiter.decide(targets, activity_sum=0.12,
                                  ufs_target_hz=ghz(2.2))
        assert decision.uncore_hz <= ghz(2.2)

    def test_decide_sleeping_package(self, limiter):
        decision = limiter.decide({}, activity_sum=0.0, ufs_target_hz=None)
        assert decision.uncore_hz is None
        assert decision.core_targets_hz == {}

    def test_decide_is_grant_of_solve(self, limiter):
        """decide == grant(solve(...)), bit for bit and draw for draw,
        over every branch: TDP-bound, near budget, headroom, a
        uniform and a mixed target set, no targets, sleeping."""
        cases = [
            ({i: ghz(2.8) for i in range(12)}, 12.0, ghz(3.0)),
            ({i: ghz(2.8) - 1e6 * i for i in range(12)}, 12.0, ghz(3.0)),
            ({i: ghz(2.3) for i in range(12)}, 12.0, ghz(3.0)),
            ({i: ghz(2.2) for i in range(12)}, 12.0, ghz(3.0)),
            ({0: ghz(2.5)}, 0.12, ghz(2.2)),
            ({}, 0.0, ghz(1.9)),
            ({}, 0.0, None),
        ] * 3
        whole = sanitize.wrap_rng(np.random.default_rng(11),
                                  sanitize.DrawLedger())
        split = sanitize.wrap_rng(np.random.default_rng(11),
                                  sanitize.DrawLedger())
        for targets, activity, ufs in cases:
            decided = limiter.decide(targets, activity, ufs, rng=whole)
            granted = limiter.grant(limiter.solve(targets, activity, ufs),
                                    targets, rng=split)
            assert decided == granted
        ledger_whole = sanitize.ledger_of(whole)
        ledger_split = sanitize.ledger_of(split)
        assert ledger_whole.total_draws == ledger_split.total_draws == 6
        assert ledger_whole.entries == ledger_split.entries

    def test_dither_keeps_median_on_solution(self, limiter):
        rng = np.random.default_rng(5)
        targets = {i: ghz(2.8) for i in range(12)}
        grants = [limiter.decide(targets, 12.0, ghz(3.0), rng=rng)
                  .core_targets_hz[0] for _ in range(200)]
        assert float(np.median(grants)) == pytest.approx(ghz(2.31), rel=0.02)
