"""Fault-injection subsystem: determinism, fault mechanics, retry, runner."""

from __future__ import annotations

import pytest

from repro.engine.simulator import Simulator
from repro.errors import (
    FaultInjectionError,
    MeasurementError,
    MsrError,
    TransientFaultError,
    TransientMsrError,
)
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    chaos,
)
from repro.hostif import HostMsr, VirtualMsrDev
from repro.instruments.lmg450 import Lmg450
from repro.instruments.perfctr import LikwidSampler
from repro.power.rapl import RaplDomain, wraparound_delta
from repro.specs.node import HASWELL_TEST_NODE
from repro.system.node import build_node
from repro.units import ms, seconds
from repro.util.retry import Backoff
from repro.workloads.micro import compute


def _pairs(**kwargs):
    return tuple(sorted(kwargs.items()))


def _plan(*events: FaultEvent, horizon_ns: int = seconds(60)) -> FaultPlan:
    return FaultPlan(seed=0, horizon_ns=horizon_ns, events=tuple(events))


def _armed_node(plan: FaultPlan, seed: int = 5):
    sim = Simulator(seed=seed)
    node = build_node(sim, HASWELL_TEST_NODE)
    injector = FaultInjector(sim, node, plan).arm()
    return sim, node, injector


# ---- plan determinism ---------------------------------------------------


class TestFaultPlan:
    def test_same_seed_byte_identical(self):
        a = FaultPlan.generate(42)
        b = FaultPlan.generate(42)
        assert a.to_json() == b.to_json()
        assert a.events == b.events

    def test_different_seeds_differ(self):
        assert FaultPlan.generate(1).to_json() != FaultPlan.generate(2).to_json()

    def test_events_sorted_and_in_horizon(self):
        plan = FaultPlan.generate(7)
        times = [ev.time_ns for ev in plan.events]
        assert times == sorted(times)
        assert all(0 <= t <= plan.horizon_ns for t in times)

    def test_every_kind_represented(self):
        # WORKER_CRASH is process-level: the fleet layer consumes it
        # and the default profile's rate is zero, so default plans
        # contain every in-process kind and nothing else.
        kinds = {ev.kind for ev in FaultPlan.generate(42).events}
        assert kinds == set(FaultKind) - {FaultKind.WORKER_CRASH}

    def test_worker_crash_requires_nonzero_rate(self):
        from repro.faults.plan import FaultProfile
        profile = FaultProfile(worker_crash_rate=2.0)
        kinds = {ev.kind
                 for ev in FaultPlan.generate(42, profile=profile).events}
        assert FaultKind.WORKER_CRASH in kinds

    def test_bad_horizon_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(1, horizon_ns=0)

    def test_event_outside_horizon_rejected(self):
        with pytest.raises(FaultInjectionError):
            _plan(FaultEvent(seconds(99), FaultKind.LMG_GLITCH),
                  horizon_ns=seconds(1))


# ---- injector determinism ------------------------------------------------


class TestInjectorDeterminism:
    def _run(self) -> list[dict]:
        plan = FaultPlan.generate(42, horizon_ns=seconds(6))
        sim, node, injector = _armed_node(plan)
        node.run_workload([0, 1], compute())
        meter = Lmg450(sim, node)
        meter.start()
        sim.run_for(seconds(5))
        return injector.log

    def test_same_seed_same_applied_faults(self):
        assert self._run() == self._run()

    def test_double_arm_rejected(self):
        sim, node, injector = _armed_node(_plan())
        with pytest.raises(FaultInjectionError):
            injector.arm()


# ---- RAPL wrap -----------------------------------------------------------


class TestRaplWrap:
    def test_forced_wrap_mid_measurement_delta_correct(self):
        """Regression: an energy delta straddling a forced 32-bit wrap is
        exact through wraparound_delta and badly negative without it."""
        sim = Simulator(seed=3)
        node = build_node(sim, HASWELL_TEST_NODE)
        node.run_workload([0, 1, 2, 3], compute())
        sim.run_for(seconds(1))
        socket = node.sockets[0]
        before = socket.rapl.read_counter(RaplDomain.PACKAGE)
        true_before = socket.rapl.true_energy_j(RaplDomain.PACKAGE)
        # Wrap imminent: only ~100 counts of headroom left.
        before = socket.rapl.force_wrap(RaplDomain.PACKAGE,
                                        margin_counts=100)
        sim.run_for(seconds(1))
        after = socket.rapl.read_counter(RaplDomain.PACKAGE)
        true_delta = socket.rapl.true_energy_j(RaplDomain.PACKAGE) \
            - true_before
        unit = socket.rapl.energy_unit_j(RaplDomain.PACKAGE)

        assert after - before < 0                      # naive delta breaks
        safe = wraparound_delta(before, after) * unit
        assert safe == pytest.approx(true_delta, rel=1e-3)

    def test_force_wrap_preserves_true_energy(self):
        sim = Simulator(seed=3)
        node = build_node(sim, HASWELL_TEST_NODE)
        node.run_workload([0], compute())
        sim.run_for(seconds(1))
        socket = node.sockets[0]
        true = socket.rapl.true_energy_j(RaplDomain.PACKAGE)
        socket.rapl.force_wrap(RaplDomain.PACKAGE, margin_counts=5)
        assert socket.rapl.true_energy_j(RaplDomain.PACKAGE) == true

    def test_injected_wrap_event(self):
        plan = _plan(FaultEvent(seconds(1), FaultKind.RAPL_WRAP, _pairs(
            socket=0, domain="package", margin_counts=50)))
        sim, node, injector = _armed_node(plan)
        node.run_workload([0, 1], compute())
        sim.run_for(seconds(3))
        assert injector.log[0]["kind"] == "rapl-wrap"
        # The counter wrapped within the run (50 counts is microjoules).
        assert injector.log[0]["counter_after"] > (1 << 31)
        assert node.sockets[0].rapl.read_counter(RaplDomain.PACKAGE) \
            < (1 << 31)


# ---- transient MSR faults -----------------------------------------------


class TestMsrTransient:
    def _plan_window(self, at_s: float = 1.0, dur_ms: float = 500.0):
        return _plan(FaultEvent(seconds(at_s), FaultKind.MSR_TRANSIENT,
                                _pairs(duration_ns=ms(dur_ms))))

    def test_msr_read_fails_inside_window_recovers_after(self):
        sim, node, _ = _armed_node(self._plan_window())
        msr = VirtualMsrDev(node)
        sim.run_for(seconds(1))          # window opens exactly at t=1
        with pytest.raises(TransientMsrError):
            msr.read(0, HostMsr.IA32_APERF)
        sim.run_for(seconds(2))          # window closed
        assert isinstance(msr.read(0, HostMsr.IA32_APERF), int)

    def test_transient_error_is_both_retryable_and_msr(self):
        assert issubclass(TransientMsrError, TransientFaultError)
        assert issubclass(TransientMsrError, MsrError)

    def test_sampler_surfaces_transient_fault(self):
        sim, node, _ = _armed_node(self._plan_window())
        node.run_workload([0], compute())
        sampler = LikwidSampler(sim, node, core_ids=[0], period_ns=ms(200))
        sampler.start()
        with pytest.raises(TransientMsrError):
            sim.run_for(seconds(2))


# ---- LMG450 faults -------------------------------------------------------


class TestLmgFaults:
    def test_dropout_starves_average_window(self):
        plan = _plan(FaultEvent(seconds(1), FaultKind.LMG_DROPOUT,
                                _pairs(duration_ns=seconds(2))))
        sim, node, _ = _armed_node(plan)
        meter = Lmg450(sim, node)
        meter.start()
        sim.run_for(seconds(4))
        with pytest.raises(MeasurementError):
            meter.average(seconds(1), seconds(3))      # inside the dropout
        assert meter.average(seconds(3), seconds(4)) > 0

    def test_glitch_spikes_one_sample(self):
        plan = _plan(FaultEvent(ms(500), FaultKind.LMG_GLITCH,
                                _pairs(factor=5.0, sign=1)))
        sim, node, _ = _armed_node(plan)
        meter = Lmg450(sim, node)
        meter.start()
        sim.run_for(seconds(2))
        _, watts = meter.series()
        median = sorted(watts)[len(watts) // 2]
        outliers = [w for w in watts if w > 3 * median]
        assert len(outliers) == 1


# ---- PCU faults ----------------------------------------------------------


class TestPcuFaults:
    def test_prochot_clamps_then_releases(self):
        plan = _plan(FaultEvent(seconds(1), FaultKind.THERMAL_THROTTLE,
                                _pairs(socket=0, duration_ns=ms(300))))
        sim, node, _ = _armed_node(plan)
        node.run_workload([0], compute())
        sim.run_for(seconds(1) + ms(150))     # mid-episode, past a tick
        spec = node.spec.cpu
        assert node.core(0).freq_hz == pytest.approx(spec.min_hz)
        sim.run_for(seconds(1))               # episode over, re-granted
        assert node.core(0).freq_hz > spec.min_hz

    def test_jitter_window_resets(self):
        plan = _plan(FaultEvent(ms(100), FaultKind.PCU_JITTER, _pairs(
            socket=0, duration_ns=ms(200), extra_jitter_ns=150_000)))
        sim, node, _ = _armed_node(plan)
        sim.run_for(ms(150))
        assert node.pcus[0].extra_tick_jitter_ns == 150_000
        sim.run_for(ms(300))
        assert node.pcus[0].extra_tick_jitter_ns == 0


# ---- retry policy --------------------------------------------------------


class TestRetry:
    def test_backoff_sequence_caps(self):
        b = Backoff(initial_s=0.1, factor=2.0, max_delay_s=0.5)
        assert list(b.delays(4)) == [0.1, 0.2, 0.4, 0.5]


# ---- experiment runner ---------------------------------------------------


def _tiny_experiment() -> str:
    """A fast real experiment: chaos-armed node, meter + sampler, 2 s."""
    sim = Simulator(seed=11)
    node = build_node(sim, HASWELL_TEST_NODE)
    node.run_workload([0, 1], compute())
    meter = Lmg450(sim, node)
    meter.start()
    sampler = LikwidSampler(sim, node, core_ids=[0], period_ns=ms(500))
    sampler.start()
    sim.run_for(seconds(2))
    mean = meter.average(0, sim.now_ns)
    m = sampler.median_metrics(0)
    return f"ac={mean:.1f} pkg={m['pkg_power_w']:.1f}"


class TestExperimentRunner:
    def _suite(self, chaos_seed=None):
        return ExperimentRunner(
            [ExperimentSpec("tiny", _tiny_experiment, timeout_s=60),
             ExperimentSpec("tiny2", _tiny_experiment, timeout_s=60)],
            chaos_seed=chaos_seed, sleep=lambda _s: None, max_attempts=4)

    def test_statuses_and_report(self):
        report = self._suite().run()
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
        assert report.counts == {"ok": 2}
        assert not report.hard_failures
        assert "tiny" in report.render()

    def test_chaos_outcomes_deterministic(self):
        """Same fault-plan seed ⇒ identical outcome records twice."""
        first = self._suite(chaos_seed=42).run()
        second = self._suite(chaos_seed=42).run()
        assert first.records() == second.records()
        for outcome in first.outcomes:
            assert outcome.status in ("ok", "retried", "degraded")

    def test_chaos_deactivated_after_run(self):
        self._suite(chaos_seed=42).run()
        assert not chaos.is_active()

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            self._suite().run(["nonsense"])

    def test_degraded_not_fatal(self):
        def hopeless():
            raise TransientFaultError("persistent transient")

        report = ExperimentRunner(
            [ExperimentSpec("doomed", hopeless, timeout_s=5),
             ExperimentSpec("fine", lambda: "good", timeout_s=5)],
            sleep=lambda _s: None, max_attempts=2).run()
        assert [o.status for o in report.outcomes] == ["degraded", "ok"]

    def test_transient_then_ok_is_retried(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise MeasurementError("no samples")
            return "recovered"

        report = ExperimentRunner(
            [ExperimentSpec("flaky", flaky, timeout_s=5)],
            sleep=lambda _s: None, max_attempts=4).run()
        [outcome] = report.outcomes
        assert (outcome.status, outcome.attempts) == ("retried", 3)
        assert outcome.text == "recovered"

    def test_non_retryable_fails_on_first_attempt(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("structural")

        report = ExperimentRunner(
            [ExperimentSpec("broken", broken, timeout_s=5)],
            sleep=lambda _s: None, max_attempts=5).run()
        [outcome] = report.outcomes
        assert (outcome.status, outcome.attempts) == ("failed", 1)
        assert outcome.error == "ValueError: structural"
        assert len(calls) == 1

    def test_timeout_reported_as_failed(self):
        import time as _time

        report = ExperimentRunner(
            [ExperimentSpec("slow", lambda: _time.sleep(5) or "x",
                            timeout_s=0.2)],
            sleep=lambda _s: None).run()
        assert report.outcomes[0].status == "failed"
        assert "timeout" in report.outcomes[0].error


# ---- chaos sub-seeding ---------------------------------------------------


class TestChaos:
    def test_nested_activation_rejected(self):
        with chaos.chaos(1):
            with pytest.raises(FaultInjectionError):
                chaos.activate(2)
        assert not chaos.is_active()

    def test_epoch_changes_subseed(self):
        assert chaos.subseed(42, 0, 1) != chaos.subseed(42, 1, 1)

    def test_builds_get_distinct_plans(self):
        with chaos.chaos(9, horizon_ns=seconds(10)):
            s1, n1 = Simulator(seed=1), None
            n1 = build_node(s1, HASWELL_TEST_NODE)
            s2 = Simulator(seed=1)
            n2 = build_node(s2, HASWELL_TEST_NODE)
            logs = chaos.injector_logs()
            assert len(logs) == 2


# ---- NUMA-link degradation ------------------------------------------------


class TestNumaLinkFault:
    def _plan(self):
        return _plan(FaultEvent(seconds(1), FaultKind.NUMA_LINK, _pairs(
            duration_ns=seconds(2), bandwidth_factor=0.5,
            latency_add_ns=100.0)))

    def test_derates_link_then_restores(self):
        sim, node, injector = _armed_node(self._plan())
        assert node.link_derate.healthy
        sim.run_for(seconds(2))                    # mid-episode
        assert node.link_derate.bandwidth_factor == 0.5
        assert node.link_derate.latency_add_ns == 100.0
        sim.run_for(seconds(2))                    # past the window
        assert node.link_derate.healthy
        assert injector.log[0]["kind"] == "numa-link"

    def test_derate_shrinks_remote_bandwidth(self):
        from repro.memory.numa import NumaBandwidthModel, Placement
        from repro.specs.cpu import E5_2680_V3
        from repro.units import ghz

        sim, node, _ = _armed_node(self._plan())
        model = NumaBandwidthModel(E5_2680_V3, node.link_derate)
        healthy = model.evaluate(Placement.REMOTE, 12, ghz(2.5), ghz(3.0))
        local_healthy = model.evaluate(Placement.LOCAL, 12, ghz(2.5),
                                       ghz(3.0))
        sim.run_for(seconds(2))
        degraded = model.evaluate(Placement.REMOTE, 12, ghz(2.5), ghz(3.0))
        assert degraded.bandwidth_gbs < healthy.bandwidth_gbs
        assert degraded.latency_ns > healthy.latency_ns
        # local traffic never crosses the link
        local_degraded = model.evaluate(Placement.LOCAL, 12, ghz(2.5),
                                        ghz(3.0))
        assert local_degraded.bandwidth_gbs == local_healthy.bandwidth_gbs
        assert local_degraded.latency_ns == local_healthy.latency_ns

    def test_degrade_validates_inputs(self):
        from repro.errors import ConfigurationError
        from repro.topology.routing import LinkDerate

        derate = LinkDerate()
        with pytest.raises(ConfigurationError):
            derate.degrade(bandwidth_factor=0.0)
        with pytest.raises(ConfigurationError):
            derate.degrade(bandwidth_factor=1.2)
        with pytest.raises(ConfigurationError):
            derate.degrade(latency_add_ns=-1.0)


# ---- PSU brownout ---------------------------------------------------------


class TestPsuBrownoutFault:
    def _plan(self):
        return _plan(FaultEvent(seconds(1), FaultKind.PSU_BROWNOUT, _pairs(
            duration_ns=seconds(2), sag_frac=0.1)))

    def test_inflates_ac_power_then_restores(self):
        sim, node, injector = _armed_node(self._plan())
        node.run_workload([0, 1], compute())
        sim.run_for(ms(500))
        healthy_w = node.ac_power_w()
        sim.run_for(seconds(1.5))                  # mid-episode
        assert node.psu.input_sag_frac == 0.1
        assert node.ac_power_w() == pytest.approx(healthy_w * 1.1, rel=1e-6)
        sim.run_for(seconds(2))                    # past the window
        assert node.psu.input_sag_frac == 0.0
        assert node.ac_power_w() == pytest.approx(healthy_w, rel=1e-6)
        assert injector.log[0]["kind"] == "psu-brownout"

    def test_dc_side_untouched(self):
        """A brownout wastes wall power; the DC rails see nothing."""
        sim, node, _ = _armed_node(self._plan())
        node.run_workload([0, 1], compute())
        sim.run_for(ms(500))
        dc_before = node.dc_rapl_visible_w()
        sim.run_for(seconds(1.5))
        assert node.dc_rapl_visible_w() == pytest.approx(dc_before, rel=1e-6)

    def test_sag_validation(self):
        from repro.errors import ConfigurationError

        sim, node, _ = _armed_node(_plan())
        with pytest.raises(ConfigurationError):
            node.psu.set_input_sag(-0.01)
        with pytest.raises(ConfigurationError):
            node.psu.set_input_sag(0.6)


class TestStressProfiles:
    def test_numa_link_stress_generates_only_numa_link(self):
        from repro.faults import NUMA_LINK_STRESS

        plan = FaultPlan.generate(7, profile=NUMA_LINK_STRESS)
        assert plan.events
        assert {ev.kind for ev in plan.events} == {FaultKind.NUMA_LINK}

    def test_psu_brownout_stress_generates_only_brownouts(self):
        from repro.faults import PSU_BROWNOUT_STRESS

        plan = FaultPlan.generate(7, profile=PSU_BROWNOUT_STRESS)
        assert plan.events
        assert {ev.kind for ev in plan.events} == {FaultKind.PSU_BROWNOUT}
