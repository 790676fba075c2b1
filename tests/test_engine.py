"""Event queue and simulator core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.events import EventQueue
from repro.engine.rng import make_rng, spawn_rng, DEFAULT_SEED
from repro.engine.simulator import Simulator
from repro.engine.trace import TraceRecorder
from repro.errors import SimulationError
from repro.units import us, ms


def _drain(q: EventQueue, until: int = 10**18) -> None:
    """Fire every queued event up to ``until``, in queue order."""
    while (ev := q.pop_next_until(until)) is not None:
        ev.action(ev.time_ns)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(30, lambda t: fired.append(("c", t)))
        q.push(10, lambda t: fired.append(("a", t)))
        q.push(20, lambda t: fired.append(("b", t)))
        _drain(q)
        assert fired == [("a", 10), ("b", 20), ("c", 30)]

    def test_same_time_fifo(self):
        q = EventQueue()
        fired = []
        for name in "abc":
            q.push(5, lambda t, n=name: fired.append(n))
        _drain(q)
        assert fired == ["a", "b", "c"]

    def test_cancellation_is_lazy_but_effective(self):
        q = EventQueue()
        ev = q.push(10, lambda t: None)
        q.push(20, lambda t: None)
        ev.cancel()
        assert q.head() == (20, 1)
        assert q.pop_next_until(15) is None
        assert q.pop_next_until(20).time_ns == 20
        assert q.pop_next_until(10**9) is None

    def test_rejects_negative_time(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1, lambda t: None)

    def test_empty_queue(self):
        q = EventQueue()
        assert q.head() is None
        assert q.pop_next_until(10**9) is None

    def test_head_skips_excluded_and_rearmed_entries(self):
        q = EventQueue()
        own = q.push(10, lambda t: None)
        other = q.push(10, lambda t: None)
        assert q.head() == (10, 0)
        assert q.head((own,)) == (10, 1)
        # A re-arm leaves the old entry behind as a dead one.
        q.rearm(own, 5, own.action)
        assert q.head() == (5, 2)
        assert q.head((own, other)) is None
        assert q.pop_next_until(10**9) is own
        assert q.pop_next_until(10**9) is other
        assert q.pop_next_until(10**9) is None


def _head_by_scan(q: EventQueue, exclude) -> tuple[int, int] | None:
    """The first live, not excluded entry, by a scan of every entry."""
    live = [entry for entry in q._heap
            if not (entry[2].cancelled or entry[1] != entry[2].seq
                    or entry[2] in exclude)]
    return min(live)[:2] if live else None


# One queue operation: (kind, time, which event, exclude mask).
_OPS = st.lists(st.tuples(
    st.sampled_from(["push", "push", "cancel", "rearm", "rearm", "pop"]),
    st.integers(0, 40), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
    min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_head_matches_a_scan_of_every_entry(ops):
    """The pruned heap descent finds what a scan of every entry finds,
    after any mix of pushes, cancels, re-arms and pops, whatever is
    excluded."""
    q = EventQueue()
    events = []
    for kind, time_ns, which, mask in ops:
        if kind == "push" or not events:
            events.append(q.push(time_ns, lambda t: None))
        elif kind == "cancel":
            events[which % len(events)].cancel()
        elif kind == "rearm":
            event = events[which % len(events)]
            q.rearm(event, time_ns, event.action)
        else:
            q.pop_next_until(time_ns)
        exclude = tuple(e for k, e in enumerate(events) if mask >> k & 1)
        assert q.head(exclude) == _head_by_scan(q, exclude)
        assert q.head() == _head_by_scan(q, ())


class TestRearm:
    def test_stop_inside_own_action(self):
        sim = Simulator(seed=1)
        fired = []

        def action(t):
            fired.append(t)
            if len(fired) == 2:
                task.stop()

        task = sim.schedule_every(us(100), action)
        sim.run_until(ms(1))
        assert fired == [us(100), us(200)]

    def test_stop_while_queued(self):
        sim = Simulator(seed=1)
        fired = []
        task = sim.schedule_every(us(100), lambda t: fired.append(t))
        sim.run_until(us(250))
        task.stop()
        sim.run_until(ms(1))
        assert fired == [us(100), us(200)]

    def test_action_restored_after_outside_wrapper(self):
        """An observer that wraps each popped event's action (as a
        tracer does) wraps every firing once, never a kept wrapper."""
        sim = Simulator(seed=1)
        fired = []
        depths = []
        sim.schedule_every(us(100), lambda t: fired.append(t))
        queue = sim.queue
        pop = queue.pop_next_until

        def wrapping_pop(t_ns):
            event = pop(t_ns)
            if event is not None:
                inner = event.action
                depth = getattr(inner, "depth", 0) + 1

                def wrapper(now_ns):
                    depths.append(depth)
                    inner(now_ns)
                wrapper.depth = depth
                event.action = wrapper
            return event

        queue.pop_next_until = wrapping_pop
        sim.run_until(us(550))
        assert fired == [us(100 * k) for k in range(1, 6)]
        assert depths == [1] * 5

    def test_same_time_fifo_with_rearmed_events(self):
        """A re-arm takes the next sequence number, so an event pushed
        before it at the same instant fires first, and one pushed after
        it fires later."""
        sim = Simulator(seed=1)
        fired = []
        sim.schedule_every(us(100), lambda t: fired.append(("tick", t)))
        sim.schedule_at(us(200), lambda t: fired.append(("early", t)))
        sim.run_until(us(150))       # the tick re-arms for 200 us here
        sim.schedule_at(us(200), lambda t: fired.append(("late", t)))
        sim.run_until(us(200))
        assert fired == [("tick", us(100)), ("early", us(200)),
                         ("tick", us(200)), ("late", us(200))]

    def test_rearm_reuses_one_event(self):
        sim = Simulator(seed=1)
        task = sim.schedule_every(us(100), lambda t: None)
        event = task.event
        sim.run_until(ms(1))
        assert task.event is event
        assert event.time_ns == us(1100)


class TestSimulator:
    def test_run_until_processes_in_order(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule_at(us(5), lambda t: fired.append(t))
        sim.schedule_at(us(2), lambda t: fired.append(t))
        sim.run_until(us(10))
        assert fired == [us(2), us(5)]
        assert sim.now_ns == us(10)

    def test_events_beyond_horizon_stay_queued(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule_at(us(50), lambda t: fired.append(t))
        sim.run_until(us(10))
        assert fired == []
        sim.run_until(us(100))
        assert fired == [us(50)]

    def test_action_may_schedule_same_time(self):
        sim = Simulator(seed=1)
        fired = []

        def chain(t):
            fired.append("first")
            sim.schedule_at(t, lambda t2: fired.append("second"))

        sim.schedule_at(us(1), chain)
        sim.run_until(us(2))
        assert fired == ["first", "second"]

    def test_time_cannot_go_backwards(self):
        sim = Simulator(seed=1)
        sim.run_until(us(10))
        with pytest.raises(SimulationError):
            sim.run_until(us(5))
        with pytest.raises(SimulationError):
            sim.schedule_at(us(1), lambda t: None)

    def test_integrators_cover_every_segment(self):
        sim = Simulator(seed=1)
        segments = []

        class Recorder:
            def integrate(self, t0, t1):
                segments.append((t0, t1))

        sim.add_integrator(Recorder())
        sim.schedule_at(us(3), lambda t: None)
        sim.schedule_at(us(7), lambda t: None)
        sim.run_until(us(10))
        # contiguous, gap-free coverage of [0, 10us]
        assert segments[0][0] == 0
        assert segments[-1][1] == us(10)
        for (a0, a1), (b0, b1) in zip(segments, segments[1:]):
            assert a1 == b0
            assert a0 < a1

    def test_repeating_event_fires_periodically(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule_every(us(100), lambda t: fired.append(t))
        sim.run_until(ms(1))
        assert fired == [us(100 * k) for k in range(1, 11)]

    def test_repeating_event_stop(self):
        sim = Simulator(seed=1)
        fired = []
        task = sim.schedule_every(us(100), lambda t: fired.append(t))
        sim.run_until(us(250))
        task.stop()
        sim.run_until(ms(1))
        assert fired == [us(100), us(200)]

    def test_repeating_rejects_zero_period(self):
        sim = Simulator(seed=1)
        with pytest.raises(SimulationError):
            sim.schedule_every(0, lambda t: None)

    def test_schedule_after_negative_delay(self):
        sim = Simulator(seed=1)
        with pytest.raises(SimulationError):
            sim.schedule_after(-5, lambda t: None)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = make_rng(42), make_rng(42)
        assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))

    def test_default_seed_is_stable(self):
        assert make_rng().integers(0, 10**9) \
            == make_rng(DEFAULT_SEED).integers(0, 10**9)

    def test_spawned_streams_independent(self):
        root = make_rng(7)
        child1 = spawn_rng(root)
        child2 = spawn_rng(root)
        s1 = list(child1.integers(0, 1000, 20))
        s2 = list(child2.integers(0, 1000, 20))
        assert s1 != s2


class TestTrace:
    def test_records_and_filters(self):
        rec = TraceRecorder(kinds={"grant"})
        rec.emit(1, "pcu0", "grant", f=2.5e9)
        rec.emit(2, "pcu0", "noise", x=1)
        assert len(rec.records) == 1
        assert rec.of_kind("grant")[0].payload["f"] == 2.5e9

    def test_unfiltered_records_all(self):
        rec = TraceRecorder()
        rec.emit(1, "a", "x")
        rec.emit(2, "b", "y")
        assert len(rec.records) == 2
        rec.clear()
        assert rec.records == []


class TestTraceIntegration:
    def test_pcu_emits_grant_traces(self):
        """The simulator's trace hook observes PCU frequency applies."""
        from repro.engine.trace import TraceRecorder
        from repro.specs.node import HASWELL_TEST_NODE
        from repro.system.node import build_node
        from repro.units import ghz as _ghz
        from repro.workloads.micro import busy_wait

        sim = Simulator(seed=7, trace=TraceRecorder(
            kinds={"freq-apply", "uncore-apply"}))
        node = build_node(sim, HASWELL_TEST_NODE)
        node.run_workload([0], busy_wait())
        node.set_pstate([0], _ghz(1.5))
        sim.run_until(ms(3))
        applies = sim.trace.of_kind("freq-apply")
        assert any(r.payload["core_id"] == 0
                   and abs(r.payload["to_hz"] - _ghz(1.5)) < 20e6
                   for r in applies)
        assert sim.trace.of_kind("uncore-apply")  # UFS retarget observed

    def test_default_trace_records_nothing(self):
        from repro.specs.node import HASWELL_TEST_NODE
        from repro.system.node import build_node
        from repro.workloads.micro import busy_wait

        sim = Simulator(seed=7)
        node = build_node(sim, HASWELL_TEST_NODE)
        node.run_workload([0], busy_wait())
        sim.run_until(ms(3))
        assert sim.trace.records == []
