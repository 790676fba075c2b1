"""The event-driven simulator core.

Model components register as *integrators*: between consecutive events
nothing in the system changes (frequencies, voltages, workload phases are
all piecewise-constant by construction), so each inter-event segment is
integrated in closed form — there is no fixed time step and no per-cycle
Python loop, per the optimization guidance for HPC Python.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

import numpy as np

from repro.engine import sanitize
from repro.engine.events import Event, EventQueue
from repro.engine.rng import make_rng
from repro.engine.trace import TraceRecorder
from repro.errors import SimulationError


class Integrator(Protocol):
    """A component whose state is advanced in closed form over a segment."""

    def integrate(self, t0_ns: int, t1_ns: int) -> None: ...


class RepeatingEvent:
    """Handle for a periodic event created by :meth:`Simulator.schedule_every`."""

    def __init__(self, sim: "Simulator", period_ns: int,
                 action: Callable[[int], None], label: str) -> None:
        if period_ns <= 0:
            raise SimulationError("repeating event needs a positive period")
        self._sim = sim
        self.period_ns = period_ns
        self._action = action
        self._label = label
        self._event: Event | None = None
        self._stopped = False

    @property
    def event(self) -> Event | None:
        """The one :class:`Event` every firing re-arms (None before
        :meth:`start`)."""
        return self._event

    def start(self, first_time_ns: int) -> "RepeatingEvent":
        self._event = self._sim.schedule_at(first_time_ns, self._fire, self._label)
        return self

    def _fire(self, now_ns: int) -> None:
        if self._stopped:
            return
        self._action(now_ns)
        if not self._stopped:
            self.rearm(now_ns + self.period_ns)

    def rearm(self, time_ns: int, seq: int | None = None) -> None:
        """Queue the next firing at ``time_ns`` (see
        :meth:`EventQueue.rearm`)."""
        self._sim.queue.rearm(self._event, time_ns, self._fire, seq)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()


class Simulator:
    """Owns the clock, the event queue, the RNG root, and the integrators."""

    def __init__(self, seed: int | None = None,
                 trace: TraceRecorder | None = None) -> None:
        self.now_ns: int = 0
        # End of the current run_until call: events after it stay queued.
        self.until_ns: int = 0
        self.queue = EventQueue()
        self.rng: np.random.Generator = make_rng(seed)
        # Sanitize mode (REPRO_SANITIZE=1): wrap the root stream so every
        # draw — here and in all spawned children — lands in the ledger.
        # Wrapping changes no drawn value, only records sites.
        self.ledger: sanitize.DrawLedger | None = None
        if sanitize.enabled():
            self.ledger = sanitize.DrawLedger()
            self.rng = sanitize.wrap_rng(self.rng, self.ledger)
        self.trace = trace if trace is not None else TraceRecorder(kinds=set())
        self._integrators: list[Integrator] = []
        self._fault_hooks: dict[str, list[Callable[..., Any]]] = {}

    # ---- component registration ------------------------------------------

    def add_integrator(self, component: Integrator) -> None:
        self._integrators.append(component)

    @property
    def integrators(self) -> tuple[Integrator, ...]:
        """The registered integrators, in the order each segment runs
        them."""
        return tuple(self._integrators)

    # ---- fault hooks ------------------------------------------------------

    def add_fault_hook(self, point: str,
                       hook: Callable[..., Any]) -> Callable[..., Any]:
        """Register ``hook`` at a named interception point.

        Components with stochastic or failure-prone hardware analogues
        (MSR reads, meter samples, counter snapshots) consult their point
        before/while producing a value. A hook may raise — e.g. a
        :class:`~repro.errors.TransientFaultError` to model a read that
        fails — or return a directive dict the component interprets
        (``{"action": "drop"}`` for a lost meter sample). Returning
        ``None`` means "no opinion". Hooks run in registration order.
        """
        self._fault_hooks.setdefault(point, []).append(hook)
        return hook

    def remove_fault_hook(self, point: str, hook: Callable[..., Any]) -> None:
        hooks = self._fault_hooks.get(point)
        if hooks is None:
            return
        try:
            hooks.remove(hook)
        except ValueError:
            pass
        if not hooks:
            del self._fault_hooks[point]

    def has_fault_hooks(self, point: str) -> bool:
        """Whether any hook is registered at ``point``."""
        return point in self._fault_hooks

    def fire_fault_hooks(self, point: str, **context: Any) -> list[Any]:
        """Run the hooks of ``point``; returns the non-None directives."""
        hooks = self._fault_hooks.get(point)
        if not hooks:
            return []
        directives = []
        for hook in list(hooks):
            directive = hook(**context)
            if directive is not None:
                directives.append(directive)
        return directives

    # ---- scheduling ---------------------------------------------------------

    def schedule_at(self, time_ns: int, action: Callable[[int], None],
                    label: str = "") -> Event:
        if time_ns < self.now_ns:
            raise SimulationError(
                f"cannot schedule at t={time_ns} ns, now is {self.now_ns} ns")
        return self.queue.push(time_ns, action, label)

    def schedule_after(self, delay_ns: int, action: Callable[[int], None],
                       label: str = "") -> Event:
        if delay_ns < 0:
            raise SimulationError("negative delay")
        return self.queue.push(self.now_ns + delay_ns, action, label)

    def schedule_every(self, period_ns: int, action: Callable[[int], None],
                       label: str = "", phase_ns: int = 0) -> RepeatingEvent:
        """Fire ``action`` every ``period_ns``, first at ``now + phase`` (or
        the next period boundary if ``phase`` is 0)."""
        first = self.now_ns + (phase_ns if phase_ns > 0 else period_ns)
        return RepeatingEvent(self, period_ns, action, label).start(first)

    # ---- execution ----------------------------------------------------------

    def _advance_to(self, t_ns: int) -> None:
        if t_ns < self.now_ns:
            raise SimulationError("time cannot go backwards")
        if t_ns == self.now_ns:
            return
        for component in self._integrators:
            component.integrate(self.now_ns, t_ns)
        self.now_ns = t_ns

    def run_until(self, t_ns: int) -> None:
        """Process all events with firing time <= ``t_ns``; end at ``t_ns``."""
        if t_ns < self.now_ns:
            raise SimulationError(
                f"run_until({t_ns}) but now is {self.now_ns}")
        outer_until = self.until_ns
        self.until_ns = t_ns
        pop_next = self.queue.pop_next_until
        integrators = self._integrators
        try:
            while True:
                event = pop_next(t_ns)
                if event is None:
                    break
                time_ns = event.time_ns
                if time_ns != self.now_ns:
                    # _advance_to, inlined: integrate the segment up to
                    # the event, then move the clock.
                    for component in integrators:
                        component.integrate(self.now_ns, time_ns)
                    self.now_ns = time_ns
                event.action(time_ns)
            self._advance_to(t_ns)
        finally:
            # An action may itself have run the clock (nested run_until).
            self.until_ns = outer_until

    def run_for(self, duration_ns: int) -> None:
        self.run_until(self.now_ns + duration_ns)
