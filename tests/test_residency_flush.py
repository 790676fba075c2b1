"""Core residency reads see the node's pending residency nanoseconds.

``Node.integrate`` defers core c-state residency into one pending
integer and folds it into the residency matrices when a socket's rates
are replaced or a residency surface is read. Every read surface must
match a twin node with the fast path off (which refreshes its rates,
and so folds the pending count in, on every segment) at every read
point, and an independent per-segment tally of each core's c-state.
Each core's residency must also add up to the elapsed time.
"""

import pytest

from repro.cstates.states import CState
from repro.instruments.residency import ResidencyReport
from repro.system.node import SPAN_MIN_EVENTS, build_haswell_node
from repro.units import ms, us
from repro.workloads.base import Workload, WorkloadPhase
from repro.workloads.firestarter import firestarter

# Uneven read points: sub-tick, multi-tick and odd offsets, so reads
# land mid-segment-run as well as right after operating-point changes.
LONG_GAP_NS = us(5017)
READ_GAPS_NS = [us(37), us(410), us(1000), us(3), us(2123), us(999),
                us(61), LONG_GAP_NS, us(250), us(1), us(3333), us(777)]
#: The periodic events per millisecond of the test node: four PCU ticks
#: (two sockets at ~500 us), two EET polls and one RAPL refresh.
PERIODIC_PER_MS = 7
#: A read gap that fits a span of SPAN_MIN_EVENTS periodic events after
#: the first steady tick, with a millisecond to spare on each side.
SPAN_GAP_NS = ms(-(-SPAN_MIN_EVENTS // PERIODIC_PER_MS) + 2) + us(17)


def _busy_c6() -> Workload:
    """Busy bursts separated by C6 rests, each longer than a PCU tick."""
    return Workload(name="busy-c6", cyclic=True, phases=(
        WorkloadPhase(name="busy", duration_ns=us(700), power_activity=0.5,
                      ipc_parity=1.5, stall_fraction=0.02),
        WorkloadPhase(name="rest", duration_ns=us(900), active=False,
                      idle_cstate="C6"),
    ))


DRIVES = {
    "steady": lambda: firestarter(),
    "busy-c6": _busy_c6,
}


class _CStateTally:
    """Integrator registered after the node: per segment, adds the
    segment to the row of the c-state each core sits in. It reads only
    ``Core.cstate``, never a counter, so it cannot trigger a sync."""

    def __init__(self, cores) -> None:
        self.cores = cores
        self.ns = {c.core_id: {s: 0 for s in CState} for c in cores}

    def integrate(self, t0_ns: int, t1_ns: int) -> None:
        for core in self.cores:
            self.ns[core.core_id][core.cstate] += t1_ns - t0_ns


class _Twin:
    """One node plus the read surfaces taken before it ran."""

    def __init__(self, fastpath: bool, workload: Workload,
                 tally: bool = True) -> None:
        self.sim, self.node = build_haswell_node(seed=4242)
        self.node.set_fastpath(fastpath)
        self.node.run_workload(list(range(6)), workload)
        self.node.run_workload([14, 15], workload)
        self.cores = self.node.all_cores
        self.tally = _CStateTally(self.cores)
        if tally:
            self.sim.add_integrator(self.tally)
        self.views = [c.counters.cstate_residency_ns for c in self.cores]
        self.report = ResidencyReport(self.node)

    def read(self) -> dict:
        out = {}
        for core, view in zip(self.cores, self.views):
            cid = core.core_id
            out[f"fresh{cid}"] = dict(core.counters.cstate_residency_ns)
            out[f"held{cid}"] = dict(view.items())
            out[f"held-c0-{cid}"] = view[CState.C0]
            snap = core.counters.snapshot()
            out[f"snap{cid}"] = snap
            out[f"snap-res{cid}"] = dict(snap.cstate_residency_ns)
            out[f"report{cid}"] = self.report.core(cid).fractions
        return out


@pytest.mark.parametrize("drive", sorted(DRIVES))
def test_reads_match_fastpath_off_twin(drive):
    fast = _Twin(True, DRIVES[drive]())
    slow = _Twin(False, DRIVES[drive]())
    reads_with_pending = 0
    for gap in READ_GAPS_NS:
        fast.sim.run_for(gap)
        slow.sim.run_for(gap)
        if fast.node._res_pending_ns:
            reads_with_pending += 1
        a, b = fast.read(), slow.read()
        mismatched = [k for k in a if a[k] != b[k]]
        assert not mismatched, (
            f"t={fast.sim.now_ns} ns: deferred residency diverged on "
            f"{mismatched[:5]}")
        for core in fast.cores:
            cid = core.core_id
            assert a[f"fresh{cid}"] == fast.tally.ns[cid], (
                f"t={fast.sim.now_ns} ns: core {cid} residency landed "
                "in the wrong c-state row")
    # The deferral must actually have been in play at the reads.
    assert reads_with_pending > len(READ_GAPS_NS) // 2


def test_reads_match_without_tally():
    """The node as the simulator's only integrator: steady spans absorb
    the periodic events between reads, and every read surface still
    matches the fast-path-off twin. The long gap is sized from
    SPAN_MIN_EVENTS, so a span fits between two reads whatever it is."""
    gaps = [SPAN_GAP_NS if gap == LONG_GAP_NS else gap
            for gap in READ_GAPS_NS]
    fast = _Twin(True, DRIVES["steady"](), tally=False)
    slow = _Twin(False, DRIVES["steady"](), tally=False)
    for gap in gaps * 3:
        fast.sim.run_for(gap)
        slow.sim.run_for(gap)
        a, b = fast.read(), slow.read()
        mismatched = [k for k in a if a[k] != b[k]]
        assert not mismatched, (
            f"t={fast.sim.now_ns} ns: deferred residency diverged on "
            f"{mismatched[:5]}")
    assert fast.node.span_events > 0, "no span ran between the reads"


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("fastpath", [True, False])
def test_residency_adds_up_to_elapsed_time(drive, fastpath):
    twin = _Twin(fastpath, DRIVES[drive]())
    visited = set()
    for gap in READ_GAPS_NS:
        twin.sim.run_for(gap)
        elapsed = twin.sim.now_ns
        for core, view in zip(twin.cores, twin.views):
            fresh = core.counters.cstate_residency_ns
            assert sum(fresh.values()) == elapsed, core.core_id
            assert sum(view.values()) == elapsed, core.core_id
            visited.update(s for s, ns in fresh.items() if ns > 0)
    assert CState.C0 in visited and CState.C6 in visited
