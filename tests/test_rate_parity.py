"""Segment-rate lanes == the scalar per-core reference, bit for bit.

``Socket._rates_from_key`` serves the idle socket and the uniform
operating point (every active core on one ``(freq, phase, threads,
throttle)`` lane) in closed form, and hands every mixed point to
``Socket._compute_rates_scalar``. Fast/slow parity runs compare the
same lanes on both sides, so this is the direct check that the idle
and uniform lanes reproduce the per-core math: seeded operating points
are set up on a fresh socket and both computations are compared field
by field, down to the float bit pattern.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cstates.states import CState
from repro.system.core import AvxLicense
from repro.system.counters import FIELD_ROW
from repro.system.node import build_haswell_node
from repro.workloads import micro
from repro.workloads.base import Workload

SEEDS = range(6)
_IDLE_STATES = (CState.C1, CState.C3, CState.C6)


def _socket():
    _, node = build_haswell_node(seed=1)
    return node.sockets[0]


def _freq(rng, spec) -> float:
    return float(rng.uniform(spec.min_hz, spec.vf_core.f_max_hz))


def _uncore_freq(rng, spec) -> float:
    return float(rng.uniform(spec.uncore_min_hz, spec.uncore_max_hz))


def _load(socket, rng, workload: Workload, n_active: int,
          f_hz: float | None = None) -> list:
    """Bind ``workload`` to ``n_active`` random cores and park the rest
    in random idle states; returns the active cores."""
    cores = socket.cores
    picked = sorted(rng.choice(len(cores), size=n_active, replace=False))
    active = [cores[j] for j in picked]
    for core in cores:
        if core in active:
            core.bind_workload(workload)
            core.apply_frequency(f_hz or _freq(rng, socket.spec))
        else:
            core.enter_cstate(_IDLE_STATES[int(rng.integers(3))])
    socket.uncore.set_frequency(_uncore_freq(rng, socket.spec))
    return active


def _all_uniform(socket, rng):
    _load(socket, rng, micro.compute(), len(socket.cores),
          _freq(rng, socket.spec))


def _partial_uniform(socket, rng):
    n = int(rng.integers(1, len(socket.cores)))
    _load(socket, rng, micro.dgemm(threads_per_core=2), n,
          _freq(rng, socket.spec))


def _mixed(socket, rng):
    menu = (micro.compute(), micro.dgemm(threads_per_core=2),
            micro.sqrt_bench(), micro.memory_read(socket.spec),
            micro.busy_wait())
    for core in _load(socket, rng, menu[0], int(rng.integers(2, 13))):
        core.bind_workload(menu[int(rng.integers(len(menu)))])


def _avx_requesting(socket, rng):
    for core in _load(socket, rng, micro.dgemm(), len(socket.cores),
                      _freq(rng, socket.spec)):
        core.avx_license = AvxLicense.REQUESTING


def _bw_bound(socket, rng):
    # Enough streaming cores to saturate the channels: throttle < 1.
    _load(socket, rng, micro.memory_read(socket.spec),
          int(rng.integers(8, 13)), _freq(rng, socket.spec))


def _halted_uncore(socket, rng):
    _load(socket, rng, micro.compute(), 0)
    socket.uncore.halt()


def _all_idle(socket, rng):
    _load(socket, rng, micro.compute(), 0)


# case -> (setup, expected number of distinct active lanes)
CASES = {
    "all-active-uniform": (_all_uniform, 1),
    "partial-uniform": (_partial_uniform, 1),
    "mixed": (_mixed, None),
    "avx-requesting": (_avx_requesting, 1),
    "bw-bound": (_bw_bound, 1),
    "halted-uncore": (_halted_uncore, 0),
    "all-idle": (_all_idle, 0),
}


def _bits(x: float) -> str:
    return float(x).hex()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_rates_from_key_matches_scalar_reference(case, seed):
    setup, n_lanes = CASES[case]
    socket = _socket()
    rng = np.random.default_rng(seed)
    setup(socket, rng)

    key = socket._gather_key()
    lanes = {part for part in key[2:] if type(part) is tuple}
    if n_lanes is None:
        assert len(lanes) > 1, "mixed case produced a uniform point"
    else:
        assert len(lanes) == n_lanes

    fast = socket._rates_from_key(key)
    ref = socket._compute_rates_scalar()

    assert fast.rate_matrix.dtype == ref.rate_matrix.dtype
    assert fast.rate_matrix.shape == ref.rate_matrix.shape
    assert fast.rate_matrix.tobytes() == ref.rate_matrix.tobytes()
    assert fast.res_rows.tolist() == ref.res_rows.tolist()
    assert _bits(fast.uncore_l3_rate) == _bits(ref.uncore_l3_rate)
    assert _bits(fast.uncore_dram_rate) == _bits(ref.uncore_dram_rate)
    assert _bits(fast.uclk_rate) == _bits(ref.uclk_rate)
    assert _bits(fast.bias) == _bits(ref.bias)
    for name in ("static_w", "core_dyn_w", "uncore_w", "dram_w"):
        assert _bits(getattr(fast.breakdown, name)) \
            == _bits(getattr(ref.breakdown, name)), name


def test_bw_bound_case_is_throttled():
    """The bw-bound case must actually clip demand, or it would not
    exercise the throttle branch of the uniform lane."""
    socket = _socket()
    _bw_bound(socket, np.random.default_rng(0))
    rates = socket._compute_rates_scalar()
    j, core = next((j, c) for j, c in enumerate(socket.cores) if c.is_active)
    want = core.current_phase.dram_bytes_per_cycle * core.freq_hz
    assert 0.0 < rates.rate_matrix[FIELD_ROW["dram_bytes"], j] < want
