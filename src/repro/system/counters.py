"""Hardware counter state, as sampled by the perfctr instrument.

Mirrors the counters the paper reads via LIKWID: TSC, APERF/MPERF,
retired instructions (per thread and per core), stall cycles, uncore
clocks (``UNCORE_CLOCK:UBOXFIX``), and cache/DRAM traffic.

Storage is structure-of-arrays: a :class:`CoreCounters` is a *view* of
one column of its node's ``(n_fields, n_cores_total)`` counter block,
the head of the node's accumulator vector, and an
:class:`UncoreCounters` is a view of three entries of its tail, so
:meth:`repro.system.node.Node.integrate` advances every counter on
every socket with a single vectorized multiply-add per segment.
C-state residency is integer nanoseconds in a socket-owned
``(n_cstates, n_cores)`` matrix; the node defers the per-segment adds
into one pending integer and folds it in when an operating point
changes, so every residency read first calls the ``sync`` hook the
owner installed (:meth:`CoreCounters.adopt`). A standalone counter
set (not yet adopted, or a ``snapshot``) owns its own storage; the
Python attribute values are materialized lazily, on read.
"""

from __future__ import annotations

import numpy as np

from repro.cstates.states import CState

#: Accumulator row layout, in declaration order of the public attributes.
CORE_COUNTER_FIELDS = (
    "tsc",                   # invariant TSC (nominal-rate) cycles
    "aperf",                 # actual cycles while in C0
    "mperf",                 # nominal-rate cycles while in C0
    "instructions_core",     # retired, all threads
    "instructions_thread0",  # retired, first hardware thread
    "stall_cycles",
    "l3_bytes",
    "dram_bytes",
)
FIELD_ROW = {name: i for i, name in enumerate(CORE_COUNTER_FIELDS)}

#: Residency row layout (shallow to deep).
RESIDENCY_STATES = tuple(CState)
CSTATE_ROW = {state: i for i, state in enumerate(RESIDENCY_STATES)}


def no_pending_residency() -> None:
    """Residency sync hook of storage nobody integrates into."""


class _ResidencyView:
    """Dict-like view of one core's c-state residency column (ns).

    Every read and write first runs ``sync``, so a view held across
    ``run_for`` calls sees the node's pending residency too.
    """

    __slots__ = ("_col", "_sync")

    def __init__(self, col: np.ndarray, sync=no_pending_residency) -> None:
        self._col = col
        self._sync = sync

    def __getitem__(self, state: CState) -> int:
        self._sync()
        return int(self._col[CSTATE_ROW[state]])

    def __setitem__(self, state: CState, value: int) -> None:
        self._sync()
        self._col[CSTATE_ROW[state]] = value

    def __iter__(self):
        return iter(RESIDENCY_STATES)

    def __len__(self) -> int:
        return len(RESIDENCY_STATES)

    def __contains__(self, state: object) -> bool:
        return state in CSTATE_ROW

    def keys(self):
        return RESIDENCY_STATES

    def values(self):
        self._sync()
        return [int(v) for v in self._col]

    def items(self):
        self._sync()
        return [(s, int(self._col[i]))
                for i, s in enumerate(RESIDENCY_STATES)]

    def get(self, state: CState, default: int | None = None):
        if state in CSTATE_ROW:
            return self[state]
        return default

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ResidencyView):
            self._sync()
            other._sync()
            return bool(np.array_equal(self._col, other._col))
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _field_property(row: int):
    def _get(self) -> float:
        return float(self._data[row])

    def _set(self, value: float) -> None:
        self._data[row] = value

    return property(_get, _set)


class CoreCounters:
    """Monotonic counters of one core (column views into node storage)."""

    __slots__ = ("_data", "_res", "_sync")

    def __init__(self, tsc: float = 0.0, aperf: float = 0.0,
                 mperf: float = 0.0, instructions_core: float = 0.0,
                 instructions_thread0: float = 0.0,
                 stall_cycles: float = 0.0, l3_bytes: float = 0.0,
                 dram_bytes: float = 0.0) -> None:
        self._data = np.array([tsc, aperf, mperf, instructions_core,
                               instructions_thread0, stall_cycles,
                               l3_bytes, dram_bytes], dtype=np.float64)
        self._res = np.zeros(len(RESIDENCY_STATES), dtype=np.int64)
        self._sync = no_pending_residency

    tsc = _field_property(FIELD_ROW["tsc"])
    aperf = _field_property(FIELD_ROW["aperf"])
    mperf = _field_property(FIELD_ROW["mperf"])
    instructions_core = _field_property(FIELD_ROW["instructions_core"])
    instructions_thread0 = _field_property(FIELD_ROW["instructions_thread0"])
    stall_cycles = _field_property(FIELD_ROW["stall_cycles"])
    l3_bytes = _field_property(FIELD_ROW["l3_bytes"])
    dram_bytes = _field_property(FIELD_ROW["dram_bytes"])

    @property
    def cstate_residency_ns(self) -> _ResidencyView:
        return _ResidencyView(self._res, self._sync)

    @cstate_residency_ns.setter
    def cstate_residency_ns(self, mapping) -> None:
        self._sync()
        for state, value in dict(mapping).items():
            self._res[CSTATE_ROW[state]] = value

    def adopt(self, data_col: np.ndarray, res_col: np.ndarray,
              sync=no_pending_residency) -> None:
        """Rebind to owner-held columns (carrying current values).

        ``sync`` folds the owner's pending residency into ``res_col``;
        it runs before every residency read or write.
        """
        data_col[:] = self._data
        res_col[:] = self._res
        self._data = data_col
        self._res = res_col
        self._sync = sync

    def snapshot(self) -> "CoreCounters":
        """A detached copy with its own storage."""
        self._sync()
        copy = CoreCounters()
        copy._data = self._data.copy()
        copy._res = self._res.copy()
        return copy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoreCounters):
            return NotImplemented
        self._sync()
        other._sync()
        return (bool(np.array_equal(self._data, other._data))
                and bool(np.array_equal(self._res, other._res)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={float(self._data[i])!r}"
                           for i, name in enumerate(CORE_COUNTER_FIELDS))
        return f"CoreCounters({fields})"


#: Uncore counter layout (uclk: UBOXFIX ticks): the head of a socket's
#: scalar accumulators.
UNCORE_COUNTER_FIELDS = ("uclk", "l3_bytes", "dram_bytes")


class UncoreCounters:
    """Monotonic counters of one socket's uncore (views into node
    storage, like :class:`CoreCounters`)."""

    __slots__ = ("_data",)

    def __init__(self, uclk: float = 0.0, l3_bytes: float = 0.0,
                 dram_bytes: float = 0.0) -> None:
        self._data = np.array([uclk, l3_bytes, dram_bytes],
                              dtype=np.float64)

    uclk = _field_property(0)
    l3_bytes = _field_property(1)
    dram_bytes = _field_property(2)

    def adopt(self, data: np.ndarray) -> None:
        """Rebind to owner-held entries (carrying current values)."""
        data[:] = self._data
        self._data = data

    def snapshot(self) -> "UncoreCounters":
        """A detached copy with its own storage."""
        copy = UncoreCounters()
        copy._data = self._data.copy()
        return copy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncoreCounters):
            return NotImplemented
        return bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={float(self._data[i])!r}"
                           for i, name in enumerate(UNCORE_COUNTER_FIELDS))
        return f"UncoreCounters({fields})"
