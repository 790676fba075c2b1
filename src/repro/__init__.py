"""repro — a behavioral reproduction of the Intel Haswell-EP energy-
efficiency survey (Hackenberg et al., IPDPSW 2015).

The package simulates the paper's dual-socket Xeon E5-2680 v3 test node —
per-core FIVR p-states, uncore frequency scaling, energy-efficient turbo,
AVX frequencies, TDP enforcement, measured RAPL, core/package c-states,
and the L3/DRAM bandwidth behaviour — plus the instruments (LMG450 meter,
LIKWID-like counters, FTaLaT, c-state probes) and workloads (FIRESTARTER,
LINPACK, mprime, the Fig. 2 micro-benchmark set) needed to re-run every
experiment in the paper.

Quickstart::

    from repro import build_haswell_node, firestarter
    from repro.instruments import LikwidSampler
    from repro.units import seconds

    sim, node = build_haswell_node(seed=1)
    node.run_workload([c.core_id for c in node.all_cores], firestarter())
    sampler = LikwidSampler(sim, node, core_ids=[0, 12])
    sampler.start()
    sim.run_for(seconds(5))
    print(sampler.median_metrics(0))
"""

from repro.engine import Simulator
from repro.system import Node, build_node, build_haswell_node
from repro.specs import (
    HASWELL_TEST_NODE,
    SANDY_BRIDGE_TEST_NODE,
    WESTMERE_TEST_NODE,
    E5_2680_V3,
    E5_2670_SNB,
    X5670_WSM,
)
from repro.pcu import Epb
from repro.workloads import (
    firestarter,
    linpack,
    mprime,
    idle,
    busy_wait,
    sinus,
    memory_read,
    compute,
    dgemm,
    sqrt_bench,
    while1_spin,
)

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "Node",
    "build_node",
    "build_haswell_node",
    "HASWELL_TEST_NODE",
    "SANDY_BRIDGE_TEST_NODE",
    "WESTMERE_TEST_NODE",
    "E5_2680_V3",
    "E5_2670_SNB",
    "X5670_WSM",
    "Epb",
    "firestarter",
    "linpack",
    "mprime",
    "idle",
    "busy_wait",
    "sinus",
    "memory_read",
    "compute",
    "dgemm",
    "sqrt_bench",
    "while1_spin",
    "__version__",
]
