"""Ring routing helpers: hop counts and shortest paths on a die graph.

Used by the topology benchmarks and the L3 transport model (average
core-to-L3-slice distance grows with die size, one reason large dies need
the queue-bridged layout the paper describes). In the default hardware
configuration this complexity is invisible to software — the paper notes
this — so these helpers are analysis tools, not simulation state.

The one mutable piece is :class:`LinkDerate`: a degradation knob on the
cross-socket (QPI) link that the fault injector drives for NUMA-link
faults. A derate scales link bandwidth down and adds per-hop latency;
the NUMA placement model consults it when evaluating remote traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.topology.die import Die


@dataclass
class LinkDerate:
    """Mutable degradation state of the cross-socket link.

    ``bandwidth_factor`` multiplies the effective link data bandwidth
    (1.0 = healthy); ``latency_add_ns`` is added to every remote hop.
    """

    bandwidth_factor: float = 1.0
    latency_add_ns: float = 0.0

    def degrade(self, bandwidth_factor: float = 1.0,
                latency_add_ns: float = 0.0) -> None:
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ConfigurationError(
                f"bandwidth factor {bandwidth_factor} outside (0, 1]")
        if latency_add_ns < 0.0:
            raise ConfigurationError("latency adder must be >= 0")
        self.bandwidth_factor = bandwidth_factor
        self.latency_add_ns = latency_add_ns

    def restore(self) -> None:
        self.bandwidth_factor = 1.0
        self.latency_add_ns = 0.0

    @property
    def healthy(self) -> bool:
        return self.bandwidth_factor == 1.0 and self.latency_add_ns == 0.0


def ring_path(die: Die, src_name: str, dst_name: str) -> list[str]:
    """Shortest stop-to-stop path on the die."""
    import networkx as nx

    return nx.shortest_path(die.to_graph(), src_name, dst_name)


def hop_count(die: Die, src_name: str, dst_name: str) -> int:
    """Number of ring/queue hops between two stops."""
    return len(ring_path(die, src_name, dst_name)) - 1


def average_core_l3_hops(die: Die) -> float:
    """Mean hop distance from an enabled core to every other core's L3 slice.

    L3 slices are co-located with core ring stops, so the core-to-core
    distance distribution is the L3 access distance distribution under
    the default address-hashed slice interleaving.
    """
    cores = [c.name for c in die.enabled_cores]
    total = 0
    pairs = 0
    for a in cores:
        lengths = die.hop_counts(a)
        for b in cores:
            if a != b:
                total += lengths[b]
                pairs += 1
    return total / pairs if pairs else 0.0


def average_core_imc_hops(die: Die) -> float:
    """Mean hop distance from an enabled core to its nearest IMC."""
    imcs = [c.name for p in die.partitions for c in p.imcs]
    dists = []
    for c in die.enabled_cores:
        lengths = die.hop_counts(c.name)
        dists.append(min(lengths[imc] for imc in imcs))
    return sum(dists) / len(dists) if dists else 0.0
