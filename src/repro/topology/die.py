"""Die/ring data structures.

Haswell-EP uses bidirectional rings to connect core/L3-slice stops with
the uncore agents (IMC, QPI, PCIe). Larger dies are split into two ring
partitions joined by buffered queues (Fig. 1); each partition owns one
integrated memory controller with two DRAM channels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import networkx as nx


class ComponentKind(enum.Enum):
    CORE = "core"            # core + its co-located L3 slice ring stop
    IMC = "imc"              # integrated memory controller (2 channels)
    QPI = "qpi"
    PCIE = "pcie"
    QUEUE = "queue"          # inter-partition buffered queue stop


@dataclass(frozen=True)
class DieComponent:
    """One ring stop."""

    kind: ComponentKind
    index: int               # global index within its kind
    partition: int

    @property
    def name(self) -> str:
        return f"{self.kind.value}{self.index}"


@dataclass
class RingPartition:
    """One bidirectional ring and the stops attached to it."""

    index: int
    components: list[DieComponent] = field(default_factory=list)

    @property
    def cores(self) -> list[DieComponent]:
        return [c for c in self.components if c.kind is ComponentKind.CORE]

    @property
    def imcs(self) -> list[DieComponent]:
        return [c for c in self.components if c.kind is ComponentKind.IMC]

    @property
    def n_stops(self) -> int:
        return len(self.components)


@dataclass
class Die:
    """A full die: partitions, queues linking them, and the derived graph."""

    name: str
    n_cores: int             # enabled cores (a die variant may fuse some off)
    partitions: list[RingPartition]
    queue_pairs: list[tuple[DieComponent, DieComponent]]
    dram_channels_per_imc: int = 2

    def __post_init__(self) -> None:
        total = sum(len(p.cores) for p in self.partitions)
        if total < self.n_cores:
            raise ConfigurationError(
                f"die {self.name}: {self.n_cores} enabled cores but only "
                f"{total} core stops")

    @property
    def enabled_cores(self) -> list[DieComponent]:
        cores = [c for p in self.partitions for c in p.cores]
        cores.sort(key=lambda c: c.index)
        return cores[: self.n_cores]

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    @property
    def n_imcs(self) -> int:
        return sum(len(p.imcs) for p in self.partitions)

    @property
    def dram_channels(self) -> int:
        return self.n_imcs * self.dram_channels_per_imc

    def adjacency(self) -> dict[str, list[str]]:
        """Each stop's neighbours: its ring neighbours either way round
        its partition's cycle, and the stop a queue pair bridges it to
        (the edges of :meth:`to_graph`)."""
        adjacent: dict[str, list[str]] = {}

        def link(a: str, b: str) -> None:
            if b not in adjacent[a]:
                adjacent[a].append(b)
                adjacent[b].append(a)

        for part in self.partitions:
            stops = part.components
            for stop in stops:
                adjacent[stop.name] = []
            for i, stop in enumerate(stops):
                link(stop.name, stops[(i + 1) % len(stops)].name)
        for a, b in self.queue_pairs:
            link(a.name, b.name)
        return adjacent

    def hop_counts(self, src_name: str) -> dict[str, int]:
        """Fewest ring/queue hops from ``src_name`` to every stop it
        reaches (a breadth-first search of :meth:`adjacency`)."""
        adjacent = self.adjacency()
        hops = {src_name: 0}
        frontier = [src_name]
        while frontier:
            following = []
            for stop in frontier:
                for other in adjacent[stop]:
                    if other not in hops:
                        hops[other] = hops[stop] + 1
                        following.append(other)
            frontier = following
        return hops

    def to_graph(self) -> nx.Graph:
        """The die as an undirected networkx graph: ring edges + queue
        edges, for analysis and export (networkx loads on the first
        call; the hop counts the model uses are :meth:`hop_counts`).

        Each partition's stops form a cycle (the bidirectional ring);
        queue pairs bridge partitions. Edge attribute ``kind`` is ``ring``
        or ``queue``.
        """
        import networkx as nx

        graph = nx.Graph()
        for part in self.partitions:
            stops = part.components
            graph.add_nodes_from((s.name, {"component": s}) for s in stops)
            n = len(stops)
            for i, stop in enumerate(stops):
                nxt = stops[(i + 1) % n]
                graph.add_edge(stop.name, nxt.name, kind="ring")
        for a, b in self.queue_pairs:
            graph.add_edge(a.name, b.name, kind="queue")
        return graph
