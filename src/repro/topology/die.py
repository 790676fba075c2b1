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

    def to_graph(self) -> nx.Graph:
        """The die as an undirected graph: ring edges + queue edges.

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
