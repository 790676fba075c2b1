"""Fig. 1 die topology: structure, variants, routing."""

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.topology.builder import DIE_VARIANTS, build_haswell_die
from repro.topology.die import ComponentKind
from repro.topology.routing import (
    average_core_imc_hops,
    average_core_l3_hops,
    hop_count,
    ring_path,
)


class TestDieVariants:
    """Section II-A: three dies cover 4-18 cores."""

    def test_8core_die_single_ring(self):
        die = build_haswell_die(8)
        assert die.name == "8-core die"
        assert die.n_partitions == 1
        assert die.queue_pairs == []

    def test_12core_die_is_8_plus_4(self):
        die = build_haswell_die(12)
        assert die.name == "12-core die"
        assert [len(p.cores) for p in die.partitions] == [8, 4]

    def test_18core_die_is_8_plus_10(self):
        die = build_haswell_die(18)
        assert die.name == "18-core die"
        assert [len(p.cores) for p in die.partitions] == [8, 10]

    @pytest.mark.parametrize("sku,expected", [
        (4, "8-core die"), (6, "8-core die"), (8, "8-core die"),
        (10, "12-core die"), (12, "12-core die"),
        (14, "18-core die"), (16, "18-core die"), (18, "18-core die"),
    ])
    def test_sku_to_die_mapping(self, sku, expected):
        assert build_haswell_die(sku).name == expected

    def test_rejects_unknown_sku(self):
        with pytest.raises(ConfigurationError):
            build_haswell_die(20)
        with pytest.raises(ConfigurationError):
            build_haswell_die(5)

    def test_fused_off_cores(self):
        # a 10-core SKU uses the 12-core die with 2 cores disabled
        die = build_haswell_die(10)
        assert len(die.enabled_cores) == 10
        total_stops = sum(len(p.cores) for p in die.partitions)
        assert total_stops == 12


class TestImcAndQueues:
    def test_one_imc_per_partition_two_channels(self):
        for sku in (8, 12, 18):
            die = build_haswell_die(sku)
            for part in die.partitions:
                assert len(part.imcs) == 1
            assert die.dram_channels == 2 * die.n_partitions

    def test_partitioned_dies_have_two_queue_pairs(self):
        for sku in (12, 18):
            die = build_haswell_die(sku)
            assert len(die.queue_pairs) == 2
            for a, b in die.queue_pairs:
                assert a.kind is ComponentKind.QUEUE
                assert b.kind is ComponentKind.QUEUE
                assert a.partition != b.partition

    def test_qpi_and_pcie_on_partition_zero(self):
        die = build_haswell_die(18)
        kinds0 = {c.kind for c in die.partitions[0].components}
        kinds1 = {c.kind for c in die.partitions[1].components}
        assert ComponentKind.QPI in kinds0
        assert ComponentKind.PCIE in kinds0
        assert ComponentKind.QPI not in kinds1


class TestGraph:
    def test_graph_connected(self):
        for sku in (8, 12, 18):
            graph = build_haswell_die(sku).to_graph()
            assert nx.is_connected(graph)

    def test_single_ring_is_a_cycle(self):
        die = build_haswell_die(8)
        graph = die.to_graph()
        # every stop on a pure ring has exactly two neighbours
        assert all(d == 2 for _, d in graph.degree())

    def test_cross_partition_paths_use_queues(self):
        die = build_haswell_die(12)
        core_p0 = die.partitions[0].cores[0].name
        core_p1 = die.partitions[1].cores[0].name
        path = ring_path(die, core_p0, core_p1)
        kinds = {name.rstrip("0123456789") for name in path}
        assert "queue" in kinds

    @pytest.mark.parametrize("sku", [4, 6, 8, 10, 12, 14, 16, 18])
    def test_hop_counts_match_graph_shortest_paths(self, sku):
        """The breadth-first hop counts the averages use equal the
        networkx shortest path lengths of the exported graph."""
        die = build_haswell_die(sku)
        graph = die.to_graph()
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        assert {name: sorted(die.adjacency()[name]) for name in graph} \
            == {name: sorted(graph[name]) for name in graph}
        for name in graph:
            assert die.hop_counts(name) == lengths[name]

    def test_ring_edges_labeled(self):
        graph = build_haswell_die(12).to_graph()
        kinds = {data["kind"] for _, _, data in graph.edges(data=True)}
        assert kinds == {"ring", "queue"}


class TestRouting:
    def test_hop_count_symmetric(self):
        die = build_haswell_die(12)
        a, b = "core0", "core9"
        assert hop_count(die, a, b) == hop_count(die, b, a)

    def test_bigger_die_longer_average_l3_distance(self):
        hops = [average_core_l3_hops(build_haswell_die(n)) for n in (8, 12, 18)]
        assert hops[0] < hops[1] < hops[2]

    def test_core_imc_distance_positive(self):
        for sku in (8, 12, 18):
            assert average_core_imc_hops(build_haswell_die(sku)) >= 1.0

    def test_variant_table_complete(self):
        assert sorted(DIE_VARIANTS) == [4, 6, 8, 10, 12, 14, 16, 18]
