"""Parity tests for :class:`~repro.simd.cayley_machine.CayleyMachine`.

The fast-core contract, extended to the whole Cayley family: the one-gather
``route_generator`` must be bit-identical -- registers and ledger -- to
routing the same moves through the generic validated tuple path
(``route_moves``), and :class:`~repro.simd.star_machine.StarMachine` is the
Cayley machine over the star graph, behaving exactly like the star-tree
instance with 1-based generators.
"""

import pytest

from repro.exceptions import InvalidParameterError
from repro.simd.cayley_machine import CayleyMachine
from repro.simd.masks import Mask
from repro.simd.star_machine import StarMachine
from repro.topology.cayley import (
    BubbleSortGraph,
    PancakeGraph,
    TranspositionTreeGraph,
)


def fresh_machine(graph):
    machine = CayleyMachine(graph)
    machine.define_register("A", {node: index for index, node in enumerate(machine.nodes)})
    return machine


def family_graphs():
    return [
        PancakeGraph(4),
        BubbleSortGraph(4),
        TranspositionTreeGraph.star(4),
        TranspositionTreeGraph(5, ((0, 2), (1, 2), (2, 3), (3, 4))),
    ]


class TestConstruction:
    def test_rejects_non_cayley_topology(self):
        from repro.topology.hypercube import Hypercube

        with pytest.raises(InvalidParameterError):
            CayleyMachine(Hypercube(3))

    def test_star_machine_is_a_cayley_machine(self):
        star = StarMachine(4)
        assert isinstance(star, CayleyMachine)
        assert star.graph is star.star
        assert star.n == 4

    def test_graph_and_n_properties(self):
        machine = CayleyMachine(PancakeGraph(4))
        assert machine.graph == PancakeGraph(4)
        assert machine.n == 4
        assert machine.num_pes == 24


@pytest.mark.parametrize("graph", family_graphs(), ids=repr)
class TestRouteGeneratorParity:
    def test_full_route_matches_generic_path(self, graph):
        fast = fresh_machine(graph)
        slow = fresh_machine(graph)
        for generator in range(graph.num_generators):
            label = f"generator-{graph.generator_names[generator]}"
            fast.route_generator("A", "B", generator)
            moves = [
                (node, graph.neighbor_along(node, generator)) for node in slow.nodes
            ]
            slow.route_moves("A", "B", moves, label=label)
            assert fast.register_values("B") == slow.register_values("B")
            assert fast.stats.snapshot() == slow.stats.snapshot()

    def test_masked_route_matches_generic_path(self, graph):
        fast = fresh_machine(graph)
        slow = fresh_machine(graph)
        predicate = lambda node: node[0] < 2  # noqa: E731
        fast.route_generator("A", "B", 0, where=predicate)
        moves = [
            (node, graph.neighbor_along(node, 0))
            for node in slow.nodes
            if predicate(node)
        ]
        slow.route_moves(
            "A", "B", moves, label=f"generator-{graph.generator_names[0]}"
        )
        assert fast.register_values("B") == slow.register_values("B")
        assert fast.stats.snapshot() == slow.stats.snapshot()

    def test_mask_and_node_collection_forms_agree(self, graph):
        selected = [node for node in graph.nodes() if node[0] == 0]
        by_mask = fresh_machine(graph)
        by_nodes = fresh_machine(graph)
        by_mask.route_generator(
            "A", "B", 1, where=Mask.from_nodes(graph, selected)
        )
        by_nodes.route_generator("A", "B", 1, where=selected)
        assert by_mask.register_values("B") == by_nodes.register_values("B")
        assert by_mask.stats.snapshot() == by_nodes.stats.snapshot()

    def test_route_is_an_involution(self, graph):
        machine = fresh_machine(graph)
        machine.route_generator("A", "B", 0)
        machine.route_generator("B", "C", 0)
        assert machine.register_values("C") == machine.register_values("A")

    def test_generator_index_validated(self, graph):
        machine = fresh_machine(graph)
        with pytest.raises(InvalidParameterError):
            machine.route_generator("A", "B", graph.num_generators)
        with pytest.raises(InvalidParameterError):
            machine.route_generator("A", "B", -1)


class TestStarTreeMatchesStarMachine:
    """CayleyMachine over the star tree == StarMachine, generator for generator."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_registers_and_counts_match(self, n):
        cayley = CayleyMachine(TranspositionTreeGraph.star(n))
        star = StarMachine(n)
        init = {node: index for index, node in enumerate(star.nodes)}
        cayley.define_register("A", init)
        star.define_register("A", init)
        for j in range(1, n):
            cayley.route_generator("A", "B", j - 1, label=f"generator-{j}")
            star.route_generator("A", "B", j)
            assert cayley.register_values("B") == star.register_values("B")
        assert cayley.stats.snapshot() == star.stats.snapshot()

    def test_masked_routes_match(self):
        cayley = CayleyMachine(TranspositionTreeGraph.star(4))
        star = StarMachine(4)
        init = {node: node[0] for node in star.nodes}
        cayley.define_register("A", init)
        star.define_register("A", init)
        predicate = lambda node: node[0] % 2 == 0  # noqa: E731
        cayley.route_generator("A", "B", 1, where=predicate, label="generator-2")
        star.route_generator("A", "B", 2, where=predicate)
        assert cayley.register_values("B") == star.register_values("B")
        assert cayley.stats.snapshot() == star.stats.snapshot()
