"""Unit tests for repro.topology.hypercube."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.topology.hypercube import Hypercube
from repro.topology.nx_adapter import bfs_eccentricity


class TestStructure:
    @pytest.mark.parametrize("n,nodes,edges", [(1, 2, 1), (2, 4, 4), (3, 8, 12), (4, 16, 32)])
    def test_counts(self, n, nodes, edges):
        cube = Hypercube(n)
        assert cube.num_nodes == nodes
        assert cube.num_edges == edges
        enumerated = sum(len(cube.neighbors(node)) for node in cube.nodes()) // 2
        assert enumerated == edges

    def test_rejects_zero_dimension(self):
        with pytest.raises(InvalidParameterError):
            Hypercube(0)

    def test_degree_equals_dimension(self, cube3):
        for node in cube3.nodes():
            assert cube3.degree(node) == 3

    def test_neighbors_differ_in_one_bit(self, cube3):
        for node in cube3.nodes():
            for neighbor in cube3.neighbors(node):
                assert sum(a != b for a, b in zip(node, neighbor)) == 1

    def test_neighbor_along(self, cube3):
        assert cube3.neighbor_along((0, 0, 0), 2) == (0, 0, 1)
        with pytest.raises(InvalidParameterError):
            cube3.neighbor_along((0, 0, 0), 3)

    def test_membership(self, cube3):
        assert cube3.is_node((1, 0, 1))
        assert not cube3.is_node((1, 0))
        assert not cube3.is_node((1, 2, 0))

    def test_equality(self):
        assert Hypercube(3) == Hypercube(3)
        assert Hypercube(3) != Hypercube(4)


class TestIndexing:
    def test_round_trip(self, cube3):
        for index in range(8):
            assert cube3.node_index(cube3.node_from_index(index)) == index

    def test_bit_zero_is_least_significant(self, cube3):
        assert cube3.node_from_index(1) == (1, 0, 0)
        assert cube3.node_index((0, 0, 1)) == 4

    def test_out_of_range(self, cube3):
        with pytest.raises(InvalidParameterError):
            cube3.node_from_index(8)

    @pytest.mark.parametrize("index", [True, False, 1.5, 2.0, "1", None])
    def test_rejects_non_integral_index(self, cube3, index):
        with pytest.raises(InvalidParameterError):
            cube3.node_from_index(index)

    def test_numpy_integer_index_gives_plain_int_bits(self, cube3):
        node = cube3.node_from_index(np.int64(5))
        assert node == (1, 0, 1)
        assert all(type(bit) is int for bit in node)


class TestMetric:
    def test_distance_is_hamming(self, cube3):
        assert cube3.distance((0, 0, 0), (1, 1, 1)) == 3
        assert cube3.distance((1, 0, 1), (1, 1, 1)) == 1

    def test_shortest_path_valid(self, cube3):
        path = cube3.shortest_path((0, 0, 0), (1, 0, 1))
        assert path[0] == (0, 0, 0) and path[-1] == (1, 0, 1)
        assert len(path) - 1 == 2
        for a, b in zip(path, path[1:]):
            assert cube3.has_edge(a, b)

    def test_diameter(self, cube3):
        assert cube3.diameter() == 3
        assert bfs_eccentricity(cube3, (0, 0, 0)) == 3

    def test_eccentricity(self, cube3):
        assert cube3.eccentricity((1, 1, 0)) == 3
