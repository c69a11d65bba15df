"""Tests for repro.graph.digraph."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph, node_positions


def build_triangle() -> DiGraph:
    g = DiGraph()
    g.add_edge(0, 1, weight=0.5)
    g.add_edge(1, 2, weight=0.7)
    g.add_edge(2, 0, weight=0.9)
    return g


class TestConstruction:
    def test_add_node_idempotent(self):
        g = DiGraph()
        g.add_node(1)
        g.add_node(1)
        assert g.node_count == 1

    def test_add_edge_creates_endpoints(self):
        g = DiGraph()
        g.add_edge(1, 2)
        assert 1 in g and 2 in g
        assert g.edge_count == 1

    def test_readd_edge_overwrites_weight(self):
        g = DiGraph()
        g.add_edge(1, 2, weight=0.1)
        g.add_edge(1, 2, weight=0.9)
        assert g.edge_count == 1
        assert g.weight(1, 2) == 0.9

    def test_self_loop_rejected(self):
        g = DiGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_add_nodes_bulk(self):
        g = DiGraph()
        g.add_nodes(range(5))
        assert g.node_count == 5


class TestRemoval:
    def test_remove_edge(self):
        g = build_triangle()
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.edge_count == 2
        assert 0 not in set(g.predecessors(1))

    def test_remove_missing_edge_rejected(self):
        g = DiGraph()
        g.add_node(1)
        g.add_node(2)
        with pytest.raises(GraphError):
            g.remove_edge(1, 2)

    def test_remove_node_cleans_incident_edges(self):
        g = build_triangle()
        g.remove_node(1)
        assert g.node_count == 2
        assert g.edge_count == 1  # only 2 -> 0 survives
        assert g.has_edge(2, 0)

    def test_remove_missing_node_rejected(self):
        with pytest.raises(GraphError):
            DiGraph().remove_node(7)


class TestQueries:
    def test_directionality(self):
        g = DiGraph()
        g.add_edge(1, 2)
        assert list(g.successors(1)) == [2]
        assert list(g.successors(2)) == []
        assert list(g.predecessors(2)) == [1]
        assert list(g.predecessors(1)) == []

    def test_degrees(self):
        g = build_triangle()
        for node in range(3):
            assert g.out_degree(node) == 1
            assert g.in_degree(node) == 1

    def test_weight_missing_edge_rejected(self):
        g = build_triangle()
        with pytest.raises(GraphError):
            g.weight(0, 2)

    def test_unknown_node_rejected(self):
        g = DiGraph()
        with pytest.raises(GraphError):
            g.out_degree(3)
        with pytest.raises(GraphError):
            list(g.successors(3))

    def test_out_edges_with_weights(self):
        g = build_triangle()
        assert list(g.out_edges(0)) == [(1, 0.5)]

    def test_edges_iterates_all(self):
        g = build_triangle()
        assert sorted(g.edges()) == [(0, 1, 0.5), (1, 2, 0.7), (2, 0, 0.9)]

    def test_len_is_node_count(self):
        assert len(build_triangle()) == 3


class TestDerivedGraphs:
    def test_subgraph_keeps_internal_edges(self):
        g = build_triangle()
        sub = g.subgraph([0, 1])
        assert sub.node_count == 2
        assert sub.has_edge(0, 1)
        assert not sub.has_edge(1, 2)

    def test_subgraph_preserves_weights(self):
        g = build_triangle()
        assert g.subgraph([0, 1]).weight(0, 1) == 0.5

    def test_subgraph_ignores_unknown_nodes(self):
        g = build_triangle()
        sub = g.subgraph([0, 99])
        assert sub.node_count == 1

    def test_reversed_flips_edges(self):
        g = build_triangle()
        rev = g.reversed()
        assert rev.has_edge(1, 0) and rev.weight(1, 0) == 0.5
        assert rev.node_count == g.node_count
        assert rev.edge_count == g.edge_count

    def test_copy_is_independent(self):
        g = build_triangle()
        dup = g.copy()
        dup.remove_edge(0, 1)
        assert g.has_edge(0, 1)

    def test_copy_on_write_isolates_both_sides(self):
        g = build_triangle()
        dup = g.copy()
        # Writes on the source after the copy stay private too.
        g.update_weight(1, 2, 0.1)
        g.set_row(2, {1: 0.3})
        dup.add_edge(0, 2, weight=0.4)
        assert dup.weight(1, 2) == 0.7
        assert set(dup.predecessors(0)) == {2}
        assert set(dup.predecessors(1)) == {0}
        assert g.out_row(0) == {1: 0.5}
        assert set(g.predecessors(2)) == {1}
        assert g.edge_count == 3 and dup.edge_count == 4
        # A copy of a copy stays independent of both.
        third = dup.copy()
        third.remove_node(0)
        assert dup.has_edge(0, 2) and g.has_edge(0, 1)


class TestArrays:
    def test_successor_arrays_follow_node_and_edge_order(self):
        g = DiGraph()
        g.add_nodes([5, 3, 9])
        g.add_edge(5, 9, weight=0.25)
        g.add_edge(5, 3, weight=0.5)
        g.add_edge(9, 5, weight=0.75)
        degrees, targets = g.successor_arrays()
        assert degrees.tolist() == [2, 0, 1]
        assert targets.tolist() == [9, 3, 5]
        assert g.weight_array().tolist() == [0.25, 0.5, 0.75]
        degrees, targets = g.successor_arrays([9, 5])
        assert degrees.tolist() == [1, 2]
        assert targets.tolist() == [5, 9, 3]
        assert g.weight_array([9, 5]).tolist() == [0.75, 0.25, 0.5]

    @pytest.mark.parametrize(
        "order", [[4, 0, 2, 1], [10**12, -5, 7, 3 * 10**9]]
    )
    def test_node_positions_compact_and_sparse_ids(self, order):
        # Compact ids take the dense-table path, far-apart ids the
        # sorted-search path; both answer the same positions.
        order_arr = np.array(order, dtype=np.int64)
        ids = np.array(order[::-1] + order[:2], dtype=np.int64)
        expected = [order.index(i) for i in ids.tolist()]
        assert node_positions(order_arr, ids).tolist() == expected

    def test_predecessors_of_unions_sets(self):
        g = build_triangle()
        g.add_edge(1, 0)
        assert g.predecessors_of([0, 1]) == {2, 1, 0}
        assert g.predecessors_of([]) == set()
        with pytest.raises(GraphError):
            g.predecessors_of([42])


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=60,
    )
)
def test_degree_sums_equal_edge_count(edges):
    """Property: sum of out-degrees == sum of in-degrees == edge count."""
    g = DiGraph()
    for u, v in edges:
        g.add_edge(u, v)
    out_total = sum(g.out_degree(n) for n in g.nodes())
    in_total = sum(g.in_degree(n) for n in g.nodes())
    assert out_total == in_total == g.edge_count


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=50,
    )
)
def test_reversed_twice_is_identity(edges):
    """Property: reversing twice restores the original edge set."""
    g = DiGraph()
    for u, v in edges:
        g.add_edge(u, v)
    double = g.reversed().reversed()
    assert sorted(double.edges()) == sorted(g.edges())
