"""The relation-temporal graph G_RT: structure, counts, cylinder invariants."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import RelationMatrix, RelationTemporalGraph


def relations():
    return RelationMatrix(4, ["industry:x"], [
        (0, 1, 0), (1, 2, 0),
    ])


class TestStructure:
    def test_node_count(self):
        g = RelationTemporalGraph(relations(), num_steps=5)
        assert g.stats().num_nodes == 20
        assert len(list(g.nodes())) == 20

    def test_relational_edges_per_step(self):
        g = RelationTemporalGraph(relations(), num_steps=3)
        stats = g.stats()
        assert stats.num_relational_edges == 2 * 3

    def test_temporal_edges_connect_same_stock(self):
        g = RelationTemporalGraph(relations(), num_steps=3)
        for (t1, i1), (t2, i2) in g.temporal_edges():
            assert i1 == i2
            assert t2 == t1 + 1

    def test_temporal_edge_count(self):
        g = RelationTemporalGraph(relations(), num_steps=4)
        assert g.stats().num_temporal_edges == 4 * 3

    def test_single_step_has_no_temporal_edges(self):
        g = RelationTemporalGraph(relations(), num_steps=1)
        assert g.stats().num_temporal_edges == 0

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            RelationTemporalGraph(relations(), num_steps=0)


class TestNeighbors:
    def test_interior_node_neighbors(self):
        g = RelationTemporalGraph(relations(), num_steps=3)
        nbrs = set(g.neighbors(1, 1))
        assert (1, 0) in nbrs and (1, 2) in nbrs   # relational
        assert (0, 1) in nbrs and (2, 1) in nbrs   # temporal

    def test_boundary_node_no_past(self):
        g = RelationTemporalGraph(relations(), num_steps=3)
        assert all(t >= 0 for t, _ in g.neighbors(0, 0))
        assert (1, 0) in g.neighbors(0, 0)

    def test_isolated_stock_only_temporal(self):
        g = RelationTemporalGraph(relations(), num_steps=3)
        nbrs = g.neighbors(1, 3)          # stock 3 has no relations
        assert set(nbrs) == {(0, 3), (2, 3)}

    def test_out_of_range_raises(self):
        g = RelationTemporalGraph(relations(), num_steps=2)
        with pytest.raises(IndexError):
            g.neighbors(2, 0)


class TestNetworkxViews:
    def test_full_graph_counts(self):
        g = RelationTemporalGraph(relations(), num_steps=3)
        nxg = g.to_networkx()
        stats = g.stats()
        assert nxg.number_of_nodes() == stats.num_nodes
        assert nxg.number_of_edges() == stats.num_edges

    def test_edge_kinds_labelled(self):
        g = RelationTemporalGraph(relations(), num_steps=2)
        nxg = g.to_networkx()
        kinds = {d["kind"] for _, _, d in nxg.edges(data=True)}
        assert kinds == {"relational", "temporal"}

    def test_relational_slice_carries_type_names(self):
        g = RelationTemporalGraph(relations(), num_steps=2)
        slice_graph = g.relational_graph()
        assert slice_graph.number_of_nodes() == 4
        assert slice_graph.edges[0, 1]["relations"] == ["industry:x"]

    def test_cylinder_is_connected_when_relations_connect(self):
        # All stocks in one industry + temporal edges -> G_RT is connected.
        rel = RelationMatrix(3, ["industry:x"], [
            (0, 1, 0), (1, 2, 0), (0, 2, 0)])
        nxg = RelationTemporalGraph(rel, num_steps=4).to_networkx()
        assert nx.is_connected(nxg)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_grt_size_formula(n, steps, seed):
    """|V| = N·T and |E| = T·|E_R| + N·(T−1) for any relation set."""
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(rng.integers(0, n)):
        i, j = rng.integers(0, n, 2)
        if i != j:
            edges.append((int(i), int(j), 0))
    rel = RelationMatrix(n, ["t0"], edges)
    g = RelationTemporalGraph(rel, num_steps=steps)
    stats = g.stats()
    assert stats.num_nodes == n * steps
    assert stats.num_relational_edges == rel.edge_count() * steps
    assert stats.num_temporal_edges == n * (steps - 1)
    nxg = g.to_networkx()
    assert nxg.number_of_edges() == stats.num_edges
