"""The relation-temporal graph G_RT (paper §III-B and §IV-A).

``G_RT = (V, E)`` has a node ``v_ti`` for every (time-step, stock) pair and
two edge families:

- relational edges ``E_S = {v_ti v_tj | (i, j) ∈ G_R}`` connecting related
  stocks *within* a time-step (the blue edges of Figure 2), and
- temporal edges ``E_T = {v_ti v_(t+1)i}`` connecting the *same* stock across
  consecutive time-steps (the black edges).

The convolutional model operates on dense tensors, so this class is the
structural view: it drives dataset statistics, visualization in the
examples, and the property tests that pin down the graph's invariants
(fixed node/edge counts, the "cylinder" structure).  Only the two
networkx views import networkx, so the model never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Tuple

import numpy as np

from .relations import RelationMatrix

if TYPE_CHECKING:
    import networkx as nx

Node = Tuple[int, int]  # (time-step t, stock index i)


@dataclass(frozen=True)
class RTGraphStats:
    """Size summary of a relation-temporal graph."""

    num_stocks: int
    num_steps: int
    num_nodes: int
    num_relational_edges: int
    num_temporal_edges: int

    @property
    def num_edges(self) -> int:
        return self.num_relational_edges + self.num_temporal_edges


class RelationTemporalGraph:
    """Explicit node/edge view of G_RT over ``T`` time-steps.

    The node and edge sets are fixed: "no nodes or edges are dynamically
    added during the training and testing" (§III-B).
    """

    def __init__(self, relations: RelationMatrix, num_steps: int):
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        self.relations = relations
        self.num_steps = num_steps
        self.num_stocks = relations.num_stocks
        self._adjacency = relations.binary_adjacency()

    # ------------------------------------------------------------------
    # node and edge iteration
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[Node]:
        """Yield every ``v_ti`` as a ``(t, i)`` pair."""
        for t in range(self.num_steps):
            for i in range(self.num_stocks):
                yield (t, i)

    def relational_edges(self) -> Iterator[Tuple[Node, Node]]:
        """Yield E_S: intra-step edges between related stocks."""
        rows, cols = np.nonzero(np.triu(self._adjacency, k=1))
        for t in range(self.num_steps):
            for i, j in zip(rows, cols):
                yield ((t, int(i)), (t, int(j)))

    def temporal_edges(self) -> Iterator[Tuple[Node, Node]]:
        """Yield E_T: inter-step edges linking each stock to itself."""
        for t in range(self.num_steps - 1):
            for i in range(self.num_stocks):
                yield ((t, i), (t + 1, i))

    # ------------------------------------------------------------------
    # statistics and views
    # ------------------------------------------------------------------
    def stats(self) -> RTGraphStats:
        per_step = int(np.triu(self._adjacency, k=1).sum())
        return RTGraphStats(
            num_stocks=self.num_stocks,
            num_steps=self.num_steps,
            num_nodes=self.num_stocks * self.num_steps,
            num_relational_edges=per_step * self.num_steps,
            num_temporal_edges=self.num_stocks * (self.num_steps - 1),
        )

    def neighbors(self, t: int, i: int) -> List[Node]:
        """All G_RT neighbors of node ``v_ti`` (relational + temporal)."""
        if not (0 <= t < self.num_steps and 0 <= i < self.num_stocks):
            raise IndexError(f"node ({t}, {i}) outside graph")
        result: List[Node] = [(t, int(j))
                              for j in np.nonzero(self._adjacency[i])[0]]
        if t > 0:
            result.append((t - 1, i))
        if t < self.num_steps - 1:
            result.append((t + 1, i))
        return result

    def relational_graph(self) -> nx.Graph:
        """One time-slice G_R as a networkx graph (nodes are stock indices)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_stocks))
        names, triples = self.relations.type_names, self.relations.triples
        for (i, j), start, count in zip(*self.relations.linked_pairs()):
            types = [names[k] for k in triples[start:start + count, 2]]
            graph.add_edge(int(i), int(j), relations=types)
        return graph

    def to_networkx(self) -> nx.Graph:
        """Full G_RT as a networkx graph with typed edges.

        Edge attribute ``kind`` is ``"relational"`` or ``"temporal"``.
        Intended for inspection and plotting of small graphs; the model
        itself never materializes this.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        graph.add_edges_from(self.relational_edges(), kind="relational")
        graph.add_edges_from(self.temporal_edges(), kind="temporal")
        return graph

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"RelationTemporalGraph(stocks={stats.num_stocks}, "
                f"steps={stats.num_steps}, nodes={stats.num_nodes}, "
                f"edges={stats.num_edges})")
