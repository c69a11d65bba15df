"""A lightweight directed graph tailored to the library's access patterns.

Both adjacency directions are indexed because the recommender needs fast
``successors`` (who do I follow / who influences me) *and* fast
``predecessors`` (who follows me / whom do I influence).  Nodes are arbitrary
hashable values; in practice the library uses integer user ids.

Edges optionally carry a float weight — the SimGraph stores similarity
scores there; the raw follow graph leaves weights at 1.0.

:meth:`DiGraph.copy` is copy-on-write: the clone shares every adjacency
row with its source until one side writes to it, so cloning costs
O(nodes) and each later write copies only the rows it touches.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.exceptions import GraphError

__all__ = ["DiGraph", "node_positions"]

Node = Hashable

#: Shared empty mapping returned by :meth:`DiGraph.out_row` for unknown
#: nodes; never mutated.
_EMPTY_ROW: dict = {}


def node_positions(order: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position in ``order`` of every id in ``ids`` (int64 arrays).

    Every id must occur in ``order``, which holds distinct ids in any
    order.  A compact id range (the usual case: ids numbered from zero)
    is answered by one gather through a dense table, any other by a
    sorted search — either way no per-id dict lookup.
    """
    if len(order) == 0:
        return np.empty(0, dtype=np.int64)
    low = int(order.min())
    span = int(order.max()) - low + 1
    if span <= 4 * len(order) + 1024:
        table = np.empty(span, dtype=np.int64)
        table[order - low] = np.arange(len(order), dtype=np.int64)
        return table[ids - low]
    sorter = np.argsort(order, kind="stable")
    return sorter[np.searchsorted(order[sorter], ids)]


class DiGraph:
    """Directed graph with O(1) neighbour access in both directions.

    Example
    -------
    >>> g = DiGraph()
    >>> g.add_edge(1, 2, weight=0.5)
    >>> g.add_edge(1, 3)
    >>> sorted(g.successors(1))
    [2, 3]
    >>> g.weight(1, 2)
    0.5
    """

    def __init__(self) -> None:
        self._succ: dict[Node, dict[Node, float]] = {}
        self._pred: dict[Node, set[Node]] = {}
        self._edge_count = 0
        #: Copy-on-write ownership: ``None`` while this graph owns every
        #: row; after :meth:`copy`, the nodes whose successor row
        #: (``_own_succ``) or predecessor set (``_own_pred``) this graph
        #: has already copied and may mutate in place.
        self._own_succ: set[Node] | None = None
        self._own_pred: set[Node] | None = None

    def _succ_row(self, u: Node) -> dict[Node, float]:
        """The successor row of ``u``, private to this graph (writable)."""
        row = self._succ[u]
        owned = self._own_succ
        if owned is not None and u not in owned:
            row = self._succ[u] = dict(row)
            owned.add(u)
        return row

    def _pred_set(self, v: Node) -> set[Node]:
        """The predecessor set of ``v``, private to this graph (writable)."""
        preds = self._pred[v]
        owned = self._own_pred
        if owned is not None and v not in owned:
            preds = self._pred[v] = set(preds)
            owned.add(v)
        return preds

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Insert ``node``; adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = set()
            if self._own_succ is not None:
                self._own_succ.add(node)
                self._own_pred.add(node)

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Insert every node of ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Insert the directed edge ``u -> v``; endpoints are auto-created.

        Re-adding an existing edge overwrites its weight. Self-loops are
        rejected: neither the follow graph nor the SimGraph is reflexive.
        """
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        row = self._succ_row(u)
        if v not in row:
            self._edge_count += 1
            self._pred_set(v).add(u)
        row[v] = weight

    def set_row(self, u: Node, row: dict[Node, float]) -> None:
        """Replace every outgoing edge of ``u`` with ``row`` in one step.

        The delta maintenance engine swaps whole recomputed rows into a
        copied graph; ``row``'s iteration order becomes the new edge
        order (which the CSR compiler preserves).  ``u`` is created if
        absent; targets are auto-created like :meth:`add_edge`.
        """
        if u in row:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        old = self._succ[u]
        if row.keys() != old.keys():
            # Only the targets that changed get predecessor bookkeeping,
            # so a copy-on-write clone copies no other predecessor set.
            for v in old:
                if v not in row:
                    self._pred_set(v).discard(u)
            for v in row:
                if v not in old:
                    self.add_node(v)
                    self._pred_set(v).add(u)
            self._edge_count += len(row) - len(old)
        self._succ[u] = dict(row)
        if self._own_succ is not None:
            self._own_succ.add(u)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge ``u -> v``; raises GraphError when absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge {u!r} -> {v!r} does not exist")
        del self._succ_row(u)[v]
        self._pred_set(v).discard(u)
        self._edge_count -= 1

    def remove_node(self, node: Node) -> None:
        """Delete ``node`` and every incident edge."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")
        for v in list(self._succ[node]):
            self.remove_edge(node, v)
        for u in list(self._pred[node]):
            self.remove_edge(u, node)
        del self._succ[node]
        del self._pred[node]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._succ)

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Iterate over all (source, target, weight) triples."""
        for u, targets in self._succ.items():
            for v, w in targets.items():
                yield u, v, w

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        """Number of directed edges."""
        return self._edge_count

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the directed edge ``u -> v`` exists."""
        return u in self._succ and v in self._succ[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of the edge ``u -> v``; raises GraphError when absent."""
        try:
            return self._succ[u][v]
        except KeyError:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist") from None

    def get_weight(
        self, u: Node, v: Node, default: float | None = None
    ) -> float | None:
        """Weight of ``u -> v``, or ``default`` when the edge is absent.

        One lookup instead of a ``has_edge`` + ``weight`` pair — the
        delta maintenance engine probes every patched pair this way.
        """
        row = self._succ.get(u)
        if row is None:
            return default
        return row.get(v, default)

    def update_weight(self, u: Node, v: Node, weight: float) -> None:
        """Overwrite the weight of the *existing* edge ``u -> v``.

        Skips the endpoint bookkeeping of :meth:`add_edge` (both nodes
        and the predecessor link already exist); raises GraphError when
        the edge does not.
        """
        row = self._succ.get(u)
        if row is None or v not in row:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist")
        self._succ_row(u)[v] = weight

    def successors(self, node: Node) -> Iterator[Node]:
        """Nodes reachable by one outgoing edge from ``node``."""
        self._check_node(node)
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Nodes with an edge pointing at ``node``."""
        self._check_node(node)
        return iter(self._pred[node])

    def predecessors_of(self, nodes: Iterable[Node]) -> set[Node]:
        """Union of the predecessor sets of ``nodes`` (a new set).

        One C-level union over the stored sets — the frontier step of
        the delta engine's reverse reachability.  Every node must exist.
        """
        try:
            return set().union(*map(self._pred.__getitem__, nodes))
        except KeyError as missing:
            node = missing.args[0]
            raise GraphError(f"node {node!r} does not exist") from None

    def out_edges(self, node: Node) -> Iterator[tuple[Node, float]]:
        """(target, weight) pairs of the outgoing edges of ``node``."""
        self._check_node(node)
        return iter(self._succ[node].items())

    def out_row(self, node: Node) -> dict[Node, float]:
        """The ``{target: weight}`` row of ``node`` — a live view, not a
        copy.  Callers must treat it as read-only; mutate through
        :meth:`add_edge` / :meth:`set_row` instead.  Returns an empty
        mapping for unknown nodes (a node with no out-edges and a node
        the graph never saw answer the same question identically)."""
        return self._succ.get(node, _EMPTY_ROW)

    def out_degree(self, node: Node) -> int:
        """Number of outgoing edges of ``node``."""
        self._check_node(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        """Number of incoming edges of ``node``."""
        self._check_node(node)
        return len(self._pred[node])

    def successor_arrays(
        self, nodes: Iterable[Node] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Successor rows as flat integer arrays, in node and edge order.

        Returns ``(out_degrees, targets)`` for ``nodes`` (every node, in
        :meth:`nodes` order, by default): ``out_degrees[i]`` is the
        out-degree of the ``i``-th node, and ``targets`` concatenates
        the rows' target ids in that order, each row in its stored edge
        order.  Node ids must be integers; :func:`node_positions` maps
        the ids into any array index space.  The CSR compiler, its row
        patcher and the sparse reachability masks all build from these
        arrays.
        """
        rows = self._rows(nodes)
        degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        targets = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(degrees.sum())
        )
        return degrees, targets

    def weight_array(self, nodes: Iterable[Node] | None = None) -> np.ndarray:
        """Edge weights aligned with :meth:`successor_arrays` ``targets``."""
        rows = self._rows(nodes)
        return np.fromiter(
            chain.from_iterable(map(dict.values, rows)),
            dtype=np.float64,
            count=sum(map(len, rows)),
        )

    def _rows(self, nodes: Iterable[Node] | None) -> list[dict[Node, float]]:
        if nodes is None:
            return list(self._succ.values())
        return list(map(self._succ.__getitem__, nodes))

    def _check_node(self, node: Node) -> None:
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Return the sub-graph induced by ``nodes`` (edges both ends in)."""
        keep = set(nodes)
        sub = DiGraph()
        for node in keep:
            if node in self._succ:
                sub.add_node(node)
        for u in keep & self._succ.keys():
            for v, w in self._succ[u].items():
                if v in keep:
                    sub.add_edge(u, v, weight=w)
        return sub

    def reversed(self) -> "DiGraph":
        """Return a copy with every edge direction flipped."""
        rev = DiGraph()
        rev.add_nodes(self.nodes())
        for u, v, w in self.edges():
            rev.add_edge(v, u, weight=w)
        return rev

    def copy(self) -> "DiGraph":
        """Independent copy of the graph structure and weights.

        Copy-on-write: both graphs keep sharing every successor row and
        predecessor set, and whichever side writes to one copies it
        first, so neither ever sees the other's changes.  The copy costs
        O(nodes) rather than O(edges); the delta maintenance engine
        clones the previous SimGraph on every run and then rewrites only
        the rows its delta touches.  Node and per-row edge orders are
        preserved exactly.
        """
        dup = DiGraph()
        dup._succ = dict(self._succ)
        dup._pred = dict(self._pred)
        dup._edge_count = self._edge_count
        # From here on every row is shared: neither side owns any.
        self._own_succ, self._own_pred = set(), set()
        dup._own_succ, dup._own_pred = set(), set()
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DiGraph(nodes={self.node_count}, edges={self.edge_count})"
