"""Compiled CSR form of the SimGraph.

The dict-of-dict :class:`~repro.graph.digraph.DiGraph` behind a
:class:`~repro.core.simgraph.SimGraph` is ideal for incremental
construction but slow to *propagate* over: Algorithm 1 spends its time
gathering influencer lists and predecessor sets, and every lookup pays
Python dict overhead.  This module freezes a finished SimGraph into flat
numpy arrays — the sparse-matrix formulation the influence-propagation
literature uses for exactly this cascade structure (ten Thij et al.,
arXiv:1502.00166; Nguyen & Zheng, arXiv:1307.4264):

* a contiguous **user index** (position ``i`` <-> user id ``users[i]``,
  in graph insertion order so compilation is deterministic);
* the **influencer direction** as CSR rows: row ``i`` lists ``F_u`` of
  ``users[i]`` with similarity weights, *in the same order the DiGraph
  stores them* — segment sums over these rows are then bit-identical to
  the reference engine's sequential Python ``sum``;
* the **influenced direction** (the CSR transpose): row ``i`` lists the
  users that ``users[i]`` influences, which is what frontier expansion
  consumes.

Compilation reads the adjacency as flat arrays
(:meth:`~repro.graph.digraph.DiGraph.successor_arrays`) and derives the
transpose with scipy's C counting sort.  The §6.3 *weights-only*
maintenance strategy (``"SimGraph updated"``) keeps the topology fixed,
so :meth:`CSRSimGraph.patch_weights` can refresh the weight array in
place instead of recompiling.  The delta maintenance engine goes
further: its :class:`~repro.core.delta.DeltaReport` names exactly the
rows that moved, and :meth:`CSRSimGraph.patch_rows` rewrites only those
rows — in place when their targets held, by splicing the arrays when
edges or nodes came and went — so the service never recompiles on a
delta rebuild.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.simgraph import SimGraph
from repro.graph.digraph import DiGraph, node_positions

__all__ = ["ArraySimGraph", "CSRSimGraph", "gather_ranges"]


def gather_ranges(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat element positions of CSR ``rows``, plus segment layout.

    Returns ``(flat, seg_starts, lengths)`` where ``flat`` indexes the
    CSR data arrays for every element of every requested row (rows
    concatenated in the order given), ``seg_starts`` are the offsets of
    each row's segment inside ``flat`` (ready for ``np.add.reduceat``)
    and ``lengths`` are the per-row element counts.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    total = int(lengths.sum())
    seg_starts = np.zeros(len(rows), dtype=np.int64)
    if len(rows) > 1:
        np.cumsum(lengths[:-1], out=seg_starts[1:])
    if total == 0:
        return np.empty(0, dtype=np.int64), seg_starts, lengths
    flat = np.repeat(starts - seg_starts, lengths) + np.arange(
        total, dtype=np.int64
    )
    return flat, seg_starts, lengths


class CSRSimGraph:
    """A :class:`SimGraph` frozen into flat numpy CSR arrays.

    Attributes
    ----------
    users:
        ``int64[n]`` — position -> user id (graph insertion order).
    index:
        user id -> position (inverse of ``users``).
    inf_indptr / inf_indices / inf_weights:
        CSR of the influencer direction: row ``i`` holds the positions
        and similarities of ``F_u`` for ``users[i]``, preserving the
        DiGraph's edge order.
    inf_counts:
        ``int64[n]`` — ``|F_u|`` per row (the Def. 4.2 divisor).
    out_indptr / out_indices:
        CSR of the influenced direction (transpose): row ``i`` holds the
        positions of the users ``users[i]`` influences.
    """

    __slots__ = (
        "users", "index", "inf_indptr", "inf_indices", "inf_weights",
        "inf_counts", "out_indptr", "out_indices", "_inf_matrix",
        "_out_matrix",
    )

    def __init__(
        self,
        users: np.ndarray,
        inf_indptr: np.ndarray,
        inf_indices: np.ndarray,
        inf_weights: np.ndarray,
        index: dict[int, int] | None = None,
    ):
        self._assign(users, inf_indptr, inf_indices, inf_weights, index)

    def _assign(
        self,
        users: np.ndarray,
        inf_indptr: np.ndarray,
        inf_indices: np.ndarray,
        inf_weights: np.ndarray,
        index: dict[int, int] | None = None,
    ) -> None:
        """Install a complete influencer CSR and derive the transpose.

        ``index`` (user id -> position) is rebuilt from ``users`` unless
        the caller already holds it.
        """
        from scipy import sparse

        n = len(users)
        self.users = users
        self.index = (
            index if index is not None
            else dict(zip(users.tolist(), range(n)))
        )
        self.inf_indptr = inf_indptr
        self.inf_indices = inf_indices
        self.inf_weights = inf_weights
        self.inf_counts = np.diff(inf_indptr)
        # Transpose: edge (row u -> influencer v) means "v influences u",
        # so bucket edge rows by their target position.  scipy's C
        # counting sort (csr -> csc) keeps each bucket in edge order,
        # exactly a stable argsort of the targets: deterministic
        # compilation.
        transpose = sparse.csr_matrix(
            (np.ones(len(inf_indices)), inf_indices, inf_indptr),
            shape=(n, n),
        ).tocsc()
        self.out_indices = transpose.indices.astype(np.int64)
        self.out_indptr = transpose.indptr.astype(np.int64)
        self._inf_matrix = None
        self._out_matrix = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_simgraph(cls, simgraph: SimGraph) -> "CSRSimGraph":
        """Compile ``simgraph``: flat arrays straight from its adjacency."""
        graph = simgraph.graph
        users = np.fromiter(graph.nodes(), dtype=np.int64, count=len(graph))
        degrees, targets = graph.successor_arrays()
        indptr = np.zeros(len(users) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(
            users, indptr, node_positions(users, targets), graph.weight_array()
        )

    def patch_weights(self, simgraph: SimGraph) -> bool:
        """Refresh weights in place when ``simgraph`` has this topology.

        Returns True (and rewrites ``inf_weights``) when the node
        sequence and every per-row edge sequence match the compiled
        structure — the §6.3 *weights-only* update keeps topology fixed,
        so a maintenance rebuild can skip recompilation.  Returns False
        (structure untouched) on any mismatch, or when the weight array
        is read-only (a memory-mapped snapshot); the caller recompiles.
        """
        if not self.inf_weights.flags.writeable:
            return False
        graph = simgraph.graph
        if list(graph.nodes()) != self.users.tolist():
            return False
        if graph.edge_count != len(self.inf_indices):
            return False
        _, targets = graph.successor_arrays()
        if not np.array_equal(targets, self.users[self.inf_indices]):
            return False
        self.inf_weights[:] = graph.weight_array()
        self._inf_matrix = None
        return True

    def patch_rows(self, simgraph: SimGraph, users: Iterable[int]) -> bool:
        """Bring the compiled structure up to ``simgraph`` by rewriting
        only the named rows.

        ``users`` must name every user whose out-row changed (the delta
        maintenance engine's ``DeltaReport.changed_users``); every other
        row is taken as unchanged.  Two paths:

        * **weights only** — same node sequence and every named row
          keeps its targets in order: the rows' segments of
          ``inf_weights`` are rewritten in place, O(changed edges);
        * **splice** — a named row gained or lost edges, or nodes came
          or went: the node sequence must be the compiled one minus
          dropped nodes plus new nodes appended (how a DiGraph's
          insertion order evolves), and the arrays are re-laid by one
          gather over the old segments plus the named rows' fresh ones,
          then the transpose is re-derived.  The Python work stays
          O(changed edges); the gather and the transpose are O(edges)
          in numpy and scipy C loops.

        A named user absent from ``simgraph`` is a dropped node.  The
        result is array-equal to ``from_simgraph(simgraph)``.  On any
        inconsistency — the node order drifted, an unnamed row points
        at a dropped node, or the edge total disagrees with the graph —
        nothing is written and False is returned so the caller can
        recompile; a read-only weight array (memory-mapped snapshot)
        also returns False.  A splice moves positions, so warm states
        compiled before it must not be reused (the service drops its
        warm cache on every topology change).
        """
        if not self.inf_weights.flags.writeable:
            return False
        graph = simgraph.graph
        old_users = self.users.tolist()
        present = np.fromiter(
            map(graph.__contains__, old_users), dtype=bool,
            count=len(old_users),
        )
        kept = old_users if present.all() else self.users[present].tolist()
        nodes = list(graph.nodes())
        if nodes[: len(kept)] != kept:
            return False
        same_nodes = len(nodes) == len(kept) == len(old_users)
        new_users = (
            self.users if same_nodes else np.asarray(nodes, dtype=np.int64)
        )
        named = [u for u in dict.fromkeys(users) if u in graph]
        counts, target_ids = graph.successor_arrays(named)
        weights = graph.weight_array(named)
        positions = node_positions(
            new_users, np.asarray(named, dtype=np.int64)
        )
        if same_nodes and graph.edge_count == len(self.inf_indices):
            if np.array_equal(self.inf_counts[positions], counts):
                flat, _, _ = gather_ranges(self.inf_indptr, positions)
                old_targets = self.users[self.inf_indices[flat]]
                if np.array_equal(old_targets, target_ids):
                    self.inf_weights[flat] = weights
                    self._inf_matrix = None
                    return True
        # Splice: row j of the new layout copies ``new_counts[j]``
        # entries starting at ``sources[j]`` of the old arrays followed
        # by the fresh rows (old targets remapped to new positions).
        n_kept = len(kept)
        remap = np.full(len(old_users), -1, dtype=np.int64)
        remap[present] = np.arange(n_kept, dtype=np.int64)
        new_counts = np.zeros(len(nodes), dtype=np.int64)
        new_counts[:n_kept] = self.inf_counts[present]
        new_counts[positions] = counts
        sources = np.zeros(len(nodes), dtype=np.int64)
        sources[:n_kept] = self.inf_indptr[:-1][present]
        fresh_starts = np.cumsum(counts) - counts
        sources[positions] = len(self.inf_indices) + fresh_starts
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(new_counts, out=indptr[1:])
        if int(indptr[-1]) != graph.edge_count:
            return False
        flat = np.repeat(sources - indptr[:-1], new_counts) + np.arange(
            indptr[-1], dtype=np.int64
        )
        targets = node_positions(new_users, target_ids)
        indices = np.concatenate([remap[self.inf_indices], targets])[flat]
        if indices.size and int(indices.min()) < 0:
            return False
        self._assign(
            new_users,
            indptr,
            indices,
            np.concatenate([self.inf_weights, weights])[flat],
            self.index if same_nodes else None,
        )
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of compiled users."""
        return len(self.users)

    @property
    def edge_count(self) -> int:
        """Number of compiled similarity edges."""
        return len(self.inf_indices)

    def __contains__(self, user: int) -> bool:
        return user in self.index

    def influencer_matrix(self):
        """``scipy`` CSR with row ``u`` = influencer weights of ``u``.

        ``(W @ P)[u]`` is the Def. 4.2 numerator for every user at once —
        the batched scoring path's workhorse.  Built lazily and cached.
        """
        if self._inf_matrix is None:
            from scipy import sparse

            n = len(self.users)
            self._inf_matrix = sparse.csr_matrix(
                (self.inf_weights, self.inf_indices, self.inf_indptr),
                shape=(n, n),
            )
        return self._inf_matrix

    def influence_matrix(self):
        """Binarized influencer pattern: ``(M @ f)[u] > 0`` iff some
        member of the frontier indicator ``f`` influences ``u`` — one
        sparse product computes the next dirty set for a whole batch of
        propagations at once.  Built lazily and cached.
        """
        if self._out_matrix is None:
            from scipy import sparse

            n = len(self.users)
            self._out_matrix = sparse.csr_matrix(
                (
                    np.ones(len(self.inf_indices), dtype=np.float64),
                    self.inf_indices,
                    self.inf_indptr,
                ),
                shape=(n, n),
            )
        return self._out_matrix

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRSimGraph(nodes={self.node_count}, edges={self.edge_count})"
        )


class ArraySimGraph(SimGraph):
    """A :class:`SimGraph` whose edges live in flat CSR arrays.

    The snapshot format v2 loader (:func:`repro.core.persistence.
    load_simgraph` with ``mmap=True``) and the scale benchmarks build
    graphs directly from ``(users, indptr, indices, weights)`` arrays —
    possibly ``np.memmap``-backed, so a million-edge graph "loads" in
    the time it takes to parse a header.  This class is the SimGraph
    face of those arrays:

    * count/membership/row queries are answered from the arrays (plus a
      lazily built id index) without ever touching a dict adjacency;
    * :meth:`csr` compiles the :class:`CSRSimGraph` the ``csr``
      propagation backend consumes — sharing the arrays zero-copy;
    * ``.graph`` materializes the dict-of-dict :class:`DiGraph` on
      first access, so every legacy consumer (reference propagation,
      delta maintenance, Table-4 reporting) still works — it just pays
      the materialization cost once, and only if it really needs it.

    Rows keep the array order, so ``csr()`` and
    ``CSRSimGraph.from_simgraph(self)`` (via the materialized DiGraph)
    compile bit-identical structures.
    """

    def __init__(
        self,
        users: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        tau: float,
    ):
        n = len(users)
        if len(indptr) != n + 1:
            raise ValueError(
                f"indptr must have {n + 1} entries, got {len(indptr)}"
            )
        if len(indices) != len(weights):
            raise ValueError(
                f"indices ({len(indices)}) and weights ({len(weights)}) "
                "must have the same length"
            )
        self._users_arr = users
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self.tau = float(tau)
        self._graph_cache: DiGraph | None = None
        self._csr_cache: CSRSimGraph | None = None
        self._id_index: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Array-native queries (no DiGraph materialization)
    # ------------------------------------------------------------------
    def _index(self) -> dict[int, int]:
        if self._csr_cache is not None:
            return self._csr_cache.index
        if self._id_index is None:
            self._id_index = {
                int(u): i for i, u in enumerate(self._users_arr.tolist())
            }
        return self._id_index

    @property
    def node_count(self) -> int:
        return len(self._users_arr)

    @property
    def edge_count(self) -> int:
        return len(self._indices)

    def __contains__(self, user: int) -> bool:
        return user in self._index()

    def users(self) -> Iterator[int]:
        return iter(self._users_arr.tolist())

    def influencers(self, user: int) -> tuple[tuple[int, float], ...]:
        i = self._index().get(user)
        if i is None:
            return ()
        lo, hi = int(self._indptr[i]), int(self._indptr[i + 1])
        targets = self._users_arr[self._indices[lo:hi]].tolist()
        return tuple(zip(targets, self._weights[lo:hi].tolist()))

    def influencer_count(self, user: int) -> int:
        i = self._index().get(user)
        if i is None:
            return 0
        return int(self._indptr[i + 1] - self._indptr[i])

    def row(self, user: int) -> dict[int, float]:
        return dict(self.influencers(user))

    def similarity(self, u: int, v: int) -> float:
        for target, weight in self.influencers(u):
            if target == v:
                return weight
        return 0.0

    def mean_similarity(self) -> float:
        if len(self._weights) == 0:
            return 0.0
        return float(np.mean(self._weights))

    def arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(users, indptr, indices, weights)`` — the raw CSR sections."""
        return self._users_arr, self._indptr, self._indices, self._weights

    def csr(self) -> CSRSimGraph:
        """The compiled structure for the ``csr`` propagation backend.

        Built lazily and cached; shares the underlying arrays zero-copy
        (a memory-mapped snapshot stays on disk until rows are touched).
        """
        if self._csr_cache is None:
            self._csr_cache = CSRSimGraph(
                self._users_arr, self._indptr, self._indices, self._weights
            )
        return self._csr_cache

    # ------------------------------------------------------------------
    # Legacy dict-adjacency face
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The dict-of-dict adjacency, materialized on first access."""
        if self._graph_cache is None:
            graph = DiGraph()
            users = self._users_arr.tolist()
            graph.add_nodes(users)
            indptr = self._indptr
            for i, u in enumerate(users):
                lo, hi = int(indptr[i]), int(indptr[i + 1])
                if lo == hi:
                    continue
                graph.set_row(
                    u,
                    {
                        users[j]: w
                        for j, w in zip(
                            self._indices[lo:hi].tolist(),
                            self._weights[lo:hi].tolist(),
                        )
                    },
                )
            self._graph_cache = graph
        return self._graph_cache

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ArraySimGraph(nodes={self.node_count}, "
            f"edges={self.edge_count}, tau={self.tau})"
        )
