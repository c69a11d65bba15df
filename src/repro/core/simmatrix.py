"""Vectorized sparse similarity backend (CSR incidence formulation).

The reference implementation of Def. 3.1 walks Python dicts one user at a
time; at scale the same computation is a sparse matrix product.  The
user x tweet retweet incidence is materialized as a CSR matrix ``B`` (one
row per user, unit entries), and every tweet column carries the complex
weight ``w(i) + 1j`` with ``w(i) = 1/log(1 + m(i))``.  One product

.. math::  G = B \\, (B \\cdot \\mathrm{diag}(w + 1j))^T

then yields, for every user pair sharing at least one tweet, the Def. 3.1
numerator in its real part and the intersection size ``|L_u \\cap L_v|`` in
its imaginary part — a single matmul keeps both quantities on exactly the
same sparsity pattern, so no index alignment between two products is ever
needed.  Union sizes follow from the profile-size vector, and a whole
batch of ``similarities_from`` rows reduces to a few array operations.

:func:`simgraph_edges` builds on this for SimGraph construction: the
k-hop candidate sets of *all* sources come from boolean powers of the
exploration graph's adjacency matrix, and sources are scored in chunks —
optionally fanned out across worker processes — against the shared
:class:`SimilarityMatrix`.

The backend is locked to the reference implementation by
``tests/test_backend_differential.py``: identical SimGraph edge sets,
similarities within 1e-12.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

from repro.core.profiles import RetweetProfiles
from repro.graph.digraph import DiGraph, node_positions
from repro.obs import NULL, MetricsRegistry

__all__ = [
    "SimilarityMatrix",
    "reachability_matrix",
    "score_rows",
    "simgraph_edges",
    "DEFAULT_CHUNK_SIZE",
]

#: Sources scored per sparse product during a chunked build.  Large enough
#: to amortize matmul overhead, small enough to bound the dense-ish chunk
#: Gram matrix on overlap-heavy corpora.
DEFAULT_CHUNK_SIZE = 512


class SimilarityMatrix:
    """Sparse-matrix view of a :class:`RetweetProfiles` snapshot.

    Rows (and similarity columns) index the *universe*: every user with a
    profile plus any ``extra_users`` (typically the exploration graph's
    nodes, so candidate masks and similarity rows share one column space).
    Tweet weights use the profiles' global popularity, so a restricted
    universe never distorts ``m(i)``.
    """

    def __init__(
        self, profiles: RetweetProfiles, extra_users: Iterable[int] = ()
    ):
        # One flat (user, tweet) pair list instead of a per-user walk:
        # row/column codes are two C-level dict maps, the CSR layout
        # scipy's C counting sort, and m(i) a bincount over the codes.
        pair_users, pair_tweets = profiles.pairs()
        universe = set(pair_users)
        universe.update(extra_users)
        self._users: list[int] = sorted(universe)
        self._users_arr = np.asarray(self._users, dtype=np.int64)
        self._index: dict[int, int] = dict(
            zip(self._users, range(len(self._users)))
        )
        tweets = sorted(set(pair_tweets))
        tweet_index = dict(zip(tweets, range(len(tweets))))
        n_pairs = len(pair_users)
        rows = np.fromiter(
            map(self._index.__getitem__, pair_users), dtype=np.int64,
            count=n_pairs,
        )
        cols = np.fromiter(
            map(tweet_index.__getitem__, pair_tweets), dtype=np.int64,
            count=n_pairs,
        )
        self._B = sparse.csr_matrix(
            (np.ones(n_pairs), (rows, cols)),
            shape=(len(self._users), len(tweets)),
        )
        weights = _tweet_weights(np.bincount(cols, minlength=len(tweets)))
        # Complex-weighted incidence: one matmul returns numerator (real)
        # and overlap count (imaginary) on a single sparsity pattern.
        self._Bc = sparse.csr_matrix(
            ((weights + 1j)[self._B.indices], self._B.indices, self._B.indptr),
            shape=self._B.shape,
        )
        self._sizes = np.diff(self._B.indptr)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def user_count(self) -> int:
        """Number of users in the universe (rows of the incidence)."""
        return len(self._users)

    @property
    def index(self) -> Mapping[int, int]:
        """user id -> row position (shared with candidate masks)."""
        return self._index

    def position(self, user: int) -> int:
        """Row position of ``user``; raises KeyError when absent."""
        return self._index[user]

    def user_at(self, position: int) -> int:
        """Inverse of :meth:`position`."""
        return self._users[position]

    def users_at(self, positions: np.ndarray) -> list[int]:
        """Vectorized :meth:`user_at` (returns plain Python ints)."""
        return self._users_arr[positions].tolist()

    def __contains__(self, user: int) -> bool:
        return user in self._index

    # ------------------------------------------------------------------
    # Similarity
    # ------------------------------------------------------------------
    def similarity_rows(self, users: Iterable[int]) -> sparse.csr_matrix:
        """Def. 3.1 scores of ``users`` against the whole universe.

        Returns a ``len(users) x user_count`` CSR matrix whose row ``r``
        holds every non-zero ``sim(users[r], v)`` (self-similarity
        removed).  The batched equivalent of ``similarities_from``.
        """
        row_idx = np.asarray(
            [self._index[u] for u in users], dtype=np.int64
        )
        n = len(self._users)
        if row_idx.size == 0:
            return sparse.csr_matrix((0, n))
        gram = self.gram_rows(row_idx)
        local, sims = self.sims_from_gram(gram, row_idx)
        cols = gram.indices
        keep = cols != row_idx[local]
        return sparse.csr_matrix(
            (sims[keep], (local[keep], cols[keep])),
            shape=(row_idx.size, n),
        )

    def gram_rows(self, row_idx: np.ndarray) -> sparse.csr_matrix:
        """Complex Gram rows: numerator (real) + overlap count (imag).

        Entry ``(r, v)`` is ``sum_{i in L_u ∩ L_v} w(i) + 1j |L_u ∩ L_v|``
        for ``u`` at universe position ``row_idx[r]`` — the raw material
        both :meth:`similarity_rows` and the chunked build consume.
        """
        return (self._B[row_idx] @ self._Bc.T).tocsr()

    def sims_from_gram(
        self,
        gram: sparse.csr_matrix,
        row_idx: np.ndarray,
        select: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Turn (masked) Gram entries into Def. 3.1 scores.

        Returns ``(local_rows, sims)`` aligned with ``gram``'s nonzeros,
        or with those a boolean ``select`` over the nonzeros keeps.
        Structural nonzeros always carry >= 1 shared tweet, so the union
        size is positive and the numerator strictly so.
        """
        counts = np.diff(gram.indptr)
        local = np.repeat(np.arange(row_idx.size, dtype=np.int64), counts)
        cols, data = gram.indices, gram.data
        if select is not None:
            local, cols, data = local[select], cols[select], data[select]
        union = self._sizes[row_idx[local]] + self._sizes[cols] - data.imag
        return local, data.real / union

    def similarities_from(
        self, u: int, candidates: Iterable[int] | None = None
    ) -> dict[int, float]:
        """Drop-in equivalent of :func:`repro.core.similarity.similarities_from`."""
        if u not in self._index:
            return {}
        row = self.similarity_rows([u])
        candidate_set = None if candidates is None else set(candidates)
        scores: dict[int, float] = {}
        for col, value in zip(row.indices, row.data):
            v = self._users[col]
            if candidate_set is not None and v not in candidate_set:
                continue
            scores[v] = float(value)
        return scores


def _tweet_weights(popularity: np.ndarray) -> np.ndarray:
    """Def. 3.1 tweet weights ``1/log(1 + m(i))`` for a popularity array.

    Evaluated with :func:`math.log1p` once per distinct popularity, so
    every weight is bit-identical to
    :meth:`~repro.core.profiles.RetweetProfiles.tweet_weight`.
    """
    values, inverse = np.unique(popularity, return_inverse=True)
    table = np.array(
        [1.0 / math.log1p(m) for m in values.tolist()],
        dtype=np.float64,
    )
    return table[inverse.reshape(-1)]


def _follow_adjacency(
    graph: DiGraph, index: Mapping[int, int], size: int
) -> sparse.csr_matrix:
    """0/1 CSR of the successor relation of ``graph`` in ``index`` space.

    Column indices come out sorted within every row, without a sort:
    the node-row CSR is transposed to CSC (a C counting pass), its row
    labels are mapped into ``index`` space and the counting pass back to
    CSR emits each row's columns in ascending order.
    """
    n = graph.node_count
    nodes = np.fromiter(graph.nodes(), dtype=np.int64, count=n)
    # Universe position of every node, and of every edge target by way
    # of its node position.
    placed = np.fromiter(
        map(index.__getitem__, graph.nodes()), dtype=np.int64, count=n
    )
    degrees, targets = graph.successor_arrays()
    node_rows = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=node_rows[1:])
    by_target = sparse.csr_matrix(
        (
            np.ones(len(targets)),
            placed[node_positions(nodes, targets)],
            node_rows,
        ),
        shape=(n, size),
    ).tocsc()
    return sparse.csc_matrix(
        (by_target.data, placed[by_target.indices], by_target.indptr),
        shape=(size, size),
    ).tocsr()


def reachability_matrix(
    graph: DiGraph,
    hops: int,
    index: Mapping[int, int],
    size: int,
    rows: np.ndarray | None = None,
) -> sparse.csr_matrix:
    """0/1 CSR of "within ``hops`` successor-steps" in universe space.

    Without ``rows``, row ``index[u]`` marks exactly
    ``k_hop_neighborhood(graph, u, hops)`` (source excluded) for every
    graph node — the candidate masks of a whole SimGraph build.  With
    ``rows`` (universe positions), row ``r`` marks the neighbourhood of
    the user at ``rows[r]`` — the masks of a delta run's core users.
    Either way the masks come from ``hops - 1`` boolean sparse products
    over :func:`_follow_adjacency` instead of one BFS per user.  Columns
    are sorted within every row (canonical CSR).
    """
    adjacency = _follow_adjacency(graph, index, size)
    reach = adjacency if rows is None else adjacency[rows]
    if hops > 1:
        # reach @ (I + A) extends every row by one more successor-step.
        step = adjacency + sparse.identity(size, format="csr")
        for _ in range(hops - 1):
            grown = reach @ step
            if grown.nnz == reach.nnz:
                break
            reach = grown
        # The product leaves columns unsorted; a CSC round trip (two C
        # counting passes) sorts them.
        reach = reach.tocsc().tocsr()
        reach.data[:] = 1.0
    sources = np.arange(size) if rows is None else rows
    own = reach.indices == np.repeat(sources, np.diff(reach.indptr))
    if own.any():
        reach.data[own] = 0.0
        reach.eliminate_zeros()
    return reach


def simgraph_edges(
    exploration_graph: DiGraph,
    profiles: RetweetProfiles,
    sources: Iterable[int],
    tau: float,
    hops: int = 2,
    max_influencers: int | None = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    metrics: MetricsRegistry | None = None,
) -> list[tuple[int, dict[int, float]]]:
    """Vectorized equivalent of the per-user reference build loop.

    Returns ``(source, {influencer: sim})`` pairs for every source that
    gains at least one edge — exactly the edges the reference
    ``SimGraphBuilder`` would create.  ``workers > 1`` fans chunks out to
    a process pool (serial fallback when the platform refuses to fork).

    ``metrics`` records candidate-mask assembly and per-chunk scoring
    timings, chunk/pair counters and the worker fan-out.  Registries are
    process-local: on the pool path, per-chunk scoring internals are not
    aggregated back from the workers — only the dispatch is measured.
    """
    metrics = metrics if metrics is not None else NULL
    eligible = [
        u
        for u in sources
        if u in exploration_graph and profiles.has_profile(u)
    ]
    if not eligible:
        return []
    with metrics.span("simgraph.candidate_masks"):
        matrix = SimilarityMatrix(profiles, extra_users=exploration_graph.nodes())
        reach = reachability_matrix(
            exploration_graph, hops, matrix.index, matrix.user_count
        )
    state = (matrix, reach, tau, max_influencers)
    chunks = [
        eligible[start : start + chunk_size]
        for start in range(0, len(eligible), chunk_size)
    ]
    metrics.counter("simgraph.chunks").inc(len(chunks))
    if workers > 1 and len(chunks) > 1:
        metrics.gauge("simgraph.build_workers").set(min(workers, len(chunks)))
        with metrics.span("simgraph.chunk_fanout"):
            chunk_results = _map_parallel(state, chunks, workers)
    else:
        metrics.gauge("simgraph.build_workers").set(1)
        chunk_timings = metrics.histogram("simgraph.chunk_seconds", timing=True)
        chunk_results = []
        with metrics.span("simgraph.score_chunks"):
            for chunk in chunks:
                started = time.perf_counter()
                chunk_results.append(_chunk_edges(state, chunk, metrics))
                chunk_timings.observe(time.perf_counter() - started)
    return [pair for result in chunk_results for pair in result]


def _chunk_edges(
    state, chunk: list[int], metrics: MetricsRegistry = NULL
) -> list[tuple[int, dict[int, float]]]:
    """Score one chunk of sources against the build's shared masks."""
    matrix, reach, tau, max_influencers = state
    row_idx = np.fromiter(
        map(matrix.index.__getitem__, chunk), dtype=np.int64, count=len(chunk)
    )
    return score_rows(
        matrix, chunk, row_idx, matrix.gram_rows(row_idx), reach[row_idx],
        tau, max_influencers, metrics,
    )


def score_rows(
    matrix: SimilarityMatrix,
    users: list[int],
    row_idx: np.ndarray,
    gram: sparse.csr_matrix,
    mask: sparse.csr_matrix,
    tau: float,
    max_influencers: int | None,
    metrics: MetricsRegistry = NULL,
) -> list[tuple[int, dict[int, float]]]:
    """Threshold and cap the SimGraph rows of ``users``.

    ``row_idx`` holds the users' universe positions, ``gram`` their
    :meth:`SimilarityMatrix.gram_rows` and ``mask`` their candidate
    rows, all aligned.  The mask is applied to the *complex Gram* rows
    before any score is computed, so similarities are only ever
    evaluated for the (source, k-hop candidate) pairs the reference
    build would score.  The mask's diagonal is empty, which also
    removes self-similarity entries.
    """
    masked = gram.multiply(mask).tocsr()
    metrics.counter("simgraph.pairs_scored").inc(int(masked.nnz))
    local, sims = matrix.sims_from_gram(masked, row_idx)
    keep = sims >= tau
    bounds = np.zeros(len(users) + 1, dtype=np.int64)
    np.cumsum(np.bincount(local[keep], minlength=len(users)), out=bounds[1:])
    cols = masked.indices[keep]
    sims = sims[keep]
    if max_influencers is not None:
        # Retain each row's max_influencers largest (score, user id)
        # pairs — the exact tie-break of utils.topk.TopK on the
        # reference path — in that ascending order.
        for j in np.flatnonzero(np.diff(bounds) > max_influencers).tolist():
            lo, hi = bounds[j], bounds[j + 1]
            order = np.lexsort((cols[lo:hi], sims[lo:hi]))
            cols[lo:hi] = cols[lo:hi][order]
            sims[lo:hi] = sims[lo:hi][order]
        sizes = np.minimum(np.diff(bounds), max_influencers)
        starts = bounds[1:] - sizes
    else:
        sizes = np.diff(bounds)
        starts = bounds[:-1]
    targets = matrix.users_at(cols)
    scores = sims.tolist()
    edges: list[tuple[int, dict[int, float]]] = []
    for u, lo, size in zip(users, starts.tolist(), sizes.tolist()):
        if size:
            hi = lo + size
            edges.append((u, dict(zip(targets[lo:hi], scores[lo:hi]))))
    return edges


#: Per-process build state: on fork platforms it is published here *before*
#: the pool starts, so children inherit it by copy-on-write and each chunk
#: submission ships only its user-id list; on spawn platforms the pool
#: initializer installs a pickled copy instead.
_POOL_STATE = None


def _init_pool(state) -> None:
    global _POOL_STATE
    _POOL_STATE = state


def _pool_chunk(chunk: list[int]) -> list[tuple[int, dict[int, float]]]:
    return _chunk_edges(_POOL_STATE, chunk)


def _map_parallel(state, chunks, workers: int):
    global _POOL_STATE
    import multiprocessing

    try:
        try:
            context = multiprocessing.get_context("fork")
            _POOL_STATE = state
            initializer, initargs = None, ()
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
            initializer, initargs = _init_pool, (state,)
        with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            return list(pool.map(_pool_chunk, chunks))
    except (OSError, PermissionError, RuntimeError, ValueError):
        # Sandboxes and restricted runtimes may refuse to start worker
        # processes; the serial chunked path computes identical edges.
        return [_chunk_edges(state, chunk) for chunk in chunks]
    finally:
        _POOL_STATE = None
