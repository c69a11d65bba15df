"""Differential harness for the O(change) delta maintenance path.

Each array-level shortcut of the production delta path is pinned to the
straightforward construction it replaces:

* the incidence matrix and tweet weights :class:`SimilarityMatrix`
  builds from flat pair arrays equal a per-user dict-loop construction
  (kept here as the oracle) — int and string tweet ids, dict and
  columnar profiles;
* the candidate masks :func:`reachability_matrix` computes by sparse
  products equal per-user :func:`k_hop_neighborhood` BFS, for all rows
  and for a subset of core rows;
* :meth:`CSRSimGraph.patch_rows` — weights-only or spliced — leaves a
  structure array-equal to :meth:`CSRSimGraph.from_simgraph` of the
  refreshed graph, on random graph edits and after every delta rebuild
  of a service stream that adds follow edges.

Hypothesis cases run derandomized under ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.csr import CSRSimGraph
from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import SimGraph
from repro.core.simmatrix import SimilarityMatrix, reachability_matrix
from repro.data import temporal_split
from repro.graph.digraph import DiGraph
from repro.graph.traversal import k_hop_neighborhood
from repro.service import RecommendationService, ServiceConfig
from repro.synth import SynthConfig, generate_dataset

CSR_ARRAYS = (
    "users", "inf_indptr", "inf_indices", "inf_weights", "inf_counts",
    "out_indptr", "out_indices",
)


def assert_csr_equal(actual: CSRSimGraph, expected: CSRSimGraph) -> None:
    for name in CSR_ARRAYS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert actual.index == expected.index


# ----------------------------------------------------------------------
# Incidence and tweet weights
# ----------------------------------------------------------------------
def oracle_incidence(profiles: RetweetProfiles, extra_users=()):
    """The per-user dict-loop incidence: universe, indptr, columns, weights."""
    users = sorted(set(profiles.users()) | set(extra_users))
    tweets = sorted(profiles.tweets())
    tweet_index = {t: j for j, t in enumerate(tweets)}
    indptr = [0]
    cols: list[int] = []
    for user in users:
        cols.extend(tweet_index[t] for t in sorted(profiles.profile(user)))
        indptr.append(len(cols))
    weights = [profiles.tweet_weight(t) for t in tweets]
    return users, indptr, cols, weights


def assert_incidence_matches(profiles: RetweetProfiles, extra_users=()):
    matrix = SimilarityMatrix(profiles, extra_users=extra_users)
    users, indptr, cols, weights = oracle_incidence(profiles, extra_users)
    assert [matrix.user_at(i) for i in range(matrix.user_count)] == users
    incidence = matrix._B
    assert incidence.indptr.tolist() == indptr
    assert incidence.indices.tolist() == cols
    assert incidence.data.tolist() == [1.0] * len(cols)
    weighted = matrix._Bc
    assert weighted.indptr.tolist() == indptr
    assert weighted.indices.tolist() == cols
    # Bit-identical: the same 1/log1p(m) floats the dict loop reads.
    assert weighted.data.real.tolist() == [weights[c] for c in cols]
    assert weighted.data.imag.tolist() == [1.0] * len(cols)


pairs_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 25)), max_size=80
)


class TestIncidence:
    @given(pairs=pairs_strategy, extra=st.sets(st.integers(0, 20), max_size=6))
    def test_int_ids(self, pairs, extra):
        profiles = RetweetProfiles()
        for user, tweet in pairs:
            profiles.add(user, tweet)
        assert_incidence_matches(profiles, extra)

    @given(pairs=pairs_strategy)
    def test_string_tweet_ids(self, pairs):
        profiles = RetweetProfiles()
        for user, tweet in pairs:
            profiles.add(user, f"t{tweet}")
        assert_incidence_matches(profiles)

    @given(base=pairs_strategy, overlay=pairs_strategy)
    def test_columnar_profiles_with_overlay(self, base, overlay):
        users = np.array([u for u, _ in base], dtype=np.int64)
        tweets = np.array([t for _, t in base], dtype=np.int64)
        profiles = RetweetProfiles.from_arrays(users, tweets)
        for user, tweet in overlay:
            profiles.add(user, tweet)
        assert_incidence_matches(profiles, extra_users=range(3))

    def test_empty_profiles(self):
        assert_incidence_matches(RetweetProfiles(), extra_users=[1, 2])


# ----------------------------------------------------------------------
# Candidate masks
# ----------------------------------------------------------------------
@st.composite
def follow_graphs(draw):
    n = draw(st.integers(1, 14))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    graph = DiGraph()
    # Insertion order differs from id order, as in a live follow graph.
    graph.add_nodes(draw(st.permutations(range(n))))
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    return graph


class TestCandidateMasks:
    @given(
        graph=follow_graphs(),
        hops=st.integers(1, 3),
        extra=st.integers(0, 3),
        data=st.data(),
    )
    def test_sparse_masks_equal_bfs(self, graph, hops, extra, data):
        # The universe may hold users outside the graph (profile-only).
        universe = sorted(graph.nodes()) + [100 + i for i in range(extra)]
        index = {u: i for i, u in enumerate(universe)}
        size = len(universe)

        full = reachability_matrix(graph, hops, index, size)
        assert full.has_canonical_format
        for u in universe:
            row = full[index[u]]
            got = {universe[c] for c in row.indices}
            expected = (
                k_hop_neighborhood(graph, u, hops) if u in graph else set()
            )
            assert got == expected
            assert row.data.tolist() == [1.0] * len(got)

        core = sorted(
            data.draw(st.sets(st.sampled_from(sorted(graph.nodes()))))
        )
        rows = np.array([index[u] for u in core], dtype=np.int64)
        masks = reachability_matrix(graph, hops, index, size, rows=rows)
        assert masks.shape == (len(core), size)
        assert masks.has_canonical_format
        for r, u in enumerate(core):
            got = {universe[c] for c in masks[r].indices}
            assert got == k_hop_neighborhood(graph, u, hops)


# ----------------------------------------------------------------------
# CSR row patching
# ----------------------------------------------------------------------
@st.composite
def graph_edits(draw):
    """(old SimGraph, refreshed SimGraph, changed rows) as delta builds them.

    The refreshed graph is a copy-on-write clone of the old one with
    whole rows swapped, single edges re-weighted, added or removed, and
    nodes left without any edge dropped — the edits ``apply_delta``
    makes, named the way its report names them.
    """
    n = draw(st.integers(2, 12))
    weight = st.floats(0.01, 1.0, allow_nan=False)
    old = DiGraph()
    old.add_nodes(draw(st.permutations(range(n))))
    for u, v, w in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
            max_size=4 * n,
        )
    ):
        if u != v:
            old.add_edge(u, v, weight=w)
    new = old.copy()
    changed: set[int] = set()
    # New users may join as row owners or as targets only.
    ids = st.integers(0, n + 3)
    for _ in range(draw(st.integers(0, 6))):
        u = draw(ids)
        op = draw(st.sampled_from(["row", "reweigh", "add", "remove"]))
        if op == "row":
            targets = draw(st.lists(ids, max_size=5, unique=True))
            row = {v: draw(weight) for v in targets if v != u}
            if u in new or row:
                new.set_row(u, row)
                changed.add(u)
        elif op == "reweigh" and u in new and new.out_row(u):
            v = draw(st.sampled_from(sorted(new.out_row(u))))
            new.update_weight(u, v, draw(weight))
            changed.add(u)
        elif op == "add":
            v = draw(ids)
            if u != v:
                new.add_edge(u, v, weight=draw(weight))
                changed.add(u)
        elif op == "remove" and u in new and new.out_row(u):
            v = draw(st.sampled_from(sorted(new.out_row(u))))
            new.remove_edge(u, v)
            changed.add(u)
    for node in list(new.nodes()):
        if new.out_degree(node) == 0 and new.in_degree(node) == 0:
            new.remove_node(node)
            changed.add(node)
    return SimGraph(old, tau=0.0), SimGraph(new, tau=0.0), changed


class TestPatchRows:
    @given(edit=graph_edits())
    def test_patch_equals_recompile(self, edit):
        old, new, changed = edit
        csr = CSRSimGraph.from_simgraph(old)
        assert csr.patch_rows(new, sorted(changed))
        assert_csr_equal(csr, CSRSimGraph.from_simgraph(new))

    @given(edit=graph_edits())
    def test_old_graph_compiles_unchanged(self, edit):
        # The refreshed graph is a copy-on-write clone: compiling the old
        # graph after the edits still gives its original arrays.
        old, new, _ = edit
        before = CSRSimGraph.from_simgraph(old)
        CSRSimGraph.from_simgraph(new)
        assert_csr_equal(CSRSimGraph.from_simgraph(old), before)

    def test_reordered_nodes_refused(self):
        old = DiGraph()
        old.add_edge(1, 2, weight=0.5)
        old.add_edge(2, 3, weight=0.25)
        csr = CSRSimGraph.from_simgraph(SimGraph(old, tau=0.0))
        new = DiGraph()
        new.add_edge(2, 3, weight=0.25)
        new.add_edge(1, 2, weight=0.5)
        before = {name: getattr(csr, name).copy() for name in CSR_ARRAYS}
        assert not csr.patch_rows(SimGraph(new, tau=0.0), [1])
        for name, array in before.items():
            np.testing.assert_array_equal(getattr(csr, name), array)

    def test_unnamed_row_at_dropped_node_refused(self):
        old = DiGraph()
        old.add_edge(1, 2, weight=0.5)
        old.add_edge(3, 2, weight=0.25)
        csr = CSRSimGraph.from_simgraph(SimGraph(old, tau=0.0))
        new = old.copy()
        new.remove_node(2)
        # Rows 1 and 3 lost their edges but only 1 is named.
        assert not csr.patch_rows(SimGraph(new, tau=0.0), [1, 2])


@pytest.fixture(scope="module")
def churn_corpus():
    dataset = generate_dataset(SynthConfig(n_users=150, n_communities=4, seed=23))
    return dataset, temporal_split(dataset, train_fraction=0.8)


class TestServiceDeltaRebuilds:
    """After every delta rebuild, the service's patched CSR is the one a
    full recompile of its refreshed SimGraph would produce."""

    def run_stream(self, churn_corpus, follow_every: int):
        dataset, split = churn_corpus
        service = RecommendationService(
            ServiceConfig(
                backend="vectorized",
                prop_backend="csr",
                rebuild_strategy="delta",
                rebuild_interval=1800.0,
                min_score=1e-6,
            )
        )
        for user in dataset.users:
            service.add_user(user)
        follows = sorted(
            (a, b) for a, b, _ in dataset.follow_graph.edges()
        )
        for follower, followee in follows:
            service.add_follow(follower, followee)
        cutoff = split.test[0].time
        live_tweets = []
        for tweet in sorted(dataset.tweets.values(), key=lambda t: t.created_at):
            if tweet.created_at < cutoff:
                service.post_tweet(tweet.id, tweet.author, tweet.created_at)
            else:
                live_tweets.append(tweet)
        for event in split.train:
            service.absorb_retweet(event.user, event.tweet)
        service.rebuild("from scratch")

        checked = []
        rebuild = service.rebuild

        def checked_rebuild(*args, **kwargs):
            refreshed = rebuild(*args, **kwargs)
            assert_csr_equal(service._csr, CSRSimGraph.from_simgraph(refreshed))
            checked.append(refreshed.edge_count)
            return refreshed

        service.rebuild = checked_rebuild
        rng = np.random.default_rng(5)
        users = sorted(dataset.users)
        stream = sorted(
            [(t.created_at, 0, t) for t in live_tweets]
            + [(e.time, 1, e) for e in split.test],
            key=lambda item: (item[0], item[1]),
        )
        for i, (at, kind, item) in enumerate(stream, start=1):
            if kind == 0:
                service.post_tweet(item.id, item.author, at)
            elif item.tweet in service.tweets:
                service.retweet(item.user, item.tweet, at)
            if follow_every and i % follow_every == 0:
                a, b = rng.choice(users, size=2, replace=False).tolist()
                service.add_follow(a, b)
        service.flush()
        return service, checked

    def test_patched_csr_equals_recompile_with_new_follows(self, churn_corpus):
        service, checked = self.run_stream(churn_corpus, follow_every=5)
        counters = service.metrics_snapshot(deterministic=True)["counters"]
        assert len(checked) >= 5
        # Edge counts moved between rebuilds, so rows were spliced, not
        # just re-weighted.
        assert len(set(checked)) > 1
        # Every delta rebuild patched (or was a no-op); only the
        # from-scratch builds compiled.
        assert counters["propagation.csr_rows_patched"] > 0
        assert counters["propagation.csr_compiled"] == counters[
            "service.rebuild[from scratch]"
        ]

    def test_patched_csr_equals_recompile_without_follows(self, churn_corpus):
        _, checked = self.run_stream(churn_corpus, follow_every=0)
        assert len(checked) >= 5
