"""Tests for repro.core.delta — the scoped maintenance engine."""

import pytest
from hypothesis import given, strategies as st

from repro.core import RetweetProfiles, SimGraphBuilder
from repro.core.delta import DeltaPlan, affected_region, apply_delta
from repro.graph import DiGraph
from repro.obs import MetricsRegistry


def follow_chain(*edges) -> DiGraph:
    graph = DiGraph()
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def graph_state(graph: DiGraph) -> tuple:
    """Node order, per-row (target, weight) order, predecessor sets."""
    nodes = list(graph.nodes())
    return (
        nodes,
        [list(graph.out_row(u).items()) for u in nodes],
        [set(graph.predecessors(u)) for u in nodes],
        graph.edge_count,
    )


@st.composite
def delta_worlds(draw):
    """A follow graph, base and delta retweets, new follows, a backend."""
    n = draw(st.integers(3, 9))
    user = st.integers(0, n - 1)
    edge = st.tuples(user, user).filter(lambda e: e[0] != e[1])
    follows = draw(st.lists(edge, min_size=1, max_size=4 * n))
    base = draw(
        st.lists(st.tuples(user, st.integers(0, 6)), min_size=4, max_size=30)
    )
    delta = draw(
        st.lists(st.tuples(user, st.integers(0, 9)), min_size=1, max_size=10)
    )
    new_follows = draw(st.lists(edge, max_size=3))
    backend = draw(st.sampled_from(["reference", "vectorized"]))
    # A high tau makes growing profiles drop edges as well as add them.
    tau = draw(st.sampled_from([1e-6, 0.2, 0.4]))
    return follows, base, delta, new_follows, backend, tau


class TestDirtyTracking:
    def test_fresh_profiles_are_fully_dirty(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 10)
        assert profiles.dirty_users == {1, 2}
        assert profiles.dirty_tweets == {10}
        assert profiles.has_dirty

    def test_mark_clean_resets(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.mark_clean()
        assert not profiles.has_dirty
        assert profiles.dirty_users == frozenset()
        assert profiles.dirty_tweets == frozenset()

    def test_duplicate_retweet_stays_clean(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.mark_clean()
        profiles.add(1, 10)
        assert not profiles.has_dirty

    def test_new_retweet_dirties_user_and_tweet(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 20)
        profiles.mark_clean()
        profiles.add(1, 20)
        assert profiles.dirty_users == {1}
        assert profiles.dirty_tweets == {20}


class TestAffectedRegion:
    def test_core_is_dirty_users_plus_coretweeters(self):
        # 1 and 2 co-retweet tweet 10; a fresh retweet by 3 of tweet 10
        # changes m(10), dragging 1 and 2 into the core as well.
        profiles = RetweetProfiles()
        for user in (1, 2):
            profiles.add(user, 10)
        profiles.mark_clean()
        profiles.add(3, 10)
        plan = affected_region(profiles, DiGraph())
        assert plan.dirty_users == {3}
        assert plan.dirty_tweets == {10}
        assert plan.core == {1, 2, 3}

    def test_fresh_tweet_keeps_core_small(self):
        profiles = RetweetProfiles()
        for user in (1, 2):
            profiles.add(user, 10)
        profiles.mark_clean()
        profiles.add(3, 99)  # fresh tweet: no co-retweeters to drag in
        plan = affected_region(profiles, DiGraph())
        assert plan.core == {3}

    def test_fringe_is_khop_in_neighbourhood(self):
        # 5 -> 4 -> 3(core): both 4 and 5 reach the core within 2 hops.
        graph = follow_chain((5, 4), (4, 3))
        profiles = RetweetProfiles()
        profiles.mark_clean()
        profiles.add(3, 10)
        plan = affected_region(profiles, graph, hops=2)
        assert plan.core == {3}
        assert plan.fringe == {4, 5}
        assert plan.needed == {3: {4, 5}}
        assert plan.candidates == {4: {3}, 5: {3}}

    def test_fringe_respects_hop_radius(self):
        graph = follow_chain((6, 5), (5, 4), (4, 3))
        profiles = RetweetProfiles()
        profiles.mark_clean()
        profiles.add(3, 10)
        plan = affected_region(profiles, graph, hops=2)
        assert 6 not in plan.fringe  # three hops away

    def test_core_users_never_in_fringe(self):
        graph = follow_chain((2, 1))
        profiles = RetweetProfiles()
        profiles.mark_clean()
        profiles.add(1, 10)
        profiles.add(2, 11)
        plan = affected_region(profiles, graph)
        assert plan.core == {1, 2}
        assert plan.fringe == frozenset()

    def test_extra_sources_join_core(self):
        profiles = RetweetProfiles()
        profiles.mark_clean()
        plan = affected_region(profiles, DiGraph(), extra_sources=[7])
        assert plan.core == {7}
        assert not plan.is_empty

    def test_empty_delta_is_empty_plan(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.mark_clean()
        plan = affected_region(profiles, DiGraph())
        assert plan.is_empty
        assert plan.affected == frozenset()

    def test_affected_is_core_union_fringe(self):
        graph = follow_chain((5, 4), (4, 3))
        profiles = RetweetProfiles()
        profiles.mark_clean()
        profiles.add(3, 10)
        plan = affected_region(profiles, graph)
        assert plan.affected == plan.core | plan.fringe

    def test_candidates_is_reverse_of_needed(self):
        needed = {1: {4, 5}, 2: {4}}
        plan = DeltaPlan(
            core=frozenset({1, 2}), fringe=frozenset({4, 5}),
            needed=needed, dirty_users=frozenset(),
            dirty_tweets=frozenset(),
        )
        assert plan.candidates == {4: {1, 2}, 5: {1}}


class TestApplyDelta:
    def build_world(self):
        graph = follow_chain((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
        profiles = RetweetProfiles()
        for user in (1, 2, 3):
            profiles.add(user, 10)
        builder = SimGraphBuilder(tau=1e-6)
        old = builder.build(graph, profiles)
        profiles.mark_clean()
        return graph, profiles, builder, old

    def test_empty_delta_returns_same_object(self):
        graph, profiles, builder, old = self.build_world()
        refreshed, report = apply_delta(old, graph, profiles, builder)
        assert refreshed is old
        assert report.noop
        assert report.core_size == 0
        assert not report.topology_changed
        assert report.changed_users == frozenset()

    def test_report_counts_match_plan(self):
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        plan = affected_region(profiles, graph, hops=builder.hops)
        refreshed, report = apply_delta(
            old, graph, profiles, builder, plan=plan
        )
        assert not report.noop
        assert report.core_size == len(plan.core)
        assert report.fringe_size == len(plan.fringe)
        assert report.rows_patched == len(plan.fringe)
        assert report.affected_users == plan.affected
        assert report.changed_users <= report.affected_users

    def test_weight_only_delta_not_topology_changed(self):
        # A fresh solo tweet only grows |L_1|: every pair keeps its
        # edge but re-weighs, so the topology is preserved.
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        refreshed, report = apply_delta(old, graph, profiles, builder)
        assert not report.topology_changed
        assert {(u, v) for u, v, _ in refreshed.graph.edges()} == {
            (u, v) for u, v, _ in old.graph.edges()
        }
        full = builder.build(graph, profiles)
        assert {(u, v, w) for u, v, w in refreshed.graph.edges()} == {
            (u, v, w) for u, v, w in full.graph.edges()
        }

    def test_edge_gain_flags_topology_changed(self):
        graph = follow_chain((1, 2), (2, 1))
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 20)
        builder = SimGraphBuilder(tau=1e-6)
        old = builder.build(graph, profiles)
        assert old.graph.edge_count == 0
        profiles.mark_clean()
        profiles.add(2, 10)  # first shared tweet: edges appear
        refreshed, report = apply_delta(old, graph, profiles, builder)
        assert report.topology_changed
        assert refreshed.graph.edge_count == 2

    @given(world=delta_worlds())
    def test_old_graph_is_not_mutated(self, world):
        # apply_delta clones the old graph copy-on-write, so the two
        # share rows until one side writes: check weights, per-row edge
        # order, node order and predecessor sets on both sides.
        follows, base, delta, new_follows, backend, tau = world
        graph = follow_chain(*follows)
        profiles = RetweetProfiles()
        for user, tweet in base:
            profiles.add(user, tweet)
        builder = SimGraphBuilder(tau=tau, backend=backend)
        old = builder.build(graph, profiles)
        profiles.mark_clean()
        before = graph_state(old.graph)
        for user, tweet in delta:
            profiles.add(user, tweet)
        extra = set()
        for follower, followee in new_follows:
            graph.add_edge(follower, followee)
            extra.add(follower)
            extra.update(graph.predecessors(follower))
        plan = affected_region(profiles, graph, extra_sources=extra)

        refreshed, report = apply_delta(old, graph, profiles, builder, plan=plan)
        assert graph_state(old.graph) == before
        if not report.noop:
            assert refreshed is not old
            # Writes to the clone stay private to it ...
            after = graph_state(refreshed.graph)
            for node in list(refreshed.graph.nodes()):
                refreshed.graph.remove_node(node)
            assert graph_state(old.graph) == before
            # ... and so do writes to the original.
            again, _ = apply_delta(old, graph, profiles, builder, plan=plan)
            assert graph_state(again.graph) == after
            for node in list(old.graph.nodes()):
                old.graph.remove_node(node)
            assert graph_state(again.graph) == after

    def test_metrics_counters_fire(self):
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        metrics = MetricsRegistry()
        apply_delta(old, graph, profiles, builder, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["maintenance.dirty_users"] == 1
        assert snapshot["counters"]["maintenance.rows_recomputed"] >= 1
        assert snapshot["counters"]["maintenance.pairs_rescored"] >= 1

    def test_max_influencers_promotes_fringe(self):
        graph, profiles, builder, old = self.build_world()
        capped = SimGraphBuilder(tau=1e-6, max_influencers=1)
        old_capped = capped.build(graph, profiles)
        profiles.mark_clean()
        profiles.add(1, 99)
        refreshed, report = apply_delta(old_capped, graph, profiles, capped)
        # Fringe rows cannot be partially patched under a row cap.
        assert report.fringe_size == 0
        full = capped.build(graph, profiles)
        assert {(u, v) for u, v, _ in refreshed.graph.edges()} == {
            (u, v) for u, v, _ in full.graph.edges()
        }

    def test_dropped_user_prunes_isolated_nodes(self):
        graph = follow_chain((1, 2), (2, 1))
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 10)
        builder = SimGraphBuilder(tau=1e-6)
        old = builder.build(graph, profiles)
        assert set(old.graph.nodes()) == {1, 2}
        profiles.mark_clean()
        # Tweet 10 goes viral: m(10) explodes and the pair's similarity
        # collapses below any meaningful tau.
        strict = SimGraphBuilder(tau=0.5)
        old_strict = strict.build(graph, profiles)
        profiles.add(3, 10)
        refreshed, report = apply_delta(old_strict, graph, profiles, strict)
        full = strict.build(graph, profiles)
        assert set(refreshed.graph.nodes()) == set(full.graph.nodes())

    def test_tau_and_hops_inherited_from_old(self):
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        refreshed, _ = apply_delta(old, graph, profiles, builder)
        assert refreshed.tau == old.tau
