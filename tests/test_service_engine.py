"""Tests for repro.service.engine (the online service facade)."""

import dataclasses

import pytest

from repro.exceptions import ConfigError, DatasetError
from repro.service import RecommendationService, ServiceConfig

DAY = 86400.0


def warm_service(**config_kwargs) -> RecommendationService:
    """A service with three co-retweeting users and one fresh tweet."""
    defaults = {"use_scheduler": False, "min_score": 1e-6}
    defaults.update(config_kwargs)
    service = RecommendationService(ServiceConfig(**defaults))
    for user in range(5):
        service.add_user(user)
    service.add_follow(0, 1)
    service.add_follow(1, 2)
    service.add_follow(2, 0)
    service.add_follow(1, 0)
    service.add_follow(2, 1)
    service.add_follow(0, 2)
    # Warm-up history: users 0-2 co-retweet two tweets (time-ordered).
    service.post_tweet(tweet_id=100, author=3, at=0.0)
    service.post_tweet(tweet_id=101, author=3, at=1.0)
    at = 10.0
    for tid in (100, 101):
        for user in (0, 1, 2):
            service.retweet(user=user, tweet=tid, at=at)
            at += 1.0
    service.rebuild("from scratch")
    service.post_tweet(tweet_id=200, author=3, at=500.0)
    return service


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"daily_budget": 0},
            {"rebuild_interval": 0.0},
            {"rebuild_strategy": "bogus"},
            {"tau": -1.0},
            {"min_score": 0.0},
            {"backend": "gpu"},
            {"build_workers": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)

    def test_defaults_valid(self):
        ServiceConfig()


class TestIngestion:
    def test_duplicate_tweet_rejected(self):
        service = warm_service()
        with pytest.raises(DatasetError):
            service.post_tweet(tweet_id=200, author=3, at=600.0)

    def test_unknown_tweet_rejected(self):
        service = warm_service()
        with pytest.raises(DatasetError):
            service.retweet(user=0, tweet=999, at=600.0)

    def test_time_must_be_monotone(self):
        service = warm_service()
        service.retweet(user=0, tweet=200, at=600.0)
        with pytest.raises(DatasetError):
            service.retweet(user=1, tweet=200, at=10.0)

    def test_stats_counted(self):
        service = warm_service()
        before = service.stats.events_ingested
        service.retweet(user=0, tweet=200, at=600.0)
        assert service.stats.events_ingested == before + 1
        assert service.stats.propagations_run > 0


class TestDelivery:
    def test_similar_users_notified(self):
        service = warm_service()
        notifications = service.retweet(user=0, tweet=200, at=600.0)
        users = {n.user for n in notifications}
        assert users & {1, 2}
        assert 0 not in users

    def test_no_duplicate_notifications(self):
        service = warm_service()
        first = service.retweet(user=0, tweet=200, at=600.0)
        second = service.retweet(user=1, tweet=200, at=700.0)
        first_pairs = {(n.user, n.tweet) for n in first}
        second_pairs = {(n.user, n.tweet) for n in second}
        assert not first_pairs & second_pairs

    def test_retweeting_user_never_renotified(self):
        service = warm_service()
        service.retweet(user=0, tweet=200, at=600.0)
        notifications = service.retweet(user=1, tweet=200, at=700.0)
        assert all(n.user != 1 for n in notifications)

    def test_daily_budget_enforced(self):
        service = warm_service(daily_budget=1)
        # Two fresh tweets shared in one day: only one notification each
        # for the other users.
        service.post_tweet(tweet_id=201, author=3, at=650.0)
        day_recs = []
        day_recs += service.retweet(user=0, tweet=200, at=700.0)
        day_recs += service.retweet(user=0, tweet=201, at=800.0)
        per_user: dict[int, int] = {}
        for n in day_recs:
            per_user[n.user] = per_user.get(n.user, 0) + 1
        assert all(count <= 1 for count in per_user.values())
        assert service.stats.notifications_suppressed > 0

    def test_budget_resets_next_day(self):
        service = warm_service(daily_budget=1)
        service.post_tweet(tweet_id=201, author=3, at=650.0)
        service.retweet(user=0, tweet=200, at=700.0)
        # Next day: budget refreshed, new tweet notifies again.
        service.post_tweet(tweet_id=202, author=3, at=700.0 + DAY)
        notifications = service.retweet(user=0, tweet=202, at=800.0 + DAY)
        assert notifications

    def test_old_tweets_not_propagated(self):
        service = warm_service(max_tweet_age=3600.0)
        notifications = service.retweet(user=0, tweet=200, at=500.0 + 7200.0)
        assert notifications == []


class TestScheduledMode:
    def test_flush_drains_buffered_work(self):
        service = warm_service(use_scheduler=True)
        immediate = service.retweet(user=0, tweet=200, at=600.0)
        flushed = service.flush(now=600.0 + 5 * 3600.0)
        assert immediate == []
        assert flushed

    def test_flush_idempotent(self):
        service = warm_service(use_scheduler=True)
        service.retweet(user=0, tweet=200, at=600.0)
        service.flush(now=700.0 + 4 * 3600.0)
        assert service.flush() == []


class TestVectorizedBackend:
    def test_vectorized_service_matches_reference(self):
        reference = warm_service()
        vectorized = warm_service(backend="vectorized")
        assert set(vectorized.simgraph.graph.edges()) == set(
            reference.simgraph.graph.edges()
        )
        ref_notes = reference.retweet(user=0, tweet=200, at=600.0)
        vec_notes = vectorized.retweet(user=0, tweet=200, at=600.0)
        assert {(n.user, n.tweet) for n in vec_notes} == {
            (n.user, n.tweet) for n in ref_notes
        }

    def test_build_workers_accepted(self):
        service = warm_service(backend="vectorized", build_workers=2)
        assert service.simgraph.edge_count > 0


class TestScoreBatch:
    def test_matches_single_direct_solve(self):
        from repro.core.linear import LinearSystem

        service = warm_service()
        service.retweet(user=0, tweet=200, at=600.0)
        batch = service.score_batch([200, 100])
        assert set(batch) == {200, 100}
        assert batch[200]  # users 1 and 2 gain mass from seed 0
        single = LinearSystem(service.simgraph).solve_direct({0}).probabilities
        for user, p in batch[200].items():
            assert p == pytest.approx(single[user], abs=1e-10)
            assert p >= service.config.min_score

    def test_seeds_excluded(self):
        service = warm_service()
        batch = service.score_batch([100])
        # Users 0-2 retweeted tweet 100: they are seeds, never targets —
        # and they exhaust the SimGraph, so nothing remains.
        assert not {0, 1, 2} & set(batch[100])
        assert batch[100] == {}

    def test_unknown_tweet_rejected(self):
        service = warm_service()
        with pytest.raises(DatasetError):
            service.score_batch([100, 999])

    def test_empty_batch(self):
        service = warm_service()
        assert service.score_batch([]) == {}


class TestScoreBatchCompiled:
    """The csr/auto batch path must agree with both ground truths."""

    TWEETS = [200, 100, 101]

    @staticmethod
    def ready(prop_backend: str) -> RecommendationService:
        service = warm_service(prop_backend=prop_backend)
        service.retweet(user=0, tweet=200, at=600.0)
        return service

    @pytest.mark.parametrize("prop_backend", ["csr", "auto"])
    def test_matches_reference_backend(self, prop_backend):
        # The reference backend solves the linear system directly; the
        # compiled path iterates the thresholded frontier fixpoint, so
        # agreement is bounded by the threshold truncation, not machine
        # epsilon.  Bit-exactness is pinned against the per-tweet
        # propagate path below instead.
        reference = self.ready("reference")
        compiled = self.ready(prop_backend)
        expected = reference.score_batch(self.TWEETS)
        got = compiled.score_batch(self.TWEETS)
        assert set(got) == set(expected)
        for tweet in self.TWEETS:
            assert set(got[tweet]) == set(expected[tweet])
            for user, p in got[tweet].items():
                assert p == pytest.approx(expected[tweet][user], abs=1e-3)

    def test_matches_per_tweet_propagate(self):
        # The joint propagate_many kernel is bit-identical to dispatching
        # each tweet through a single engine.propagate call.
        service = self.ready("csr")
        batch = service.score_batch(self.TWEETS)
        for tweet in self.TWEETS:
            seeds = set(service._retweeters.get(tweet, set()))
            single = service._engine.propagate(
                seeds, popularity=len(seeds)
            ).probabilities
            expected = {
                user: p
                for user, p in single.items()
                if user not in seeds and p >= service.config.min_score
            }
            assert batch[tweet] == expected

    def test_pure_query_leaves_warm_state_alone(self):
        service = self.ready("csr")
        hits, misses = service.stats.warm_hits, service.stats.warm_misses
        service.score_batch(self.TWEETS)
        service.metrics_snapshot()
        assert (service.stats.warm_hits, service.stats.warm_misses) == (
            hits, misses
        )


class TestHealthGauges:
    """warm_hits / warm_misses / queue_depth mirror into the snapshot."""

    def test_gauges_mirror_stats(self):
        # The warm-up history already touched the cache (each retweet
        # probes it), so the gauges are non-trivial even on a "fresh"
        # fixture — what matters is that they exist and track stats.
        service = warm_service()
        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["service.warm_hits"] == service.stats.warm_hits
        assert gauges["service.warm_misses"] == service.stats.warm_misses
        assert gauges["service.queue_depth"] == 0  # scheduler off

    def test_warm_cache_traffic_counted(self):
        service = warm_service()
        service.retweet(user=0, tweet=200, at=600.0)  # seeds the cache
        assert service.warm_answer(user=4, tweet=200, at=601.0) is not None
        assert service.warm_answer(user=4, tweet=101, at=602.0) is None
        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["service.warm_hits"] == service.stats.warm_hits
        assert gauges["service.warm_misses"] == service.stats.warm_misses
        assert service.stats.warm_hits >= 1
        assert service.stats.warm_misses >= 1

    def test_queue_depth_tracks_scheduler_backlog(self):
        service = warm_service(use_scheduler=True)
        service.retweet(user=0, tweet=200, at=600.0)
        buffered = service.metrics_snapshot()["gauges"]["service.queue_depth"]
        assert buffered == service.stats.queue_depth >= 1
        service.flush(10_000_000.0)
        drained = service.metrics_snapshot()["gauges"]["service.queue_depth"]
        assert drained == service.stats.queue_depth == 0


def two_group_service() -> RecommendationService:
    """Two follow-disjoint communities: users 0-2 and users 5-7.

    User 8 follows the second group but starts with no retweet profile —
    the lever for a topology-changing delta later on.
    """
    service = RecommendationService(ServiceConfig(
        use_scheduler=False, min_score=1e-6,
    ))
    for group in ((0, 1, 2), (5, 6, 7)):
        for u in group:
            for v in group:
                if u != v:
                    service.add_follow(u, v)
    for target in (5, 6, 7):
        service.add_follow(8, target)
    service.post_tweet(tweet_id=100, author=9, at=0.0)
    service.post_tweet(tweet_id=101, author=9, at=1.0)
    service.post_tweet(tweet_id=300, author=9, at=2.0)
    service.post_tweet(tweet_id=301, author=9, at=3.0)
    at = 10.0
    for tid in (100, 101):
        for user in (0, 1, 2):
            service.retweet(user=user, tweet=tid, at=at)
            at += 1.0
    for tid in (300, 301):
        for user in (5, 6, 7):
            service.retweet(user=user, tweet=tid, at=at)
            at += 1.0
    service.rebuild("from scratch")
    service.post_tweet(tweet_id=200, author=9, at=50.0)
    service.post_tweet(tweet_id=201, author=9, at=51.0)
    return service


class TestScopedWarmInvalidation:
    def warmed(self):
        """Service with warm propagation state for tweets 200 and 201
        and *no* pending dirt (the warming retweets are consumed by a
        delta rebuild, then replayed as duplicates)."""
        service = two_group_service()
        service.retweet(user=0, tweet=200, at=60.0)
        service.retweet(user=5, tweet=201, at=61.0)
        service.rebuild("delta")
        service.retweet(user=0, tweet=200, at=70.0)
        service.retweet(user=5, tweet=201, at=71.0)
        assert not service.profiles.has_dirty
        assert set(service._warm.tweets()) >= {200, 201}
        return service

    def test_weights_only_delta_evicts_only_affected_group(self):
        service = self.warmed()
        # User 1 joins tweet 200: dirt confined to the first group.
        service.retweet(user=1, tweet=200, at=80.0)
        service.rebuild("delta")
        cached = set(service._warm.tweets())
        assert 200 not in cached
        assert 201 in cached
        counters = service.metrics_snapshot()["counters"]
        assert counters.get("maintenance.cache_invalidations", 0) >= 1

    def test_topology_changing_delta_flushes_everything(self):
        service = self.warmed()
        # User 8 gains its first profile overlap with group two: new
        # SimGraph edges appear, so every warm entry is dropped.
        service.retweet(user=8, tweet=300, at=80.0)
        service.rebuild("delta")
        assert service._warm.tweets() == ()

    def test_non_delta_rebuild_flushes_everything(self):
        service = self.warmed()
        service.rebuild("from scratch")
        assert service._warm.tweets() == ()

    def test_noop_delta_keeps_warm_state(self):
        service = self.warmed()
        before = service._warm.tweets()
        service.rebuild("delta")
        assert service._warm.tweets() == before


class TestMaintenance:
    def test_explicit_rebuild(self):
        service = warm_service()
        before = service.stats.rebuilds
        graph = service.rebuild("from scratch")
        assert service.stats.rebuilds == before + 1
        assert graph.edge_count > 0
        assert service.simgraph is graph

    def test_unknown_strategy_rejected(self):
        service = warm_service()
        with pytest.raises(ConfigError):
            service.rebuild("bogus")

    def test_periodic_rebuild_triggers(self):
        service = warm_service(rebuild_interval=100.0)
        before = service.stats.rebuilds
        service.retweet(user=0, tweet=200, at=5000.0)
        assert service.stats.rebuilds > before

    def test_crossfold_rebuild_runs_on_previous_graph(self):
        service = warm_service()
        service.rebuild("from scratch")
        refreshed = service.rebuild("crossfold")
        assert refreshed.node_count > 0


class TestEventTimeValidation:
    """Bad event times are rejected before any state changes."""

    BAD_TIMES = [float("nan"), float("inf"), float("-inf"), -1.0]

    ENTRY_POINTS = {
        "post_tweet": lambda s, at: s.post_tweet(tweet_id=300, author=3, at=at),
        "retweet": lambda s, at: s.retweet(user=4, tweet=200, at=at),
        "ingest_batch": lambda s, at: s.ingest_batch(
            [(4, 200, 600.0), (3, 200, at)]
        ),
        "warm_answer": lambda s, at: s.warm_answer(user=4, tweet=200, at=at),
        "flush": lambda s, at: s.flush(now=at),
    }

    @staticmethod
    def state(service) -> tuple:
        return (
            service.metrics_snapshot(deterministic=True),
            dataclasses.replace(service.stats),
            service._clock,
            set(service._known),
            set(service.tweets),
        )

    @pytest.mark.parametrize("use_scheduler", [False, True])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("at", BAD_TIMES, ids=repr)
    def test_rejected_without_state_change(self, entry, at, use_scheduler):
        service = warm_service(use_scheduler=use_scheduler)
        before = self.state(service)
        with pytest.raises(DatasetError):
            self.ENTRY_POINTS[entry](service, at)
        assert self.state(service) == before

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_backwards_time_rejected_without_state_change(self, entry):
        service = warm_service(use_scheduler=True)
        service.retweet(user=4, tweet=200, at=900.0)
        before = self.state(service)
        with pytest.raises(DatasetError):
            self.ENTRY_POINTS[entry](service, 800.0)
        assert self.state(service) == before

    def test_clock_stays_monotone_after_rejected_nan(self):
        # A NaN used to become the clock, after which any earlier time
        # passed the monotone guard.
        service = warm_service()
        service.retweet(user=4, tweet=200, at=900.0)
        with pytest.raises(DatasetError):
            service.retweet(user=3, tweet=200, at=float("nan"))
        with pytest.raises(DatasetError):
            service.retweet(user=3, tweet=200, at=1.0)

    def test_service_usable_after_rejected_inf(self):
        # An infinity used to become the clock and reject every later
        # event.
        service = warm_service()
        with pytest.raises(DatasetError):
            service.post_tweet(tweet_id=300, author=3, at=float("inf"))
        service.post_tweet(tweet_id=300, author=3, at=600.0)
        service.retweet(user=4, tweet=300, at=700.0)
        assert service._clock == 700.0
