"""Seeded inputs of the benchmark: the corpus, the live streams, the service.

The social structure is one fixed synthetic corpus (``CORPUS_USERS`` users,
synthesis seed ``CORPUS_SEED``), split 90/10 by event order the way
``simgraph serve`` splits a dataset.  ``--seed`` relabels every account and
tweet id through seeded permutations and draws the workload-specific extras
(the follow trickle of ``churn``).  Relabelling changes every id-ordered
decision the system makes (CSR row order, tie-breaks in the delivery sort
and the daily budget, scheduler flush order), so each seed is a different
input, while the cost structure stays that of the same corpus.  README.md
explains why the synthesis seed is not the workload seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service import RecommendationService, ServiceConfig
from repro.synth import SynthConfig, generate_dataset

CORPUS_USERS = 1500
CORPUS_SEED = 3
SPLIT = 0.9

#: Every service the benchmark measures runs the production path.
PRODUCTION = {"backend": "vectorized", "prop_backend": "auto"}
#: The oracle runs the paper-faithful reference implementations.
REFERENCE = {"backend": "reference", "prop_backend": "reference"}
#: ``churn``: hourly delta maintenance (the paper's §6.3 online upkeep).
CHURN = {"rebuild_interval": 3600.0, "rebuild_strategy": "delta"}
#: ``churn``: one new follow edge after every this many stream events.
#: Not derived from data (the corpus's follow graph is a snapshot without
#: creation times); README.md gives how churn's figures move with it.
FOLLOW_EVERY = 20
#: ``serve``: one read after every this many retweets, over this many
#: most recently retweeted tweets.
READ_EVERY = 5
READ_WIDTH = 8

POST, RETWEET, FOLLOW = "post", "retweet", "follow"


@dataclass(frozen=True)
class Corpus:
    """One seeded input: warm-up state plus the live stream.

    ``stream`` holds ``(POST, tweet, author, at)``,
    ``(RETWEET, user, tweet, at)`` and ``(FOLLOW, follower, followee)``
    tuples in delivery order.
    """

    users: list[int]
    follows: list[tuple[int, int]]
    posts: list[tuple[int, int, float]]
    history: list[tuple[int, int]]
    stream: list[tuple]


@functools.cache
def code_digest() -> str:
    """Hash of the program's sources and of the benchmark's input code.

    Part of every cache key, so a cached corpus or oracle is reused only
    by the code that made it.
    """
    here = Path(__file__).resolve().parent
    files = sorted((here.parent / "src").rglob("*.py"))
    files += [here / "corpus.py", here / "oracle.py"]
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(here.parent).as_posix().encode() + b"\0")
        digest.update(f.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _base_corpus(cache: Path) -> dict:
    """The unrelabelled corpus, synthesized once and cached as JSON."""
    path = cache / (
        f"corpus-{CORPUS_USERS}-{CORPUS_SEED}-{SPLIT}-{code_digest()}.json"
    )
    if path.exists():
        return json.loads(path.read_text())
    dataset = generate_dataset(SynthConfig(n_users=CORPUS_USERS, seed=CORPUS_SEED))
    events = dataset.retweets()
    split = int(len(events) * SPLIT)
    cutoff = events[split].time
    tweets = sorted(dataset.tweets.values(), key=lambda t: (t.created_at, t.id))
    live = [
        (POST, t.id, t.author, t.created_at) for t in tweets if t.created_at >= cutoff
    ]
    live += [(RETWEET, e.user, e.tweet, e.time) for e in events[split:]]
    # Posts before retweets at equal times, as the serve command orders them.
    live.sort(key=lambda event: (event[3], event[0] == RETWEET))
    base = {
        "users": sorted(dataset.users),
        "follows": [[a, b] for a, b, _ in dataset.follow_graph.edges()],
        "posts": [
            [t.id, t.author, t.created_at] for t in tweets if t.created_at < cutoff
        ],
        "history": [[e.user, e.tweet] for e in events[:split]],
        "stream": live,
    }
    cache.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(base))
    tmp.replace(path)
    return base


def make_corpus(seed: int, cache: Path, follow_trickle: bool = False) -> Corpus:
    """The corpus of ``seed``: relabelled ids, optional follow trickle."""
    base = _base_corpus(cache)
    rng = np.random.default_rng(seed)
    users = base["users"]
    user_map = dict(zip(users, rng.permutation(len(users)).tolist()))
    tweet_ids = sorted(
        {t for t, _, _ in base["posts"]}
        | {e[1] for e in base["stream"] if e[0] == POST}
    )
    tweet_map = dict(zip(tweet_ids, rng.permutation(len(tweet_ids)).tolist()))
    follows = [(user_map[a], user_map[b]) for a, b in base["follows"]]
    stream: list[tuple] = []
    for event in base["stream"]:
        if event[0] == POST:
            stream.append((POST, tweet_map[event[1]], user_map[event[2]], event[3]))
        else:
            stream.append((RETWEET, user_map[event[1]], tweet_map[event[2]], event[3]))
    if follow_trickle:
        stream = _with_follows(stream, follows, len(users), rng)
    return Corpus(
        users=sorted(user_map.values()),
        follows=follows,
        posts=[(tweet_map[t], user_map[a], at) for t, a, at in base["posts"]],
        history=[(user_map[u], tweet_map[t]) for u, t in base["history"]],
        stream=stream,
    )


def _with_follows(stream, follows, n_users, rng) -> list[tuple]:
    """Insert a new follow edge between existing users every FOLLOW_EVERY events.

    Endpoints follow the corpus's own degree distribution, the way its
    generator wires edges: the follower is drawn in proportion to how many
    accounts it already follows, the followee in proportion to its
    followers plus one (preferential attachment).
    """
    existing = set(follows)
    out_degree = np.zeros(n_users)
    in_degree = np.ones(n_users)
    for a, b in follows:
        out_degree[a] += 1
        in_degree[b] += 1
    follower_p = out_degree / out_degree.sum()
    followee_p = in_degree / in_degree.sum()
    out: list[tuple] = []
    for i, event in enumerate(stream, start=1):
        out.append(event)
        if i % FOLLOW_EVERY:
            continue
        while True:
            a = int(rng.choice(n_users, p=follower_p))
            b = int(rng.choice(n_users, p=followee_p))
            if a != b and (a, b) not in existing:
                break
        existing.add((a, b))
        out.append((FOLLOW, a, b))
    return out


def serve_requests(corpus: Corpus) -> list:
    """The serve stream: posts and retweets, plus a read every READ_EVERY retweets."""
    from repro.serve import PostRequest, RetweetRequest, ScoreRequest

    requests: list = []
    recent: list[int] = []
    retweets = 0
    for event in corpus.stream:
        if event[0] == POST:
            requests.append(PostRequest(tweet=event[1], author=event[2], at=event[3]))
            continue
        requests.append(RetweetRequest(user=event[1], tweet=event[2], at=event[3]))
        if event[2] in recent:
            recent.remove(event[2])
        recent.insert(0, event[2])
        del recent[READ_WIDTH:]
        retweets += 1
        if retweets % READ_EVERY == 0:
            requests.append(ScoreRequest(tweets=tuple(recent)))
    return requests


def build_service(corpus: Corpus, **config) -> tuple[RecommendationService, float]:
    """Construct a service and bring it to ready; returns it and the seconds taken.

    Ready means: users and follows added, pre-cutoff tweets posted, the
    history absorbed and the first SimGraph built from scratch.
    """
    started = time.perf_counter()
    service = RecommendationService(ServiceConfig(**{**PRODUCTION, **config}))
    for user in corpus.users:
        service.add_user(user)
    for follower, followee in corpus.follows:
        service.add_follow(follower, followee)
    for tweet, author, at in corpus.posts:
        service.post_tweet(tweet_id=tweet, author=author, at=at)
    for user, tweet in corpus.history:
        service.absorb_retweet(user, tweet)
    service.rebuild("from scratch")
    return service, time.perf_counter() - started
