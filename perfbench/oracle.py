"""Reference oracle: what the paper-faithful implementation delivers.

The oracle replays a corpus's live stream through a service built on the
reference backends (``backend="reference", prop_backend="reference"``)
and records, for every retweet in stream order, the notifications it
delivered, plus the final ``flush()``.  It is computed once per (stream,
service config, program code) and cached as JSON, because a reference
replay costs several times the measured one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from corpus import FOLLOW, POST, REFERENCE, Corpus, build_service, code_digest

#: Scores may differ in the last bits between backends (delta-patched
#: fringe weights are equal only up to round-off); ids and order may not.
SCORE_RTOL = 1e-9


def _key(corpus: Corpus, config: dict) -> str:
    payload = json.dumps([corpus.stream, sorted(config.items()), code_digest()])
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def load_oracle(corpus: Corpus, cache: Path, **config) -> dict:
    """``{"events": [[[user, tweet, score], ...] per retweet], "flush": [...]}``."""
    path = cache / f"oracle-{_key(corpus, config)}.json"
    if path.exists():
        return json.loads(path.read_text())
    service, _ = build_service(corpus, **{**config, **REFERENCE})
    events = []
    for event in corpus.stream:
        if event[0] == POST:
            service.post_tweet(tweet_id=event[1], author=event[2], at=event[3])
        elif event[0] == FOLLOW:
            service.add_follow(event[1], event[2])
        else:
            events.append(_plain(service.retweet(event[1], event[2], event[3])))
    oracle = {"events": events, "flush": _plain(service.flush())}
    cache.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(oracle))
    tmp.replace(path)
    return oracle


def _plain(recommendations) -> list[list]:
    return [[r.user, r.tweet, r.score] for r in recommendations]


def matches(got, want: list[list]) -> bool:
    """Same (user, tweet) sequence as the oracle, scores within SCORE_RTOL."""
    if len(got) != len(want):
        return False
    for rec, (user, tweet, score) in zip(got, want):
        if rec.user != user or rec.tweet != tweet:
            return False
        if abs(rec.score - score) > SCORE_RTOL * max(1.0, abs(score)):
            return False
    return True
