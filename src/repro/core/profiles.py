"""Retweet profiles: the interest signal behind every similarity score.

A user's *profile* ``L_u`` is the set of tweets they retweeted (paper
Def. 3.1); a tweet's *popularity* ``m(i)`` is its distinct-retweeter count.
:class:`RetweetProfiles` maintains both maps plus the inverted index
(tweet -> retweeters) that makes similarity computation output-sensitive,
and supports incremental updates so the §6.3 maintenance strategies can
refresh weights without a rebuild.

Two storage paths back the same query API:

* the **dict path** (default constructor / :meth:`RetweetProfiles.add`)
  keeps ``dict[int, set[int]]`` maps — ideal for the incremental stream
  the delta engine consumes;
* the **columnar path** (:meth:`RetweetProfiles.from_arrays`) freezes a
  bulk-loaded corpus into sorted CSR arrays (user -> tweets and the
  tweet -> users transpose): ``profile_size``/``popularity``/
  ``tweet_weight`` are O(log n) indptr lookups with no per-pair Python
  objects, which is what lets a paper-scale corpus fit in RAM.
  Incremental ``add`` still works on such an instance — new pairs land
  in a dict *overlay* on top of the immutable base, so dirty tracking
  and the delta maintenance engine behave identically on both paths.

It additionally tracks a *dirty set* since the last :meth:`mark_clean`
checkpoint: users whose profile gained a tweet and tweets whose
popularity ``m(i)`` — hence their ``1/log(1 + m(i))`` weight — changed.
A pair ``sim(u, v)`` can only change when ``u`` or ``v`` is a dirty user
or both retweeted a dirty tweet, so the dirty sets are exactly what the
delta maintenance engine (:mod:`repro.core.delta`) needs to bound the
region of the SimGraph it rescores.

Query results (:meth:`profile`, :meth:`retweeters`) are **immutable
snapshots** (``frozenset``): mutating a returned value can never corrupt
the underlying profiles, for known and unknown keys alike.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from repro.data.models import Retweet

__all__ = ["RetweetProfiles"]

_EMPTY_ROW = np.empty(0, dtype=np.int64)
_EMPTY_SET: frozenset[int] = frozenset()


class _CSRIndex:
    """One direction of the frozen pair set: sorted keys + CSR rows.

    ``keys`` is sorted and unique; row ``i`` of ``items`` (the slice
    ``indptr[i]:indptr[i+1]``) holds the sorted partner ids of
    ``keys[i]``.  Lookup is a binary search — no per-key dict entry, so
    a million-user index costs three flat arrays.
    """

    __slots__ = ("keys", "indptr", "items")

    def __init__(self, keys: np.ndarray, indptr: np.ndarray, items: np.ndarray):
        self.keys = keys
        self.indptr = indptr
        self.items = items

    @classmethod
    def from_pairs(cls, keys: np.ndarray, values: np.ndarray) -> "_CSRIndex":
        """Build from already-deduplicated pairs sorted by (key, value)."""
        unique, counts = np.unique(keys, return_counts=True)
        indptr = np.zeros(len(unique) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(unique, indptr, values)

    def position(self, key: int) -> int:
        """Row of ``key`` or -1 when absent."""
        i = int(np.searchsorted(self.keys, key))
        if i < len(self.keys) and int(self.keys[i]) == key:
            return i
        return -1

    def row(self, key: int) -> np.ndarray:
        i = self.position(key)
        if i < 0:
            return _EMPTY_ROW
        return self.items[self.indptr[i] : self.indptr[i + 1]]

    def row_size(self, key: int) -> int:
        i = self.position(key)
        if i < 0:
            return 0
        return int(self.indptr[i + 1] - self.indptr[i])

    def contains_pair(self, key: int, value: int) -> bool:
        row = self.row(key)
        j = int(np.searchsorted(row, value))
        return j < len(row) and int(row[j]) == value


class RetweetProfiles:
    """User -> retweeted-tweets map with the inverted tweet -> users index."""

    def __init__(self, retweets: Iterable[Retweet] = ()):
        #: Dict storage.  On the columnar path these hold only the
        #: *overlay* — pairs added after :meth:`from_arrays` froze the
        #: base — and every overlay set is disjoint from its base row.
        self._profiles: dict[int, set[int]] = {}
        self._retweeters: dict[int, set[int]] = {}
        self._by_user: _CSRIndex | None = None
        self._by_tweet: _CSRIndex | None = None
        #: Users/tweets present in the overlay but not the base (keeps
        #: ``user_count``/``tweet_count`` O(1) on the columnar path).
        self._extra_users = 0
        self._extra_tweets = 0
        #: Every pair stored in the dict maps, in insertion order — the
        #: flat form :meth:`pairs` hands to array consumers.
        self._pair_users: list[int] = []
        self._pair_tweets: list[int] = []
        self._dirty_users: set[int] = set()
        self._dirty_tweets: set[int] = set()
        for retweet in retweets:
            self.add(retweet.user, retweet.tweet)

    @classmethod
    def from_arrays(
        cls,
        users: np.ndarray,
        tweets: np.ndarray,
    ) -> "RetweetProfiles":
        """Freeze a bulk corpus of ``(user, tweet)`` retweet pairs.

        ``users``/``tweets`` are parallel integer arrays — the raw
        retweet log, duplicates allowed (a repeat retweet changes
        neither ``L_u`` nor ``m(i)``, exactly like :meth:`add`).  The
        result answers every query off flat CSR arrays; subsequent
        :meth:`add` calls layer a dict overlay on top and feed the
        dirty sets as usual.  The frozen base is *clean*: only overlay
        additions dirty users/tweets.
        """
        users = np.ascontiguousarray(users, dtype=np.int64)
        tweets = np.ascontiguousarray(tweets, dtype=np.int64)
        if users.shape != tweets.shape:
            raise ValueError(
                f"users ({users.shape}) and tweets ({tweets.shape}) "
                "must be parallel arrays"
            )
        instance = cls()
        if len(users) == 0:
            return instance
        order = np.lexsort((tweets, users))
        u_sorted = users[order]
        t_sorted = tweets[order]
        fresh = np.empty(len(u_sorted), dtype=bool)
        fresh[0] = True
        np.logical_or(
            u_sorted[1:] != u_sorted[:-1],
            t_sorted[1:] != t_sorted[:-1],
            out=fresh[1:],
        )
        u_sorted = u_sorted[fresh]
        t_sorted = t_sorted[fresh]
        instance._by_user = _CSRIndex.from_pairs(u_sorted, t_sorted)
        transpose = np.lexsort((u_sorted, t_sorted))
        instance._by_tweet = _CSRIndex.from_pairs(
            t_sorted[transpose], u_sorted[transpose]
        )
        return instance

    def add(self, user: int, tweet: int) -> None:
        """Record that ``user`` retweeted ``tweet`` (idempotent).

        Only a genuinely new (user, tweet) pair dirties the user and the
        tweet: a repeated retweet changes neither ``L_u`` nor ``m(i)``,
        so it must not enlarge the maintenance region.
        """
        if self._by_user is not None and self._by_user.contains_pair(
            user, tweet
        ):
            return
        profile = self._profiles.get(user)
        if profile is None:
            profile = self._profiles.setdefault(user, set())
            if self._by_user is not None and self._by_user.position(user) < 0:
                self._extra_users += 1
        elif tweet in profile:
            return
        profile.add(tweet)
        retweeters = self._retweeters.get(tweet)
        if retweeters is None:
            retweeters = self._retweeters.setdefault(tweet, set())
            if (
                self._by_tweet is not None
                and self._by_tweet.position(tweet) < 0
            ):
                self._extra_tweets += 1
        retweeters.add(user)
        self._pair_users.append(user)
        self._pair_tweets.append(tweet)
        self._dirty_users.add(user)
        self._dirty_tweets.add(tweet)

    def extend(self, retweets: Iterable[Retweet]) -> None:
        """Record a batch of retweet actions."""
        for retweet in retweets:
            self.add(retweet.user, retweet.tweet)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def profile(self, user: int) -> frozenset[int]:
        """L_u — the tweets ``user`` retweeted (empty when unknown).

        Returns an immutable snapshot: callers can keep or combine it
        freely, and mutating a *copy* (``set(...)``) never touches the
        stored profile.
        """
        overlay = self._profiles.get(user)
        if self._by_user is None:
            return frozenset(overlay) if overlay else _EMPTY_SET
        base = self._by_user.row(user)
        if overlay:
            return frozenset(base.tolist()).union(overlay)
        if len(base) == 0:
            return _EMPTY_SET
        return frozenset(base.tolist())

    def profile_array(self, user: int) -> np.ndarray:
        """L_u as a sorted int64 array (flat-array consumers).

        Zero-copy on the columnar path when no overlay entry exists for
        ``user``; otherwise a fresh sorted array.
        """
        overlay = self._profiles.get(user)
        base = (
            self._by_user.row(user) if self._by_user is not None else _EMPTY_ROW
        )
        if not overlay:
            return base
        merged = np.fromiter(overlay, dtype=np.int64, count=len(overlay))
        if len(base):
            merged = np.concatenate([base, merged])
        merged.sort()
        return merged

    def pairs(self) -> tuple[list[int], list[int]]:
        """Every distinct ``(user, tweet)`` pair as two parallel lists.

        The flat form of the whole incidence, for array consumers (the
        vectorized similarity backend) that would otherwise walk the
        profiles one user at a time.  Pair order is unspecified.
        """
        if self._by_user is None:
            return list(self._pair_users), list(self._pair_tweets)
        base = self._by_user
        users = np.repeat(base.keys, np.diff(base.indptr)).tolist()
        return (
            users + self._pair_users,
            base.items.tolist() + self._pair_tweets,
        )

    def profile_size(self, user: int) -> int:
        """|L_u| without copying the set."""
        size = len(self._profiles.get(user, ()))
        if self._by_user is not None:
            size += self._by_user.row_size(user)
        return size

    def has_profile(self, user: int) -> bool:
        """True when ``user`` retweeted at least one tweet."""
        if user in self._profiles:
            return True
        return self._by_user is not None and self._by_user.position(user) >= 0

    def users(self) -> Iterator[int]:
        """Every user with a non-empty profile."""
        if self._by_user is None:
            return iter(self._profiles.keys())
        return self._chain_keys(self._by_user, self._profiles)

    def tweets(self) -> Iterator[int]:
        """Every tweet retweeted at least once."""
        if self._by_tweet is None:
            return iter(self._retweeters.keys())
        return self._chain_keys(self._by_tweet, self._retweeters)

    @staticmethod
    def _chain_keys(base: _CSRIndex, overlay: dict) -> Iterator[int]:
        yield from base.keys.tolist()
        if overlay:
            base_keys = base.keys
            for key in overlay:
                i = int(np.searchsorted(base_keys, key))
                if i >= len(base_keys) or int(base_keys[i]) != key:
                    yield key

    def popularity(self, tweet: int) -> int:
        """m(i) — number of distinct users who retweeted ``tweet``."""
        count = len(self._retweeters.get(tweet, ()))
        if self._by_tweet is not None:
            count += self._by_tweet.row_size(tweet)
        return count

    def retweeters(self, tweet: int) -> frozenset[int]:
        """Distinct retweeters of ``tweet`` (immutable snapshot).

        Like :meth:`profile`, the return value is a ``frozenset`` —
        safe to hold, never aliased to internal state.
        """
        overlay = self._retweeters.get(tweet)
        if self._by_tweet is None:
            return frozenset(overlay) if overlay else _EMPTY_SET
        base = self._by_tweet.row(tweet)
        if overlay:
            return frozenset(base.tolist()).union(overlay)
        if len(base) == 0:
            return _EMPTY_SET
        return frozenset(base.tolist())

    def retweeters_array(self, tweet: int) -> np.ndarray:
        """Distinct retweeters as a sorted int64 array."""
        overlay = self._retweeters.get(tweet)
        base = (
            self._by_tweet.row(tweet)
            if self._by_tweet is not None
            else _EMPTY_ROW
        )
        if not overlay:
            return base
        merged = np.fromiter(overlay, dtype=np.int64, count=len(overlay))
        if len(base):
            merged = np.concatenate([base, merged])
        merged.sort()
        return merged

    def tweet_weight(self, tweet: int) -> float:
        """The Def. 3.1 contribution of one common tweet: 1/log(1+m(i)).

        Rare co-retweets weigh more than popular ones (Breese et al.'s
        inverse-popularity correction).  Natural log, as is conventional.
        """
        m = self.popularity(tweet)
        if m == 0:
            return 0.0
        return 1.0 / math.log1p(m)

    # ------------------------------------------------------------------
    # Dirty tracking (delta maintenance, §6.3 at service scale)
    # ------------------------------------------------------------------
    @property
    def dirty_users(self) -> frozenset[int]:
        """Users whose profile gained a tweet since :meth:`mark_clean`."""
        return frozenset(self._dirty_users)

    @property
    def dirty_tweets(self) -> frozenset[int]:
        """Tweets whose popularity m(i) changed since :meth:`mark_clean`.

        Their ``1/log(1 + m(i))`` weight changed, so every pair of their
        co-retweeters may have a stale similarity numerator.
        """
        return frozenset(self._dirty_tweets)

    @property
    def has_dirty(self) -> bool:
        """True when any profile or tweet weight changed since the checkpoint."""
        return bool(self._dirty_users) or bool(self._dirty_tweets)

    def mark_clean(self) -> None:
        """Checkpoint: the current state is what the SimGraph was built from.

        Callers invoke this right after a (re)build; subsequent ``add``
        calls accumulate the dirty sets the next delta maintenance run
        consumes.
        """
        self._dirty_users.clear()
        self._dirty_tweets.clear()

    @property
    def user_count(self) -> int:
        """Number of users with at least one retweet."""
        if self._by_user is None:
            return len(self._profiles)
        return len(self._by_user.keys) + self._extra_users

    @property
    def tweet_count(self) -> int:
        """Number of tweets retweeted at least once."""
        if self._by_tweet is None:
            return len(self._retweeters)
        return len(self._by_tweet.keys) + self._extra_tweets
