"""Histogram helpers for reproducing the paper's figures.

Figures 1-5 of the paper are count distributions on log axes, and Figure 2
uses explicit irregular bins (0, 1, 2-5, 6-50, 51-200, 201-500, 500+).  The
helpers here turn raw value sequences into (label, count) series that the
benchmark harness prints.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

__all__ = [
    "binned_counts",
    "log_binned_counts",
    "exact_counts",
    "log_bucket_index",
    "log_bucket_label",
    "percentile",
    "Bin",
]


class Bin:
    """A half-open integer bin ``[lo, hi]`` (``hi=None`` means unbounded)."""

    def __init__(self, lo: int, hi: int | None = None, label: str | None = None):
        if hi is not None and hi < lo:
            raise ValueError(f"bin upper bound {hi} below lower bound {lo}")
        self.lo = lo
        self.hi = hi
        self.label = label if label is not None else self._default_label()

    def _default_label(self) -> str:
        if self.hi is None:
            return f"{self.lo}+"
        if self.hi == self.lo:
            return str(self.lo)
        return f"{self.lo}-{self.hi}"

    def contains(self, value: int) -> bool:
        """True when ``value`` falls inside this bin."""
        if value < self.lo:
            return False
        return self.hi is None or value <= self.hi

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bin({self.label!r})"


#: The exact bins of the paper's Figure 2 (retweets per tweet).
FIGURE2_BINS = (
    Bin(0, 0),
    Bin(1, 1),
    Bin(2, 5),
    Bin(6, 50),
    Bin(51, 200),
    Bin(201, 500),
    Bin(501, None, label="500+"),
)


def binned_counts(
    values: Iterable[int], bins: Sequence[Bin] = FIGURE2_BINS
) -> list[tuple[str, int]]:
    """Count ``values`` into ``bins`` and return (label, count) rows.

    Values matching no bin are silently dropped — the paper's bins are
    exhaustive over the non-negative integers, so with the default bins
    nothing is lost.
    """
    counts = [0] * len(bins)
    for value in values:
        for i, b in enumerate(bins):
            if b.contains(value):
                counts[i] += 1
                break
    return [(b.label, c) for b, c in zip(bins, counts)]


def log_bucket_index(value: float, base: float = 2.0) -> int | None:
    """Logarithmic bucket of a non-negative ``value``: ``[base^i, base^{i+1})``.

    Returns ``None`` for zero (zeros get their own leading bin) and the
    exponent ``i = floor(log_base(value))`` otherwise.  Shared by
    :func:`log_binned_counts` and the ``repro.obs`` histograms so figure
    bins and metric bins agree.
    """
    if base <= 1.0:
        raise ValueError(f"base must exceed 1, got {base}")
    if value < 0:
        raise ValueError(f"negative value {value} in histogram input")
    if value == 0:
        return None
    return math.floor(math.log(value, base))


def log_bucket_label(bucket: int | None, base: float = 2.0) -> str:
    """Human-readable label of one :func:`log_bucket_index` bucket.

    Integer-valued buckets (``base^i >= 1``) keep the figures' inclusive
    ``lo-hi`` style; sub-unit buckets (timings) show the half-open float
    interval.
    """
    if bucket is None:
        return "0"
    lo = base**bucket
    hi = base ** (bucket + 1)
    if lo >= 1 and float(lo).is_integer() and float(hi).is_integer():
        int_lo, int_hi = int(lo), int(hi) - 1
        return str(int_lo) if int_lo >= int_hi else f"{int_lo}-{int_hi}"
    return f"[{lo:g}, {hi:g})"


def log_binned_counts(
    values: Iterable[int], base: float = 2.0
) -> list[tuple[str, int]]:
    """Bucket positive ``values`` into logarithmic bins ``[base^i, base^{i+1})``.

    Zeros are reported in their own leading bin, mirroring how the figures
    separate "never retweeted" from the power-law tail.
    """
    if base <= 1.0:
        raise ValueError(f"base must exceed 1, got {base}")
    zero_count = 0
    bucket_counts: Counter[int] = Counter()
    for value in values:
        bucket = log_bucket_index(value, base)
        if bucket is None:
            zero_count += 1
        else:
            bucket_counts[bucket] += 1
    rows: list[tuple[str, int]] = []
    if zero_count:
        rows.append(("0", zero_count))
    for bucket in sorted(bucket_counts):
        rows.append((log_bucket_label(bucket, base), bucket_counts[bucket]))
    return rows


def percentile(
    bucket_counts: dict[int | None, int] | Counter,
    q: float,
    base: float = 2.0,
    low: float | None = None,
    high: float | None = None,
) -> float:
    """Estimate the ``q``-quantile of log-binned observations.

    ``bucket_counts`` maps :func:`log_bucket_index` buckets to
    observation counts (``None`` is the zero bucket), exactly the layout
    the ``repro.obs`` histograms keep.  ``q`` is a fraction in [0, 1].

    The estimator locates the bucket holding the order statistic of rank
    ``floor(q * (n - 1))`` — the same rank numpy's ``method="lower"``
    percentile selects — and interpolates geometrically inside it from
    the fractional part of the rank.

    Error bound: the returned value always lies inside the half-open
    bucket ``[base^i, base^{i+1})`` that contains that exact order
    statistic, so it is within a factor of ``base`` of it (and equals it
    exactly for the zero bucket).  With the default ``base=2`` every
    p50/p95/p99 readout is a 2x-accurate estimate of the corresponding
    sample percentile — tight enough to spot an SLO regression, constant
    memory regardless of observation volume.  Callers needing exact
    percentiles must keep raw samples (the load generator does, for the
    BENCH gates).

    ``low``/``high`` are the smallest and largest observation when the
    caller tracks them (the ``repro.obs`` histograms do): the estimate is
    clamped into ``[low, high]``, so it never leaves the observed range —
    interpolation inside a bucket alone can land below the minimum or
    above the maximum.  Clamping keeps the error bound, since the exact
    order statistic lies in that range too.

    Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if base <= 1.0:
        raise ValueError(f"base must exceed 1, got {base}")
    n = 0
    for count in bucket_counts.values():
        if count < 0:
            raise ValueError(f"negative bucket count {count}")
        n += count
    if n == 0:
        return 0.0
    estimate = _bucket_estimate(bucket_counts, q * (n - 1), base)
    if low is not None:
        estimate = max(estimate, float(low))
    if high is not None:
        estimate = min(estimate, float(high))
    return estimate


def _bucket_estimate(
    bucket_counts: dict[int | None, int] | Counter, rank: float, base: float
) -> float:
    """Geometric interpolation of order statistic ``rank`` in its bucket."""
    ordered = sorted(
        bucket_counts.items(), key=lambda kv: (kv[0] is not None, kv[0] or 0)
    )
    cumulative = 0
    for bucket, count in ordered:
        if count and rank < cumulative + count:
            if bucket is None:
                return 0.0
            fraction = (rank - cumulative) / count
            return float(base**bucket * base**fraction)
        cumulative += count
    # Unreachable for rank <= n - 1 < n; guard float edge cases by
    # answering with the top of the last non-empty bucket.
    for bucket, count in reversed(ordered):
        if count:
            return 0.0 if bucket is None else float(base ** (bucket + 1))
    return 0.0


def exact_counts(values: Iterable[int]) -> list[tuple[int, int]]:
    """Exact (value, count) rows sorted by value — used for path figures."""
    counter = Counter(values)
    return sorted(counter.items())
