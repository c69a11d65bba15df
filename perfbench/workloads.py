"""One pass of each workload, and the checks of its outputs.

``replay`` and ``churn`` are closed loops with one caller: every stream
event goes straight into the service and the next is sent when the call
returns.  ``serve`` drives ``AsyncRecommendationServer``: once closed-loop
(the whole request stream offered at once, which measures the drain rate)
and then open-loop at each rung of a fixed rate ladder, each request timed
from the moment it was due.  The ladder's servers calibrate admission from
the drain, as ``simgraph loadgen --calibrate`` does, so the top rungs meet
a token bucket and queue limits they can exhaust.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from corpus import POST, RETWEET, Corpus, build_service
from oracle import matches
from repro.eval.budget import CapacityModel
from repro.serve import (
    AsyncRecommendationServer,
    PostRequest,
    RetweetRequest,
    ScoreRequest,
    ServeConfig,
    serve_stream,
)

#: Offered rates of the ``serve`` ladder (requests per second).  On a
#: 2-core VM the closed-loop drain of today's code (1,300-2,900 req/s as
#: the machine's speed drifts) sits below the top rung and between or
#: above the two under it.
LADDER = (250, 500, 1000, 2000, 4000)
#: Rungs well below today's drain rate, whose pooled due-time latencies
#: are reported as ``latency.*``.  At 1,000 req/s the worker can be
#: three quarters busy and the tail swings by 2x between runs.
LIGHT = (250, 500)
#: Each rung offers this prefix of the serve stream (about a quarter of
#: it), so every rung sees the same requests and p99 has ten samples
#: beyond it.  Admission is calibrated from the drain, so a rung this
#: short still exhausts the token bucket once it outruns capacity.
LADDER_REQUESTS = 1000
#: The p99 limit a rung must meet to count as sustained.
SLO_P99 = ServeConfig().slo_p99


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


@dataclass
class Rung:
    """What the open-loop generator saw at one offered rate."""

    rate: int
    latencies: list[float]
    late: list[float]
    sent: int
    failed: int
    shed: int
    degraded: int
    #: Served in full after the rung's first refused retweet, when the
    #: service state no longer follows the oracle: checked for shape only.
    unchecked: int
    duration: float

    @property
    def refused(self) -> int:
        return self.shed + self.degraded

    @property
    def ok(self) -> int:
        return self.sent - self.failed - self.refused

    @property
    def growing(self) -> bool:
        """Backlog grows: the last quarter waits much longer than the first."""
        quarter = max(1, len(self.latencies) // 4)
        first = statistics.median(self.latencies[:quarter])
        last = statistics.median(self.latencies[-quarter:])
        return last - first > SLO_P99 / 4

    @property
    def sustained(self) -> bool:
        """p99 within the limit, nothing shed or degraded, no growing backlog."""
        return (
            self.refused == 0
            and pct(self.latencies, 99) <= SLO_P99
            and not self.growing
        )


@dataclass
class Pass:
    """One pass over a workload's stream, from fresh services."""

    setups: list[float] = field(default_factory=list)
    #: replay/churn: wall time of the live stream; serve: of the drain.
    live_s: float = 0.0
    #: ``(start, end)`` of that closed-loop stretch, in which the caller is
    #: never idle (the trace must cover it).
    closed: tuple[float, float] = (0.0, 0.0)
    retweets: int = 0
    #: replay/churn: seconds of each post_tweet and retweet call (a post
    #: can make maintenance due).  serve: due-time latency of every
    #: request at the LIGHT rungs.
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rungs: dict[int, Rung] = field(default_factory=dict)
    #: The service-side registries' budget counters, summed over the pass.
    candidates: int = 0
    delivered: int = 0
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def events_per_s(self) -> float:
        return self.retweets / self.live_s

    def absorb_counters(self, service) -> None:
        counters = service.metrics.snapshot()["counters"]
        delivered = counters.get("budget.delivered", 0)
        self.delivered += delivered
        self.candidates += delivered + counters.get("budget.rejections", 0)


def stream_pass(corpus: Corpus, oracle: dict, config: dict, tracer=None) -> Pass:
    """replay / churn: each event straight into the service, then flush()."""
    started = time.perf_counter()
    result = Pass()
    _phase(tracer, "setup")
    service, setup = build_service(corpus, **config)
    result.setups.append(setup)
    _phase(tracer, "live")
    outputs = []
    clock = time.perf_counter
    live_started = clock()
    for event in corpus.stream:
        kind = event[0]
        try:
            if kind == RETWEET:
                t0 = clock()
                outputs.append(service.retweet(event[1], event[2], event[3]))
                result.latencies.append(clock() - t0)
            elif kind == POST:
                t0 = clock()
                service.post_tweet(tweet_id=event[1], author=event[2], at=event[3])
                result.latencies.append(clock() - t0)
            else:
                service.add_follow(event[1], event[2])
        except Exception as exc:  # counted as failed; the stream goes on
            result.errors.append(f"{kind}: {exc!r}")
            result.failed += 1
            if kind == RETWEET:
                outputs.append(None)
    try:
        final = service.flush()
    except Exception as exc:
        result.errors.append(f"flush: {exc!r}")
        final = None
    result.closed = (live_started, clock())
    result.live_s = result.closed[1] - live_started
    result.wall_s = clock() - started
    result.retweets = len(outputs)
    result.attempted = len(corpus.stream) + 1
    result.failed += sum(
        got is not None and not matches(got, want)
        for got, want in zip(outputs, oracle["events"])
    )
    result.failed += final is None or not matches(final, oracle["flush"])
    result.absorb_counters(service)
    return result


def serve_pass(
    corpus: Corpus, requests: list, oracle: dict, tracer=None, ladder=True
) -> Pass:
    """serve: the closed-loop drain, then every rung of the open-loop ladder.

    With ``ladder`` false the pass ends after the drain.
    """
    started = time.perf_counter()
    result = Pass()
    _phase(tracer, "setup")
    service, setup = build_service(corpus)
    result.setups.append(setup)
    _phase(tracer, "live")
    drain = ServeConfig(
        shed_depth=len(requests) + 1, degrade_depth=len(requests) + 1
    )
    drain_started = time.perf_counter()
    responses = serve_stream(service, requests, drain, return_exceptions=True)
    result.closed = (drain_started, time.perf_counter())
    result.live_s = result.closed[1] - drain_started
    result.retweets = sum(isinstance(r, RetweetRequest) for r in requests)
    failed, refused, _ = _check(requests, responses, oracle)
    result.failed += failed + refused
    result.attempted += len(requests)
    result.absorb_counters(service)
    if not ladder:
        result.wall_s = time.perf_counter() - started
        return result
    # Only retweets and reads pass admission; posts are control plane.
    admitted = sum(not isinstance(r, PostRequest) for r in requests)
    calibrated = ServeConfig.from_capacity(
        CapacityModel(service_seconds_per_event=result.live_s / admitted),
        slo_p99=SLO_P99,
    )
    prefix = requests[:LADDER_REQUESTS]
    for rate in LADDER:
        _phase(tracer, "setup")
        service, setup = build_service(corpus)
        result.setups.append(setup)
        _phase(tracer, "live")
        latencies, late, responses, duration = asyncio.run(
            _offer(service, calibrated, prefix, rate, tracer)
        )
        statuses = [getattr(r, "status", "error") for r in responses]
        failed, _, unchecked = _check(prefix, responses, oracle)
        rung = Rung(
            rate=rate, latencies=latencies, late=late, sent=len(prefix),
            failed=failed, shed=statuses.count("shed"),
            degraded=statuses.count("degraded"), unchecked=unchecked,
            duration=duration,
        )
        result.rungs[rate] = rung
        result.failed += rung.failed
        result.attempted += rung.sent
        result.absorb_counters(service)
        if rate in LIGHT:
            result.latencies.extend(rung.latencies)
    result.wall_s = time.perf_counter() - started
    return result


async def _offer(
    service, config: ServeConfig, requests: list, rate: int, tracer
):
    """Offer ``requests`` at ``rate``/s from this one event loop.

    Request ``i`` is due ``i / rate`` seconds after the start; it is
    submitted at the first loop turn at or after that instant and timed
    from its due time to the moment its response resolved.  Returns the
    latencies, how late each submission was, the responses and the time
    from the first due instant to the last response.
    """
    n = len(requests)
    done = [0.0] * n
    late: list[float] = []
    clock = time.perf_counter
    server = AsyncRecommendationServer(service, config)
    async with server:
        start = clock() + 0.01
        due = [start + i / rate for i in range(n)]
        if tracer is not None:
            tracer.rung = rate
            tracer.due = {id(r): d for r, d in zip(requests, due)}
        futures = []
        for i, request in enumerate(requests):
            delay = due[i] - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(clock() - due[i])
            future = server.submit_nowait(request)
            future.add_done_callback(partial(_stamp, done, i))
            futures.append(future)
        responses = await asyncio.gather(*futures, return_exceptions=True)
    if tracer is not None:
        tracer.rung = None
        tracer.due = {}
    latencies = [finished - d for finished, d in zip(done, due)]
    return latencies, late, responses, max(done) - start


def _stamp(done: list[float], i: int, _future) -> None:
    done[i] = time.perf_counter()


def _check(
    requests: list, responses: list, oracle: dict
) -> tuple[int, int, int]:
    """Failed, refused and unchecked responses.

    A retweet must carry exactly the notifications the oracle delivered
    for that event (the serve stream keeps the retweets of the replay
    stream in order); a read must score every tweet it asked for; a post
    must be acknowledged.  A shed or degraded answer is refused, not
    failed, when it is labelled as such: shed carries nothing, degraded
    comes from the warm cache or nowhere.  A refused retweet skips the
    scheduler, dedup and budget on purpose, so later retweets can no
    longer be held to the oracle; they are counted as unchecked.
    """
    failed = refused = unchecked = 0
    retweet = 0
    diverged = False
    for request, response in zip(requests, responses):
        if isinstance(request, RetweetRequest):
            want = oracle["events"][retweet]
            retweet += 1
        if isinstance(response, BaseException):
            failed += 1
            continue
        status = response.status
        if status == "shed":
            ok = not isinstance(request, PostRequest) and not (
                response.notifications or response.scores
            )
        elif status == "degraded":
            ok = not isinstance(request, PostRequest) and (
                response.served_from in ("warm-cache", "none")
            )
        elif isinstance(request, RetweetRequest):
            ok = status == "ok"
            if diverged:
                unchecked += ok
            else:
                ok = ok and matches(response.notifications, want)
        elif isinstance(request, ScoreRequest):
            ok = status == "ok" and response.scores is not None and all(
                response.scores.get(t) is not None for t in request.tweets
            )
        else:
            ok = status == "ok"
        if not ok:
            failed += 1
        elif status != "ok":
            refused += 1
            diverged = diverged or isinstance(request, RetweetRequest)
    return failed, refused, unchecked


def _phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase
