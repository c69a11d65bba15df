"""Benchmark of the SimGraph recommendation service, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 35 --trace 0

``--workload`` is ``replay`` or ``churn``, the workloads ``BENCHMARK.json``
lists, or ``serve``, which is left out of it while the program fails it
(README.md says what each stresses and why).  The run builds fresh
services from the seeded corpus and repeats passes over the workload's
stream for about
``--seconds`` seconds, checking every delivered notification against the
reference oracle.  It prints one line per metric, an environment block,
and last a JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The oracle and the synthesized corpus are cached under
``.perfbench_cache/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"
WORKLOADS = ("replay", "serve", "churn")
#: ``setup_s`` is the median of at least this many set-ups per run.
MIN_SETUPS = 10


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def _prepare_cache(workload: str, seed: int) -> None:
    """Synthesize the corpus and compute the oracle, if not cached.

    Runs in a child process so the measured process's peak RSS does not
    depend on whether the cache was warm.
    """
    _import_program()
    from corpus import CHURN, make_corpus
    from oracle import load_oracle

    corpus = make_corpus(seed, CACHE, follow_trickle=workload == "churn")
    load_oracle(corpus, CACHE, **(CHURN if workload == "churn" else {}))


def _reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown: unresolved {name}"


def environment() -> dict:
    import numpy
    import scipy

    from repro.core.propagation_kernel import kernel_mode, resolve_prop_backend

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = "not measured: numba unavailable"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "prop_backend_auto": resolve_prop_backend("auto"),
        "kernel_mode": kernel_mode(),
        "REPRO_PROP_KERNEL": os.environ.get("REPRO_PROP_KERNEL", "unset"),
        "git_sha": _git_sha(),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setups, peak_mb, attempted, failed) -> dict:
    from workloads import pct

    latencies = [x for p in passes for x in p.latencies]
    return {
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": (1 - failed / attempted, "fraction"),
        "events_per_s": (_median(p.events_per_s for p in passes), "1/s"),
        "event_p50_ms": (pct(latencies, 50) * 1e3, "ms"),
        "event_p99_ms": (pct(latencies, 99) * 1e3, "ms"),
    }


def per_layer(summary, traced, untraced, coverage, serve: bool) -> dict:
    """Per-layer metrics per pass, from the traced passes.

    The layers of the serving front-end (admission, server, load
    generator, ladder, batched service calls) are reported on ``serve``
    only; the other workloads do not cross them.  The ladder and
    generator figures come from the untraced passes of the same run, so
    tracing does not distort them.
    """
    from workloads import pct

    n = len(traced)
    live = summary["live"]["layers"]
    setup = summary["setup"]["layers"]
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "durations": []}

    def layer(name, phase=live):
        return phase.get(name, empty)

    def q(name, p, scale=1e3):
        return pct(layer(name)["durations"], p) * scale

    def ratio(a, b):
        return a / b if b else 0.0

    counts, samples = summary["live"]["counts"], summary["live"]["samples"]
    prop = layer("prop")
    tasks = counts["prop.tasks"]
    offers = layer("scheduler.offer")["calls"]
    released = counts["scheduler.tasks"]
    compiles = layer("csr.compile")["calls"]
    candidates = sum(p.candidates for p in traced) / n
    delivered = sum(p.delivered for p in traced) / n
    live_wall = sum(p.wall_s - sum(p.setups) for p in traced)
    traced_live = _median(p.live_s for p in traced)
    untraced_live = _median(p.live_s for p in untraced)
    m = {
        "prop.busy_ms": (prop["busy"] * 1e3 / n, "ms"),
        "prop.calls": (prop["calls"] / n, "count"),
        "prop.tasks_per_call": (ratio(tasks, prop["calls"]), "ratio"),
        "prop.task_ms.mean": (ratio(prop["busy"] * 1e3, tasks), "ms"),
        "service.retweet_ms.p50": (q("service.retweet", 50), "ms"),
        "service.retweet_ms.p99": (q("service.retweet", 99), "ms"),
        "service.post_ms.p99": (q("service.post_tweet", 99), "ms"),
        "service.self_ms": (
            sum(v["self"] for k, v in live.items() if k.startswith("service."))
            * 1e3 / n, "ms",
        ),
        "service.candidates": (candidates, "count"),
        "service.delivered": (delivered, "count"),
        "service.delivery_ratio": (ratio(delivered, candidates), "ratio"),
        "scheduler.offer_us.p50": (q("scheduler.offer", 50, 1e6), "us"),
        "scheduler.tasks": (released / n, "count"),
        "scheduler.events_per_task": (ratio(offers, released), "ratio"),
        "warm.hit_ratio": (
            ratio(counts["warm.hits"], counts["warm.hits"] + counts["warm.misses"]),
            "ratio",
        ),
        "warm.busy_ms": (
            (layer("warm.get")["busy"] + layer("warm.put")["busy"]) * 1e3 / n, "ms",
        ),
        "delta.region_ms": (layer("delta.region")["busy"] * 1e3 / n, "ms"),
        "delta.apply_ms": (layer("delta.apply")["busy"] * 1e3 / n, "ms"),
        "delta.affected_users.mean": (
            _mean(samples["delta.affected_users"]), "count",
        ),
        "csr.compile_ms": (layer("csr.compile")["busy"] * 1e3 / n, "ms"),
        "csr.compiles": (compiles / n, "count"),
        "csr.patch_ratio": (
            ratio(counts["csr.patched"], counts["csr.patched"] + compiles), "ratio",
        ),
        "build.busy_ms": (layer("build")["busy"] * 1e3 / n, "ms"),
        "build.calls": (layer("build")["calls"] / n, "count"),
        "build.setup_ms": (
            ratio(layer("build", setup)["busy"] * 1e3, layer("build", setup)["calls"]),
            "ms",
        ),
        "service.rebuild_ms.p50": (q("service.rebuild", 50), "ms"),
        "service.rebuild_ms.p99": (q("service.rebuild", 99), "ms"),
        "service.rebuilds": (layer("service.rebuild")["calls"] / n, "count"),
        "trace.live_ms": (live_wall * 1e3 / n, "ms"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead_frac": (ratio(traced_live, untraced_live) - 1, "ratio"),
        "trace.events_per_s_delta": (
            _median(p.events_per_s for p in traced)
            - _median(p.events_per_s for p in untraced),
            "1/s",
        ),
    }
    if serve:
        m.update(_serve_layers(summary, traced, untraced))
    return m


def _serve_layers(summary, traced, untraced) -> dict:
    """The serving front-end's layers, on ``serve`` only."""
    from workloads import LADDER, pct

    n = len(traced)
    live = summary["live"]["layers"]
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "durations": []}
    counts, samples = summary["live"]["counts"], summary["live"]["samples"]
    rungs = [p.rungs[r] for p in traced for r in LADDER if p.rungs]
    plain = [p.rungs for p in untraced if p.rungs]

    def q(name, p):
        return pct(live.get(name, empty)["durations"], p) * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    admit = live.get("admission.admit", empty)
    m = {
        "service.ingest_batch_ms.p50": (q("service.ingest_batch", 50), "ms"),
        "service.ingest_batch_ms.p99": (q("service.ingest_batch", 99), "ms"),
        "service.score_batch_ms.p50": (q("service.score_batch", 50), "ms"),
        "service.score_batch_ms.p99": (q("service.score_batch", 99), "ms"),
        "admission.full": (counts["admission.full"] / n, "count"),
        "admission.degraded": (counts["admission.degraded"] / n, "count"),
        "admission.shed": (counts["admission.shed"] / n, "count"),
        "admission.admit_us": (ratio(admit["busy"] * 1e6, admit["calls"]), "us"),
        "server.queue_wait_ms.p50": (pct(samples["server.queue_wait"], 50) * 1e3, "ms"),
        "server.queue_wait_ms.p99": (pct(samples["server.queue_wait"], 99) * 1e3, "ms"),
        "server.batch_exec_ms.p50": (pct(samples["server.batch_exec"], 50) * 1e3, "ms"),
        "server.batch_exec_ms.p99": (pct(samples["server.batch_exec"], 99) * 1e3, "ms"),
        "server.batch_size.mean": (_mean(samples["server.batch_size"]), "count"),
        "server.batches": (counts["server.batches"] / n, "count"),
        "server.worker_busy_frac": (
            ratio(sum(samples["server.batch_exec"]), sum(r.duration for r in rungs)),
            "ratio",
        ),
    }
    for rate in LADDER:
        m[f"server.queue_wait_ms.p50.r{rate}"] = (
            pct(samples[f"server.queue_wait.r{rate}"], 50) * 1e3, "ms",
        )
    m["gen.late_p99_ms"] = (
        pct([x for rs in plain for r in rs.values() for x in r.late], 99) * 1e3, "ms",
    )
    for rate in LADDER:
        for key in ("sent", "ok", "failed", "refused"):
            m[f"gen.{key}.r{rate}"] = (
                _mean([getattr(rs[rate], key) for rs in plain]), "count",
            )
    m["gen.unchecked"] = (
        _mean([sum(r.unchecked for r in rs.values()) for rs in plain]), "count",
    )
    for rate in LADDER:
        m[f"ladder.p50_ms.r{rate}"] = (
            _median(pct(rs[rate].latencies, 50) * 1e3 for rs in plain), "ms",
        )
        m[f"ladder.p99_ms.r{rate}"] = (
            _median(pct(rs[rate].latencies, 99) * 1e3 for rs in plain), "ms",
        )
    m["ladder.sustained_rps"] = (
        _median(
            max([r for r in LADDER if rs[r].sustained], default=0) for rs in plain
        ),
        "1/s",
    )
    return m


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from corpus import CHURN, build_service, make_corpus, serve_requests
    from oracle import load_oracle
    from tracing import Tracer, check_trace
    from workloads import serve_pass, stream_pass

    prepare = subprocess.run(
        [sys.executable, "-c",
         "import sys, run; run._prepare_cache(sys.argv[1], int(sys.argv[2]))",
         args.workload, str(args.seed)],
        cwd=Path(__file__).resolve().parent,
    )
    if prepare.returncode != 0:
        print("error: corpus/oracle preparation failed", file=sys.stderr)
        return 2
    churn = args.workload == "churn"
    config = CHURN if churn else {}
    corpus = make_corpus(args.seed, CACHE, follow_trickle=churn)
    oracle = load_oracle(corpus, CACHE, **config)
    if args.workload == "serve":
        requests = serve_requests(corpus)

        def one_pass(tracer=None, ladder=True):
            return serve_pass(corpus, requests, oracle, tracer, ladder)
    else:

        def one_pass(tracer=None, ladder=True):
            return stream_pass(corpus, oracle, config, tracer)

    # The benchmark's own inputs (corpus, oracle, request stream) are not
    # part of the program's heap; frozen, they do not lengthen its
    # garbage-collection pauses.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    # Half the set-ups run before the passes and the rest after, so the
    # median of setup_s does not rest on one stretch of the machine's
    # speed (it drifts by tens of percent within seconds).
    setups = []
    if tracer is None:
        setups = [build_service(corpus, **config)[1] for _ in range(MIN_SETUPS // 2)]
        gc.collect()
    _reset_peak_rss()
    started = time.perf_counter()
    untraced, traced = [], []
    while True:
        round_started = time.perf_counter()
        # serve: only the first untraced pass offers the ladder; the later
        # ones repeat the drain, whose rate is the end-to-end figure, so
        # its median rests on more drains.  Every traced pass is whole.
        untraced.append(one_pass(ladder=len(untraced) == 0))
        if len(untraced) == 1:
            # The peak of one pass, so the number of passes does not move it.
            peak_mb = _peak_rss_mb()
        if tracer is not None:
            with tracer:
                traced.append(one_pass(tracer))
        now = time.perf_counter()
        if now - started + (now - round_started) > args.seconds:
            break
    passes = untraced + traced
    setups += [s for p in untraced for s in p.setups]
    while tracer is None and len(setups) < MIN_SETUPS:
        setups.append(build_service(corpus, **config)[1])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0
    if tracer is None:
        metrics = end_to_end(untraced, setups, peak_mb, attempted, failed)
    else:
        summary = {
            "live": tracer.summary("live"),
            "setup": tracer.summary("setup"),
        }
        problems, coverage = check_trace(
            tracer.spans, [p.closed for p in traced]
        )
        for problem in sorted(set(problems))[:10]:
            print(f"error: trace: {problem}", file=sys.stderr)
        correct = correct and not problems
        metrics = per_layer(
            summary, traced, untraced, coverage, args.workload == "serve"
        )

    for p in passes:
        for error in p.errors[:5]:
            print(f"error: {error}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(untraced)} untraced / {len(traced)} traced  "
          f"attempted {attempted}  failed {failed}")
    print("  events_per_s by pass: "
          + " ".join(f"{p.events_per_s:.1f}" for p in untraced))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
