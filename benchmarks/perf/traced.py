"""The traced run: per-layer metrics of one workload in this process.

Everything here observes the layers from outside — a ``cProfile`` of
one replay rolled up by source path (``layers.py``), the counters the
runner already reports, and a few extra replays that switch one thing
on (``trace_requests``, sharding) to price it. All of it is measured on
the workload's first episode; none of it feeds an end-to-end metric.
"""

from __future__ import annotations

import cProfile
import statistics
import time
from typing import Dict, Optional

from repro.parallel import ShardedSimulationRunner
from repro.sim import Environment

from benchmarks.perf.layers import roll_up
from benchmarks.perf.measure import (
    peak_rss_mb,
    replay,
    responses,
    sim_digest,
    violations,
)
from benchmarks.perf.workloads import build_episodes

#: Untraced replays whose median wall time is the base of every ratio.
PLAIN_REPLAYS = 3
#: Timeouts drained by the kernel-floor microbenchmark.
FLOOR_EVENTS = 100_000


def kernel_floor_events_per_s() -> float:
    """Events/s of the bare event loop: the ceiling for the full stack.

    The timeout drain of ``benchmarks/test_bench_hotpath.py`` (which is
    outside this benchmark's ``paths``), re-implemented here.
    """
    env = Environment()

    def waiter(delay):
        yield env.timeout(delay)

    for i in range(FLOOR_EVENTS):
        env.process(waiter((i % 100) / 10.0))
    started = time.perf_counter()
    env.run()
    return env.steps / (time.perf_counter() - started)


def _untraced_fields(result) -> dict:
    """``to_dict`` without the keys only a ``trace_requests`` run fills."""
    record = result.to_dict()
    for key in ("tier_breakdown", "spans_scrubbed"):
        record.pop(key, None)
    return record


def _unit(name: str) -> str:
    """Units follow from the metric's suffix, so they cannot drift."""
    for suffix, unit in (
        ("_share", "ratio"),
        ("_ratio", "ratio"),
        ("_gap", "ratio"),
        ("speedup", "ratio"),
        ("merge_exact", "bool"),
        ("calls_per_page", "calls"),
        ("_per_page", "count"),
        ("_per_s", "1/s"),
        ("_wall_s", "s"),
        ("_ms_per_op", "ms"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def run_traced(name: str, seed: int, duration: Optional[float]) -> Dict[str, object]:
    """Measure every per-layer metric of one workload."""
    (episode,) = build_episodes(name, seed, duration, count=1)
    replay(episode)  # warm-up, discarded: memo fill
    plain = [replay(episode) for _ in range(PLAIN_REPLAYS)]
    wall = statistics.median(r.wall_seconds for r in plain)
    result = plain[0]
    pages = result.page_views
    digest = sim_digest(result)

    rss_before = peak_rss_mb()
    spans = replay(episode, trace_requests=True)
    rss_after = peak_rss_mb()

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = replay(episode)
    finally:
        profiler.disable()
    stats = profiler.getstats()
    metrics = roll_up(stats, pages)

    sharded = ShardedSimulationRunner(
        episode.spec,
        episode.catalog,
        episode.users,
        episode.trace,
        n_shards=2,
        workers=2,
    ).run()
    merge_exact = (
        sharded.page_views == result.page_views
        and sharded.plt.count == result.plt.count
        and sharded.delta_violations == result.delta_violations
    )

    served = sum(result.served_by_layer.values())
    by_layer = result.served_by_layer.get
    edge = served - by_layer("origin", 0) - by_layer("browser", 0) - by_layer("sw", 0)
    gdpr_ops = result.erasures + result.accesses
    floor = kernel_floor_events_per_s()
    metrics.update(
        {
            # Exact once the warm-up has filled the memos: the number a
            # small effect is claimed on when wall time is too noisy.
            "total.calls_per_page": sum(e.callcount for e in stats) / pages,
            "sim.kernel_events_per_page": result.kernel_events / pages,
            "sim.kernel_events_per_s": result.kernel_events / wall,
            "sim.kernel_floor_events_per_s": floor,
            "sim.stack_to_kernel_gap": floor * wall / result.kernel_events,
            "origin.requests_per_page": result.origin_requests / pages,
            "cdn.edge_serve_share": edge / served,
            "speedkit.sw_serve_share": by_layer("sw", 0) / served,
            "browser.cache_serve_share": by_layer("browser", 0) / served,
            "speedkit.sketch_fetches_per_page": result.sketch_fetches / pages,
            "coherence.reads_checked_per_page": result.reads_checked / pages,
            "faults.failed_responses": result.failed_responses,
            "overload.shed_share": result.shed_ratio(),
            "txn.txns": result.txns,
            "txn.degraded_share": (
                result.txn_degraded / result.txns if result.txns else 0.0
            ),
            "gdpr.ops": gdpr_ops,
            # Inclusive of the tier walks an erase or access triggers,
            # scaled from the profile's share to untraced host time.
            "gdpr.host_ms_per_op": (
                metrics["gdpr.entry_cum_share"] * wall * 1e3 / gdpr_ops
                if gdpr_ops
                else 0.0
            ),
            "trace.profile_overhead_ratio": profiled.wall_seconds / wall,
            "obs.trace_requests_overhead_ratio": spans.wall_seconds / wall,
            "obs.trace_requests_rss_ratio": rss_after / rss_before,
            "obs.spans_per_page": len(spans.trace_records or ()) / pages,
            "parallel.sharded_wall_s": sharded.wall_seconds,
            "parallel.speedup": wall / sharded.wall_seconds,
            "parallel.merge_exact": float(merge_exact),
        }
    )

    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    checks = {
        "observed_replays_share_one_digest": all(
            sim_digest(r) == digest for r in (*plain, profiled)
        ),
        "trace_requests_leaves_outputs_identical": (
            _untraced_fields(spans) == _untraced_fields(result)
        ),
        "self_shares_sum_to_one": abs(shares - 1.0) < 1e-3,
        "sharded_merge_reproduces_serial": merge_exact,
    }
    return {
        "correct": all(checks.values()),
        "attempted": responses(result),
        "failed": violations(result),
        "metrics": {
            key: {"value": value, "unit": _unit(key)} for key, value in metrics.items()
        },
        "checks": checks,
        "info": {
            "sim_digest": digest,
            "page_views": pages,
            "untraced_wall_s": wall,
        },
    }
