"""E17 — Storage engines: polyglot backend choice across the stack.

Replays the standard Speed Kit workload with each registered storage
engine behind every cache tier and the origin store, and compares hit
ratio, page load times, invalidation latency, and origin load. The
local engines (classic in-memory, hash-sharded) must be behaviourally
identical — sharding changes placement, not cacheability — while the
simulated remote KV engine pays a per-operation latency that must show
up in page load times and purge completion.
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table
from repro.storage import BackendSpec

from benchmarks.conftest import emit

ENGINES = {
    "inmemory": BackendSpec(kind="inmemory"),
    "sharded": BackendSpec(kind="sharded", n_shards=8),
    "remote": BackendSpec(kind="remote", seed=1),
}


@pytest.fixture(scope="module")
def results(run_cached):
    return {
        name: run_cached(
            ScenarioSpec(scenario=Scenario.SPEED_KIT, backend=spec)
        )
        for name, spec in ENGINES.items()
    }


def test_bench_e17_backend_comparison(results, benchmark):
    rows = []
    for name, result in results.items():
        purge = result.metrics.histogram("invalidation.purge_latency")
        rows.append(
            {
                "backend": name,
                "hit_ratio": round(result.cache_hit_ratio(), 3),
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
                "plt_p95_ms": round(result.plt.percentile(95) * 1000, 1),
                "purge_p50_ms": round(purge.percentile(50) * 1000, 2),
                "origin_reqs": result.origin_requests,
                "violations": result.delta_violations,
            }
        )
    emit(
        "e17_backends",
        format_table(rows, title="E17: storage-engine comparison"),
    )

    inmemory, sharded, remote = (
        results["inmemory"],
        results["sharded"],
        results["remote"],
    )
    # Local engines: identical caching behaviour, only placement moves.
    assert sharded.cache_hit_ratio() == pytest.approx(
        inmemory.cache_hit_ratio()
    )
    assert sharded.origin_requests == inmemory.origin_requests
    # The remote engine charges per-operation cost: slower pages and
    # purges, but the *same* cacheability (hit ratios stay close).
    assert remote.plt.percentile(50) >= inmemory.plt.percentile(50)
    remote_purge = remote.metrics.histogram("invalidation.purge_latency")
    local_purge = inmemory.metrics.histogram("invalidation.purge_latency")
    assert remote_purge.percentile(50) > local_purge.percentile(50)
    assert remote.cache_hit_ratio() == pytest.approx(
        inmemory.cache_hit_ratio(), abs=0.05
    )
    # The Δ guarantee is engine-independent.
    for result in results.values():
        assert result.delta_violations == 0

    benchmark.pedantic(
        lambda: [r.cache_hit_ratio() for r in results.values()],
        rounds=5,
        iterations=10,
    )

