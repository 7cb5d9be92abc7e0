"""E5 — Invalidation latency: write → sketch and write → purge.

Reproduces the real-time change-detection figure: the distribution of
delays between a database write and (a) the key appearing in the server
Cache Sketch and (b) the CDN purge completing, plus the throughput of
the InvaliDB-style query matcher the origin resolves every write with.
"""

import random

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table
from repro.origin import Document, Eq, Query, QueryMatcher
from repro.origin.store import ChangeEvent

from benchmarks.conftest import emit


@pytest.fixture(scope="module")
def speed_kit(run_cached):
    return run_cached(ScenarioSpec(scenario=Scenario.SPEED_KIT))


def test_bench_e5_invalidation_latency(speed_kit, benchmark):
    metrics = speed_kit.metrics
    sketch_lat = metrics.histogram("invalidation.sketch_latency")
    purge_lat = metrics.histogram("invalidation.purge_latency")
    assert len(sketch_lat) > 0, "the workload produced no invalidations"
    rows = []
    for name, hist in (("sketch", sketch_lat), ("purge", purge_lat)):
        summary = hist.summary()
        rows.append(
            {
                "stage": name,
                "count": summary["count"],
                "p50_ms": round(summary["p50"] * 1000, 2),
                "p95_ms": round(summary["p95"] * 1000, 2),
                "max_ms": round(summary["max"] * 1000, 2),
            }
        )
    emit(
        "e5_invalidation",
        format_table(rows, title="E5: write-to-invalidation latency"),
    )
    # Configured pipeline latencies: 25 ms detection, 80 ms purge.
    assert sketch_lat.percentile(50) == pytest.approx(0.025, abs=0.005)
    assert purge_lat.percentile(50) == pytest.approx(0.080, abs=0.010)
    assert sketch_lat.max() < purge_lat.max() + 1e-9

    benchmark.pedantic(
        lambda: (sketch_lat.summary(), purge_lat.summary()),
        rounds=5,
        iterations=10,
    )


def test_bench_e5_matcher_throughput(benchmark):
    matcher = QueryMatcher()
    rng = random.Random(0)
    categories = [f"cat-{i}" for i in range(50)]
    for i, category in enumerate(categories):
        matcher.subscribe(
            f"shop.example/category/{category}",
            Query("products", Eq("category", category)),
        )

    def make_event(i):
        doc = Document(
            collection="products",
            doc_id=f"p{i}",
            data={"category": rng.choice(categories), "price": i},
            version=1,
            updated_at=0.0,
        )
        return ChangeEvent(
            collection="products",
            doc_id=doc.doc_id,
            before=None,
            after=doc,
            at=0.0,
        )

    events = [make_event(i) for i in range(500)]

    def kernel():
        return sum(
            len(matcher.affected_resources(event)) for event in events
        )

    matched = benchmark(kernel)
    # Every insert matches exactly its category's subscription.
    assert matched == 500
