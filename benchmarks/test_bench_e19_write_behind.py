"""E19 — Write-behind drains and async PoP replication.

Compares three Speed Kit deployments at **identical per-operation
storage medians** on a three-region (three-PoP) topology:

* **synchronous** — the batched engine: every purge's removals complete
  at the drain point, so the invalidation pipeline waits for the write
  round trips of the slowest PoP;
* **write-behind** — mutations acknowledge immediately from the local
  buffer and a background flusher drains them, so the pipeline's purge
  acknowledgement no longer carries the storage write cost (it moves to
  the engines' ``background_latency`` diagnostic);
* **write-behind + replication** — additionally, PoPs asynchronously
  replicate admitted entries to their siblings, pre-warming the other
  regions without origin round trips.

The deal both asynchronous mechanisms offer is *bounded* extra
staleness for lower foreground latency: the runner widens the checked
Δ bound by ``flush_interval`` and the PoP replication delay respectively,
and the Δ-atomicity checker must still report **zero violations** —
the same invariant `tests/coherence/test_staleness_invariants.py`
property-checks across randomized schedules.
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table
from repro.storage import BackendSpec

from benchmarks.conftest import emit

#: Identical latency medians: only the acknowledgement discipline and
#: the replication setting differ.
N_REGIONS = 3
CONFIGS = {
    "synchronous": dict(backend=BackendSpec(kind="batched", seed=1)),
    "write-behind": dict(backend=BackendSpec(kind="write-behind", seed=1)),
    "write-behind+repl": dict(
        backend=BackendSpec(kind="write-behind", seed=1),
        replicate_pops=True,
    ),
}


@pytest.fixture(scope="module")
def results(run_cached):
    return {
        name: run_cached(
            ScenarioSpec(
                scenario=Scenario.SPEED_KIT,
                n_regions=N_REGIONS,
                **kwargs,
            )
        )
        for name, kwargs in CONFIGS.items()
    }


def test_bench_e19_write_behind(results, benchmark):
    rows = []
    for name, result in results.items():
        purge = result.metrics.histogram("invalidation.purge_latency")
        rows.append(
            {
                "config": name,
                "ack_p50_ms": round(purge.percentile(50) * 1000, 2),
                "ack_p95_ms": round(purge.percentile(95) * 1000, 2),
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
                "hit_ratio": round(result.cache_hit_ratio(), 3),
                "origin_reqs": result.origin_requests,
                "replicas": int(
                    result.metrics.counter("replication.applied").value
                ),
                "max_staleness_s": round(result.max_staleness, 3),
                "violations": result.delta_violations,
            }
        )
    emit(
        "e19_write_behind",
        format_table(
            rows,
            title="E19: synchronous vs write-behind vs write-behind+"
            f"replication ({N_REGIONS} regions, equal medians)",
        ),
    )

    sync = results["synchronous"]
    wb = results["write-behind"]
    repl = results["write-behind+repl"]

    # Acknowledgement latency: the write-behind purge acks before the
    # storage writes drain, so its completion must be strictly faster
    # at equal medians — p50 and p95 both.
    sync_purge = sync.metrics.histogram("invalidation.purge_latency")
    wb_purge = wb.metrics.histogram("invalidation.purge_latency")
    assert wb_purge.percentile(50) < sync_purge.percentile(50)
    assert wb_purge.percentile(95) < sync_purge.percentile(95)

    # Replication pre-warms sibling regions: fewer origin round trips
    # than the same deployment without it, at a comparable hit ratio.
    assert (
        repl.metrics.counter("replication.sent").value > 0
        and repl.metrics.counter("replication.applied").value > 0
    )
    assert repl.origin_requests < wb.origin_requests
    assert (
        wb.metrics.counter("replication.applied").value == 0
    )  # only the replicated config replicates

    # Cacheability is discipline-independent: write-behind changes when
    # writes land, never what is cached.
    assert wb.cache_hit_ratio() == pytest.approx(
        sync.cache_hit_ratio(), abs=0.02
    )
    # PLT must not regress: acks were already off the page-load path.
    assert wb.plt.percentile(50) <= sync.plt.percentile(50) * 1.05

    # The invariant both mechanisms are sold on: bounded staleness,
    # zero Δ violations under the widened bound.
    for result in results.values():
        assert result.delta_violations == 0

    benchmark.pedantic(
        lambda: [results[name].cache_hit_ratio() for name in CONFIGS],
        rounds=5,
        iterations=10,
    )
