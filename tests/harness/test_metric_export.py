"""A component's metric handles leave no trace in the export.

Components count through handles the registry creates at first use
(``MetricRegistry.counters`` and its siblings), so a metric exists from
its first count or observation, never earlier. The registry's export
must therefore be exactly what counting by name produced: on each of
the four perf compositions, a short untraced replay at seed 0 yields
the counter and gauge names (in creation order) and values, and the
histogram and series names (in creation order) and observation counts,
committed in ``fixtures/metric_export.json``. The fixture was written
by the by-name counting the handles replaced.

A mutant worker that creates its ``speedkit.*`` counters at
construction — a handle made too early — trips the gate.

Regenerate the fixture (only when a change is *meant* to move the
export) with ``PYTHONPATH=src python -m tests.harness.test_metric_export``.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.perf.workloads import WORKLOADS
from repro.harness import SimulationRunner
from repro.speedkit.worker import ServiceWorkerProxy
from repro.workload import (
    UserPopulationConfig,
    CatalogConfig,
    WorkloadGenerator,
    WorldSpec,
)

FIXTURE = Path(__file__).parent / "fixtures" / "metric_export.json"

#: Seconds of trace per composition: short, and still every path.
DURATION = 60.0

#: The speedkit counters the mutant creates up front.
WORKER_COUNTERS = (
    "user_block",
    "accelerated",
    "pass_through",
    "scrubbed",
    "served_from_cache",
    "revalidations",
    "fetches",
)


def export_of(registry):
    """The registry's export as rows: kind, name, value or count, each
    kind in creation order."""
    return (
        [["counter", name, c.value] for name, c in registry._counters.items()]
        + [["gauge", name, g.value] for name, g in registry._gauges.items()]
        + [["histogram", name, len(h)] for name, h in registry._histograms.items()]
        + [["series", name, len(s)] for name, s in registry._series.items()]
    )


def replay(name, seed=0):
    """The registry of a ``DURATION``-second untraced replay of the perf
    composition ``name``."""
    workload = WORKLOADS[name]
    world = WorldSpec(
        catalog=CatalogConfig(n_products=60),
        users=UserPopulationConfig(n_users=workload.n_users, consent_fraction=1.0),
        seed=seed,
        catalog_seed=seed,
        users_seed=seed + 1,
    )
    catalog, users = world.build()
    trace = WorkloadGenerator(
        catalog, users, replace(workload.traffic, duration=DURATION)
    ).generate(random.Random(seed + 2))
    runner = SimulationRunner(replace(workload.spec, seed=seed), catalog, users, trace)
    runner.run()
    assert not runner.tracer.enabled
    return runner.metrics


def committed():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_export_is_what_counting_by_name_produced(name):
    assert export_of(replay(name)) == committed()[name]


def test_the_export_gate_trips_on_counters_made_at_construction(monkeypatch):
    """The mutant: every worker creates its ``speedkit.*`` counters
    when it is built, before anything is counted."""
    built = ServiceWorkerProxy.__init__

    def eager(self, *args, **kwargs):
        built(self, *args, **kwargs)
        for which in WORKER_COUNTERS:
            self.metrics.counter(f"speedkit.{which}")

    monkeypatch.setattr(ServiceWorkerProxy, "__init__", eager)
    assert export_of(replay("hit-path")) != committed()["hit-path"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {name: export_of(replay(name)) for name in sorted(WORKLOADS)}, indent=0
        )
        + "\n",
        encoding="utf-8",
    )
