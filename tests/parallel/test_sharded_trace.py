"""A sharded run's span export is one trace.

Every shard's tracer numbers its traces and spans from 1. The merge
shifts each later shard's ids past the ones already used, so the
merged export can be analysed like a serial one: ids are unique, a
span's parent is a span of its own trace, and the offline analyses
over the dump agree with the merged result.
"""

import pytest

from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.obs import (
    merge_span_records,
    pageview_attributions,
    reads_from_trace,
    tier_breakdown,
)
from repro.parallel import ShardedSimulationRunner, run_shard


def _runner(workload, n_shards):
    catalog, users, trace = workload
    spec = ScenarioSpec(
        scenario=Scenario.SPEED_KIT, delta=60.0, trace_requests=True
    )
    return ShardedSimulationRunner(
        spec, catalog, users, trace, n_shards=n_shards, workers=1
    )


@pytest.fixture(scope="module", params=(2, 3))
def sharded(request, workload):
    runner = _runner(workload, request.param)
    return runner.run(), run_shard(runner.tasks()[0])


def _one_trace(result):
    """The merged records, once their span ids are shown unique: the
    offline analyses blow up over colliding ids (a span adopts every
    namesake's children), so no test may reach them with any."""
    records = result.trace_records
    assert len({record["span"] for record in records}) == len(records)
    return records


def test_span_ids_are_unique_and_parents_stay_in_their_trace(sharded):
    records = _one_trace(sharded[0])
    trace_of = {record["span"]: record["trace"] for record in records}
    orphans = [
        record
        for record in records
        if record["parent"] is not None
        and trace_of.get(record["parent"]) != record["trace"]
    ]
    assert not orphans
    roots = [record for record in records if record["parent"] is None]
    assert len({record["trace"] for record in roots}) == len(roots)


def test_the_first_shard_passes_through_and_nothing_is_lost(sharded):
    merged, first = sharded
    records = _one_trace(merged)
    assert records[: len(first.trace_records)] == first.trace_records
    assert len(records) > len(first.trace_records)
    assert len(pageview_attributions(records)) == merged.page_views


def test_the_dump_alone_reproduces_the_merged_result(sharded):
    merged = sharded[0]
    records = _one_trace(merged)
    assert tier_breakdown(records) == pytest.approx(merged.tier_breakdown)
    assert len(reads_from_trace(records)) == merged.reads_checked


def test_renumbering_shifts_by_the_ids_already_used():
    def span(trace, span, parent):
        return {"trace": trace, "span": span, "parent": parent, "name": "x"}

    first = [span(1, 1, None), span(2, 2, None), span(1, 3, 1)]
    second = [span(1, 1, None), span(1, 2, 1)]
    merged = merge_span_records([first, [], second, second])
    assert merged[:3] == first and merged[0] is first[0]
    assert merged[3:5] == [span(3, 4, None), span(3, 5, 4)]
    assert merged[5:] == [span(4, 6, None), span(4, 7, 6)]
    assert second == [span(1, 1, None), span(1, 2, 1)]  # shards untouched
