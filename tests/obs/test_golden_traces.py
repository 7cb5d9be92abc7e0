"""Golden-trace regression tests.

A fixed-seed workload is replayed with tracing on and the exported
span records are compared against committed goldens: hop sequence,
parent links, nodes, tiers, cache verdicts, versions, and event names
must match exactly; timings within a tolerance.  Refresh with::

    pytest tests/obs/test_golden_traces.py --update-goldens
"""

import random
from pathlib import Path

import pytest

from repro.obs import dump_jsonl, load_jsonl

from tests.obs.conftest import TRACE_PROFILES, traced_runner
from tests.obs.golden import diff_traces, normalize_for_golden

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.mark.parametrize("profile", TRACE_PROFILES)
def test_trace_matches_golden(profile, request):
    runner = traced_runner(profile)
    records = normalize_for_golden(runner.result.trace_records)
    path = GOLDEN_DIR / f"speed-kit-{profile}.jsonl"
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        dump_jsonl(records, path)
        pytest.skip(f"updated golden {path.name}")
    assert path.exists(), (
        f"missing golden {path}; generate it with --update-goldens"
    )
    golden = load_jsonl(path)
    problems = diff_traces(records, golden, tolerance=1e-4)
    assert problems == [], "trace deviates from golden:\n" + "\n".join(
        problems
    )


@pytest.mark.parametrize("profile", TRACE_PROFILES)
def test_trace_is_deterministic_per_seed(profile):
    """Two replays of the same seed produce identical span records."""
    first = traced_runner(profile).result.trace_records
    from tests.obs.conftest import SimulationRunner, small_workload, spec_for

    catalog, users, trace = small_workload()
    rerun = SimulationRunner(spec_for(profile), catalog, users, trace)
    rerun.run()
    assert rerun.result.trace_records == first


def test_golden_covers_the_full_request_path():
    """The committed trace exercises every instrumented hop type."""
    runner = traced_runner("none")
    names = {record["name"] for record in runner.result.trace_records}
    for expected in (
        "pageview",
        "request",
        "sw",
        "sketch-fetch",
        "transport",
        "edge",
        "origin",
        "invalidation",
        "purge",
    ):
        assert expected in names, f"no {expected!r} span recorded"


def test_chaos_trace_records_fault_events():
    runner = traced_runner("chaos")
    events = {
        event["name"]
        for record in runner.result.trace_records
        for event in record.get("events", ())
    }
    assert events & {
        "retry",
        "lost-request",
        "lost-response",
        "breaker-open",
        "edge-down",
    }, f"no fault events in chaos trace: {sorted(events)}"


def test_verdicts_and_versions_are_recorded():
    runner = traced_runner("none")
    verdicts = {
        record["attrs"].get("verdict")
        for record in runner.result.trace_records
        if record["name"] == "sw"
    }
    assert "hit" in verdicts
    assert verdicts & {"fetch", "revalidate"}
    versions = [
        record["attrs"].get("version")
        for record in runner.result.trace_records
        if record["name"] == "edge"
        and record["attrs"].get("verdict") == "fill"
    ]
    assert versions and all(v is not None for v in versions)


class TestForestComparison:
    """``diff_traces`` compares forests: the order spans were recorded
    in and the ids they were given do not count; the tree, every
    attribute and every span do."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_jsonl(GOLDEN_DIR / "speed-kit-none.jsonl")

    @staticmethod
    def renumbered(records, seed):
        """``records`` shuffled, their span and trace ids permuted."""
        rng = random.Random(seed)
        spans = [record["span"] for record in records]
        traces = sorted({record["trace"] for record in records})
        span_of = dict(zip(spans, rng.sample(spans, len(spans))))
        trace_of = dict(zip(traces, rng.sample(traces, len(traces))))
        out = [
            {
                **record,
                "span": span_of[record["span"]],
                "parent": span_of.get(record["parent"]),
                "trace": trace_of[record["trace"]],
            }
            for record in records
        ]
        rng.shuffle(out)
        return out

    def test_shuffled_siblings_and_renumbered_ids_match(self, golden):
        assert len(golden) > 500
        for seed in range(3):
            assert diff_traces(self.renumbered(golden, seed), golden) == []

    def test_an_edited_attribute_fails(self, golden):
        edited = [dict(record) for record in golden]
        index = next(
            i for i, record in enumerate(edited) if record["name"] == "sw"
        )
        attrs = dict(edited[index]["attrs"])
        attrs["verdict"] = "edited"
        edited[index]["attrs"] = attrs
        assert diff_traces(self.renumbered(edited, 0), golden)

    def test_a_reparented_span_fails(self, golden):
        pageviews = [r["span"] for r in golden if r["name"] == "pageview"]
        moved = [dict(record) for record in golden]
        request = next(
            record
            for record in moved
            if record["name"] == "request" and record["parent"] == pageviews[0]
        )
        request["parent"] = pageviews[1]
        assert diff_traces(self.renumbered(moved, 0), golden)

    def test_a_dropped_span_fails(self, golden):
        parents = {record["parent"] for record in golden}
        leaf = next(r for r in golden if r["span"] not in parents)
        dropped = [record for record in golden if record is not leaf]
        assert diff_traces(self.renumbered(dropped, 0), golden)
