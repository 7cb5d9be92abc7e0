"""Tests for trace serialization."""

import io
import json
import random

import pytest

from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    WorldSpec,
    dump_trace,
    generate_catalog,
    generate_users,
    load_trace,
)
from repro.workload.serialization import FORMAT_VERSION
from repro.workload.trace import CartAdd, PageView, ProductUpdate, WorkloadTrace


@pytest.fixture
def trace():
    catalog = generate_catalog(CatalogConfig(n_products=20), random.Random(0))
    users = generate_users(UserPopulationConfig(n_users=10), random.Random(1))
    config = WorkloadConfig(duration=600.0, write_rate=0.05, cart_add_prob=0.5)
    return WorkloadGenerator(catalog, users, config).generate(random.Random(2))


def round_trip(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    buffer.seek(0)
    return load_trace(buffer)


def test_round_trip_preserves_everything(trace):
    restored = round_trip(trace)
    assert restored.duration == trace.duration
    assert restored.events == trace.events


def test_round_trip_via_file(trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    dump_trace(trace, path)
    restored = load_trace(path)
    assert restored.events == trace.events


def test_a_loaded_trace_keeps_each_repeated_string_once(trace):
    """Ids, page kinds and targets repeat across events: loading
    interns them, so equal strings are one object."""
    restored = round_trip(trace)
    views = restored.page_views()
    assert len(views) > len({view.user_id for view in views}) > 1
    for field in ("user_id", "page_kind", "target"):
        first = {}
        for view in views:
            value = getattr(view, field)
            assert first.setdefault(value, value) is value, field


def test_events_per_user_counts_what_each_user_originates(trace):
    counts = trace.events_per_user()
    assert sorted(counts) == trace.users_seen()
    assert sum(counts.values()) == sum(
        not isinstance(event, ProductUpdate) for event in trace.events
    )


def test_each_event_kind_round_trips():
    trace = WorkloadTrace(duration=100.0)
    trace.events = [
        PageView(at=1.0, user_id="u1", page_kind="home", target=""),
        ProductUpdate(at=2.0, product_id="p1", changes=(("price", 9.5),)),
        CartAdd(at=3.0, user_id="u1", product_id="p1"),
    ]
    restored = round_trip(trace)
    assert isinstance(restored.events[0], PageView)
    assert isinstance(restored.events[1], ProductUpdate)
    assert restored.events[1].changes_dict == {"price": 9.5}
    assert isinstance(restored.events[2], CartAdd)


def test_empty_file_rejected():
    with pytest.raises(ValueError, match="empty"):
        load_trace(io.StringIO(""))


def test_wrong_format_rejected():
    buffer = io.StringIO(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(ValueError, match="not a repro trace"):
        load_trace(buffer)


def test_wrong_version_rejected():
    header = {"format": "repro-trace", "version": 999, "duration": 1.0}
    buffer = io.StringIO(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match="version"):
        load_trace(buffer)


def test_truncated_trace_rejected(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    lines = buffer.getvalue().splitlines()
    truncated = io.StringIO("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        load_trace(truncated)


def test_v2_header_embeds_world_and_round_trips(trace):
    world = WorldSpec(
        catalog=CatalogConfig(n_products=20),
        users=UserPopulationConfig(n_users=10),
        seed=7,
        catalog_seed=7,
        users_seed=8,
    )
    trace.world = world
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    buffer.seek(0)
    header = json.loads(buffer.readline())
    assert header["version"] == FORMAT_VERSION == 2
    assert header["world"]["seed"] == 7
    buffer.seek(0)
    restored = load_trace(buffer)
    assert restored.world == world
    assert restored.events == trace.events


def test_v1_trace_loads_with_no_world(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    lines = buffer.getvalue().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["version"] = 1
    header.pop("world", None)
    restored = load_trace(
        io.StringIO(json.dumps(header) + "\n" + "".join(lines[1:]))
    )
    assert restored.world is None
    assert restored.events == trace.events


def test_malformed_world_in_header_rejected(trace):
    header = {
        "format": "repro-trace",
        "version": 2,
        "duration": 1.0,
        "events": 0,
        "world": {"catalog": {}},
    }
    with pytest.raises(ValueError, match="malformed world spec"):
        load_trace(io.StringIO(json.dumps(header) + "\n"))


def test_atomic_write_leaves_target_intact_on_failure(trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    dump_trace(trace, path)
    original = path.read_bytes()

    class Unserializable:
        pass

    bad = WorkloadTrace(
        events=[Unserializable()], duration=1.0  # type: ignore[list-item]
    )
    with pytest.raises(TypeError):
        dump_trace(bad, path)
    assert path.read_bytes() == original  # target never clobbered
    leftovers = [p for p in tmp_path.iterdir() if p.name != "trace.jsonl"]
    assert leftovers == []  # temp file cleaned up


def test_malformed_header_reports_line_one():
    with pytest.raises(ValueError, match="line 1: malformed trace header"):
        load_trace(io.StringIO("{not json\n"))


def test_malformed_event_json_reports_line_number(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    lines = buffer.getvalue().splitlines(keepends=True)
    lines[3] = "{broken json\n"
    with pytest.raises(
        ValueError, match=r"line 4: malformed JSON in event record"
    ):
        load_trace(io.StringIO("".join(lines)))


def test_missing_field_reports_line_and_kind():
    header = {
        "format": "repro-trace",
        "version": 2,
        "duration": 10.0,
        "events": 1,
    }
    body = {"kind": "page_view", "at": 1.0, "user_id": "u1"}
    buffer = io.StringIO(
        json.dumps(header) + "\n" + json.dumps(body) + "\n"
    )
    with pytest.raises(
        ValueError,
        match=r"line 2: page_view record is missing field 'page_kind'",
    ):
        load_trace(buffer)


def test_truncation_reports_final_line(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    lines = buffer.getvalue().splitlines()
    truncated = io.StringIO("\n".join(lines[:-3]) + "\n")
    with pytest.raises(
        ValueError, match=rf"file ends at line {len(lines) - 3}"
    ):
        load_trace(truncated)


def test_unknown_event_kind_rejected():
    header = {
        "format": "repro-trace",
        "version": 1,
        "duration": 10.0,
        "events": 1,
    }
    body = {"kind": "mystery", "at": 1.0}
    buffer = io.StringIO(
        json.dumps(header) + "\n" + json.dumps(body) + "\n"
    )
    with pytest.raises(ValueError, match="unknown event kind"):
        load_trace(buffer)
