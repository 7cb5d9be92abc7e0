"""Tests for the trace-ingestion harness (importers, rescale, worlds)."""

import io
import json
import math
import random
from pathlib import Path

import pytest

from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadTrace,
    WorldSpec,
    amplify_trace,
    dump_trace,
    import_access_log,
    load_trace,
    rescale_trace,
    validate_trace_world,
)
from repro.workload.trace import (
    AccessUser,
    CartAdd,
    EraseUser,
    PageView,
    ProductUpdate,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"


@pytest.fixture
def world():
    return WorldSpec(
        catalog=CatalogConfig(n_products=20),
        users=UserPopulationConfig(n_users=10),
        seed=3,
        catalog_seed=3,
        users_seed=4,
    )


@pytest.fixture
def built(world):
    return world.build()


# -- WorldSpec ---------------------------------------------------------------


def test_world_spec_round_trips_through_dict(world):
    restored = WorldSpec.from_dict(
        json.loads(json.dumps(world.to_dict()))
    )
    assert restored == world
    catalog_a, users_a = world.build()
    catalog_b, users_b = restored.build()
    assert catalog_a.products == catalog_b.products
    assert users_a.users == users_b.users


def test_world_spec_build_is_deterministic(world):
    catalog_a, users_a = world.build()
    catalog_b, users_b = world.build()
    assert catalog_a.products == catalog_b.products
    assert users_a.users == users_b.users


def test_world_spec_rejects_malformed_dict():
    with pytest.raises(ValueError, match="malformed world spec"):
        WorldSpec.from_dict({"catalog": {}})


# -- importers ---------------------------------------------------------------


def test_import_csv_fixture_maps_every_kind(built):
    catalog, users = built
    trace = import_access_log(
        FIXTURES / "sample_access_log.csv", catalog, users
    )
    kinds = {type(event) for event in trace.events}
    assert {PageView, CartAdd, EraseUser, AccessUser} <= kinds
    page_kinds = {e.page_kind for e in trace.page_views()}
    assert page_kinds == {"home", "category", "product"}
    validate_trace_world(trace, catalog, users)


def test_import_is_deterministic(built):
    catalog, users = built
    one = import_access_log(
        FIXTURES / "sample_access_log.csv", catalog, users
    )
    two = import_access_log(
        FIXTURES / "sample_access_log.csv", catalog, users
    )
    assert one.events == two.events
    assert one.duration == two.duration


def test_import_jsonl_fixture_with_aliased_fields(built):
    catalog, users = built
    trace = import_access_log(
        FIXTURES / "sample_access_log.jsonl", catalog, users
    )
    assert len(trace) == 51
    assert trace.events[0].at == 0.0  # epoch stamps normalized to t=0
    validate_trace_world(trace, catalog, users)


def test_import_normalizes_t0_and_orders_events(built):
    catalog, users = built
    log = io.StringIO(
        "timestamp,client,url,method\n"
        "100.5,c1,/shoes,GET\n"
        "90.0,c2,/,GET\n"
    )
    trace = import_access_log(log, catalog, users)
    assert [event.at for event in trace.events] == [0.0, 10.5]
    assert trace.duration == 10.5


def test_import_same_client_maps_to_same_user(built):
    catalog, users = built
    log = io.StringIO(
        "timestamp,client,url,method\n"
        "1,alice,/,GET\n"
        "2,alice,/shoes,GET\n"
        "3,bob,/,GET\n"
    )
    trace = import_access_log(log, catalog, users)
    first, second, third = trace.events
    assert first.user_id == second.user_id
    assert {first.user_id, third.user_id} <= {
        user.user_id for user in users.users
    }


def test_import_same_url_maps_to_same_product(built):
    catalog, users = built
    log = io.StringIO(
        "timestamp,client,url,method\n"
        "1,a,/product/42,GET\n"
        "2,b,/product/42?utm=x,GET\n"
    )
    trace = import_access_log(log, catalog, users)
    assert trace.events[0].target == trace.events[1].target
    assert trace.events[0].page_kind == "product"


def test_import_headerless_csv(built):
    catalog, users = built
    trace = import_access_log(
        io.StringIO("5.0,c1,/shoes,GET\n"), catalog, users, fmt="csv"
    )
    assert trace.events[0].page_kind == "category"
    assert trace.events[0].target == "shoes"


def test_import_write_methods_become_cart_adds(built):
    catalog, users = built
    trace = import_access_log(
        io.StringIO("timestamp,client,url,method\n1,c,/product/7,PUT\n"),
        catalog,
        users,
    )
    (event,) = trace.events
    assert isinstance(event, CartAdd)
    assert event.product_id in {p.product_id for p in catalog.products}


def test_import_gdpr_paths(built):
    catalog, users = built
    log = io.StringIO(
        "timestamp,client,url,method\n"
        "1,c,/gdpr/access,GET\n"
        "2,c,/gdpr/erase,POST\n"
        "3,c,/anything,DELETE\n"
    )
    trace = import_access_log(log, catalog, users)
    assert isinstance(trace.events[0], AccessUser)
    assert isinstance(trace.events[1], EraseUser)
    assert isinstance(trace.events[2], EraseUser)


def test_import_rejects_unknown_method_with_line(built):
    catalog, users = built
    log = io.StringIO(
        "timestamp,client,url,method\n1,c,/,GET\n2,c,/,TRACE\n"
    )
    with pytest.raises(ValueError, match=r"line 3: unsupported method"):
        import_access_log(log, catalog, users)


def test_import_rejects_missing_field_with_line(built):
    catalog, users = built
    log = io.StringIO('{"ts": 1, "path": "/"}\n')
    with pytest.raises(ValueError, match=r"line 1: .*no 'client'"):
        import_access_log(log, catalog, users, fmt="jsonl")


def test_import_rejects_bad_timestamp_with_line(built):
    catalog, users = built
    log = io.StringIO(
        "timestamp,client,url,method\nyesterday,c,/,GET\n"
    )
    with pytest.raises(ValueError, match=r"line 2: unparseable timestamp"):
        import_access_log(log, catalog, users)


def test_import_empty_log_rejected(built):
    catalog, users = built
    with pytest.raises(ValueError, match="no events"):
        import_access_log(
            io.StringIO("timestamp,client,url,method\n"), catalog, users
        )


def test_import_stamps_world_provenance(built, world):
    catalog, users = built
    trace = import_access_log(
        FIXTURES / "sample_access_log.csv", catalog, users, world=world
    )
    assert trace.world is not None
    assert trace.world.source.startswith("imported:")
    rebuilt_catalog, rebuilt_users = trace.world.build()
    assert rebuilt_catalog.products == catalog.products
    assert rebuilt_users.users == users.users


def test_imported_trace_round_trips_as_v2(built, world, tmp_path):
    catalog, users = built
    trace = import_access_log(
        FIXTURES / "sample_access_log.csv", catalog, users, world=world
    )
    path = tmp_path / "imported.jsonl"
    dump_trace(trace, path)
    restored = load_trace(path)
    assert restored.events == trace.events
    assert restored.world == trace.world


# -- rescale_trace -----------------------------------------------------------


def test_rescale_divides_timestamps_and_duration(built, world):
    catalog, users = built
    trace = WorkloadTrace(
        events=[
            PageView(at=10.0, user_id="u1", page_kind="home", target=""),
            CartAdd(at=30.0, user_id="u1", product_id="p1"),
        ],
        duration=60.0,
        world=world,
    )
    scaled = rescale_trace(trace, 4.0)
    assert [event.at for event in scaled.events] == [2.5, 7.5]
    assert scaled.duration == 15.0
    assert scaled.world is trace.world
    # Identity-preserving: same kinds, same payloads.
    assert scaled.events[1].product_id == "p1"


def test_rescale_rate_one_is_identity():
    trace = WorkloadTrace(duration=1.0)
    assert rescale_trace(trace, 1.0) is trace


@pytest.mark.parametrize("rate", [0.0, -2.0, math.nan, math.inf])
def test_rescale_rejects_a_rate_that_is_not_positive_and_finite(rate):
    # NaN passed a ``rate <= 0`` guard and made every timestamp NaN;
    # inf moved every event to t = 0.
    trace = WorkloadTrace(
        events=[PageView(at=10.0, user_id="u1", page_kind="home", target="")],
        duration=60.0,
    )
    with pytest.raises(ValueError, match="replay rate must be positive"):
        rescale_trace(trace, rate)


@pytest.mark.parametrize("multiplier", [0.5, math.nan, math.inf])
def test_amplify_rejects_a_multiplier_that_is_not_finite_and_at_least_one(
    multiplier,
):
    # NaN and inf used to fail deep inside int() instead.
    trace = WorkloadTrace(
        events=[PageView(at=10.0, user_id="u1", page_kind="home", target="")],
        duration=60.0,
    )
    with pytest.raises(ValueError, match="load multiplier must be finite"):
        amplify_trace(trace, multiplier)


# -- validate_trace_world ----------------------------------------------------


def test_validate_accepts_matching_world(built):
    catalog, users = built
    config = WorkloadConfig(duration=300.0, session_rate=0.1)
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(5)
    )
    validate_trace_world(trace, catalog, users)  # does not raise


def test_validate_rejects_unknown_user(built):
    catalog, users = built
    trace = WorkloadTrace(
        events=[
            PageView(at=1.0, user_id="u999", page_kind="home", target="")
        ],
        duration=10.0,
    )
    with pytest.raises(ValueError, match=r"unknown user 'u999'") as err:
        validate_trace_world(trace, catalog, users)
    assert "re-record" in str(err.value)


def test_validate_blames_the_file_when_the_world_is_embedded(built, world):
    """A v2 trace replays in its own world, so re-recording cannot be
    the fix: a stranger in it means the file was edited."""
    catalog, users = built
    trace = WorkloadTrace(
        events=[EraseUser(at=1.0, user_id="hits"), AccessUser(at=2.0)],
        duration=10.0,
        world=world,
    )
    with pytest.raises(ValueError, match=r"unknown user 'hits'") as err:
        validate_trace_world(trace, catalog, users)
    assert "unknown user ''" in str(err.value)  # empty ids too
    assert "edited" in str(err.value)
    assert "re-record" not in str(err.value)


def test_validate_rejects_unknown_product_and_category(built):
    catalog, users = built
    trace = WorkloadTrace(
        events=[
            ProductUpdate(at=1.0, product_id="p999", changes=()),
            PageView(
                at=2.0, user_id="u0", page_kind="category", target="hats"
            ),
        ],
        duration=10.0,
    )
    with pytest.raises(ValueError) as err:
        validate_trace_world(trace, catalog, users)
    message = str(err.value)
    assert "unknown product 'p999'" in message
    assert "unknown category 'hats'" in message


def test_validate_caps_reported_mismatches(built):
    catalog, users = built
    trace = WorkloadTrace(
        events=[
            PageView(
                at=float(i), user_id=f"u{i + 100}", page_kind="home",
                target="",
            )
            for i in range(20)
        ],
        duration=30.0,
    )
    with pytest.raises(ValueError, match="suppressed"):
        validate_trace_world(trace, catalog, users)


# -- trace.validate fixes ----------------------------------------------------


def test_validate_allows_pre_t0_events():
    trace = WorkloadTrace(
        events=[
            PageView(at=-5.0, user_id="u0", page_kind="home", target=""),
            PageView(at=1.0, user_id="u0", page_kind="home", target=""),
        ],
        duration=10.0,
    )
    trace.validate()  # must not raise: no implicit t=0 floor


def test_validate_rejects_negative_duration():
    with pytest.raises(ValueError, match="negative duration"):
        WorkloadTrace(duration=-1.0).validate()


def test_validate_still_rejects_disorder():
    trace = WorkloadTrace(
        events=[
            PageView(at=5.0, user_id="u0", page_kind="home", target=""),
            PageView(at=4.0, user_id="u0", page_kind="home", target=""),
        ],
        duration=10.0,
    )
    with pytest.raises(ValueError, match="not time-ordered"):
        trace.validate()


# -- per-trace golden metrics ------------------------------------------------


def test_imported_fixture_replay_matches_golden(built, request):
    """Replay determinism lock: the committed sample log, replayed
    under a pinned scenario, must reproduce the committed metrics
    exactly (regenerate with --update-goldens)."""
    catalog, users = built
    trace = import_access_log(
        FIXTURES / "sample_access_log.csv", catalog, users
    )
    spec = ScenarioSpec(scenario=Scenario.SPEED_KIT, seed=3)
    result = SimulationRunner(spec, catalog, users, trace).run()
    metrics = {
        "events": len(trace),
        "page_views": result.page_views,
        "cache_hit_ratio": result.cache_hit_ratio(),
        "origin_requests": result.origin_requests,
        "reads_checked": result.reads_checked,
        "delta_violations": result.delta_violations,
        "erasures": result.erasures,
        "accesses": result.accesses,
        "plt_p50": result.plt.percentile(50),
    }
    path = GOLDENS / "sample_import_metrics.json"
    if request.config.getoption("--update-goldens"):
        path.write_text(json.dumps(metrics, indent=2) + "\n")
        pytest.skip(f"updated golden {path.name}")
    assert path.exists(), (
        f"missing golden {path}; generate it with --update-goldens"
    )
    golden = json.loads(path.read_text())
    assert metrics == golden
