"""Golden traces and trace-derived verdicts for transactions.

Every rung of the consistency ladder gets a committed golden trace —
the ``txn`` span tree (reads, refetches, validation round trips) of a
fixed-seed replay must match byte-for-byte modulo timing tolerance.
Refresh with::

    pytest tests/obs/test_txn_traces.py --update-goldens

Beyond the goldens, the exported spans must be *sufficient*: a
consistency checker rebuilt purely from ``txns_from_trace`` output
reaches the same fractured-read / serialization / silent-downgrade
verdicts as the live one.
"""

import random
from pathlib import Path

import pytest

from repro.coherence.txn import TxnConsistencyChecker
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.obs import dump_jsonl, load_jsonl
from repro.obs.analysis import txns_from_trace
from repro.txn import ConsistencyLevel
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)

from tests.obs.golden import diff_traces, normalize_for_golden

pytestmark = pytest.mark.txn

GOLDEN_DIR = Path(__file__).parent / "goldens"

SEED = 5

LEVELS = ("delta", "snapshot", "serializable")

#: The traced regimes: each ladder rung fault-free (the goldens), plus
#: a chaotic serializable run exercising the degradation paths.
REGIMES = LEVELS + ("serializable-chaos",)

_RUNNERS = {}


def _txn_workload(seed=SEED):
    catalog = generate_catalog(
        CatalogConfig(n_products=15), random.Random(seed)
    )
    users = generate_users(
        UserPopulationConfig(n_users=6, consent_fraction=1.0),
        random.Random(seed + 1),
    )
    config = WorkloadConfig(
        duration=240.0,
        session_rate=0.06,
        mean_session_length=3.0,
        think_time_mean=6.0,
        write_rate=0.1,
        txn_mix=0.4,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )
    return catalog, users, trace


def _spec_for(regime, seed=SEED):
    kwargs = {}
    level = regime
    if regime == "serializable-chaos":
        from repro.faults import PROFILES, RetryPolicy

        level = "serializable"
        kwargs = dict(
            fault_profile=PROFILES["chaos"],
            stale_if_error=60.0,
            retry=RetryPolicy(),
        )
    return ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=30.0,
        seed=seed,
        trace_requests=True,
        consistency=level,
        **kwargs,
    )


def txn_traced_runner(regime, seed=SEED):
    """The (cached) live runner of one traced transaction replay."""
    cached = _RUNNERS.get((regime, seed))
    if cached is None:
        catalog, users, trace = _txn_workload(seed)
        cached = SimulationRunner(
            _spec_for(regime, seed), catalog, users, trace
        )
        cached.run()
        _RUNNERS[(regime, seed)] = cached
    return cached


@pytest.mark.parametrize("level", LEVELS)
def test_txn_trace_matches_golden(level, request):
    runner = txn_traced_runner(level)
    records = normalize_for_golden(runner.result.trace_records)
    path = GOLDEN_DIR / f"txn-{level}.jsonl"
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


@pytest.mark.parametrize("level", LEVELS)
def test_txn_trace_is_deterministic_per_seed(level):
    first = txn_traced_runner(level).result.trace_records
    catalog, users, trace = _txn_workload()
    rerun = SimulationRunner(_spec_for(level), catalog, users, trace)
    rerun.run()
    assert rerun.result.trace_records == first


@pytest.mark.parametrize("level", LEVELS)
def test_txn_spans_cover_the_protocol(level):
    """Each rung's trace shows the machinery that rung engages."""
    records = txn_traced_runner(level).result.trace_records
    names = {record["name"] for record in records}
    assert "txn" in names
    assert "txn-read" in names
    # Validation RPCs ride the direct origin exchange: they surface as
    # ``origin`` spans parented straight under the ``txn`` span (reads
    # and refetches interpose their own child spans).
    txn_spans = {
        record["span"] for record in records if record["name"] == "txn"
    }
    validations = [
        record
        for record in records
        if record["name"] == "origin"
        and record.get("parent") in txn_spans
    ]
    if level == "serializable":
        assert validations, "no validation RPC spans in the trace"
    else:
        assert validations == []


def test_txn_reads_parent_under_their_transaction():
    """Every txn-read / txn-refetch span links to a txn span."""
    records = txn_traced_runner("snapshot").result.trace_records
    txn_spans = {
        record["span"]
        for record in records
        if record["name"] == "txn"
    }
    children = [
        record
        for record in records
        if record["name"] in ("txn-read", "txn-refetch")
    ]
    assert children
    assert all(record["parent"] in txn_spans for record in children)


@pytest.mark.parametrize("regime", REGIMES)
def test_rebuilt_checker_matches_live_verdict(regime):
    """The exported spans are sufficient: a checker rebuilt purely
    from the trace reproduces the live fractured-read, serialization,
    and silent-downgrade verdicts."""
    runner = txn_traced_runner(regime)
    rebuilt = TxnConsistencyChecker(runner.server)
    for txn in txns_from_trace(runner.result.trace_records):
        rebuilt.record_txn(
            requested=ConsistencyLevel.parse(txn["requested"]),
            achieved=ConsistencyLevel.parse(txn["achieved"]),
            degraded=txn["degraded"],
            reads=txn["reads"],
            validated_at=txn["validated_at"],
            finished_at=txn["finished_at"],
            client=txn["client"],
        )
    assert rebuilt.txn_count == runner.result.txns > 0
    assert rebuilt.signature() == runner.txn_checker.signature()
    rebuilt.assert_txn_consistent()


def test_chaos_trace_shows_marked_degradations():
    """Faults degrade some transactions; the trace says so — the
    ``degraded`` attribute and the achieved level are exported, and
    no span shows an unmarked downgrade."""
    runner = txn_traced_runner("serializable-chaos")
    assert runner._faults.total_downtime("origin") > 0
    txns = txns_from_trace(runner.result.trace_records)
    for txn in txns:
        achieved = ConsistencyLevel.parse(txn["achieved"])
        requested = ConsistencyLevel.parse(txn["requested"])
        if achieved < requested:
            assert txn["degraded"]
    degraded_in_trace = sum(1 for txn in txns if txn["degraded"])
    assert degraded_in_trace == runner.result.txn_degraded


def test_trace_abort_accounting_matches_result():
    runner = txn_traced_runner("serializable")
    txns = txns_from_trace(runner.result.trace_records)
    assert sum(txn["aborts"] for txn in txns) == runner.result.txn_aborts
