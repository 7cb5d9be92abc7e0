"""The degraded-response contract, one test per rule, every reason.

Each test takes an ordinary origin answer — a cacheable ``200`` with an
``ETag``, a version and a version key — builds its variant marked with
one :class:`Degraded` reason (``mark`` returns a new response; the
answer it was made from stays unmarked), and drives that through the
one place that enforces the rule: cache admission, the CDN transport's
validator handling, the runner's response classification, and the span
attributes.
"""

import itertools
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.browser.cache import BrowserCache
from repro.harness import RunResult, Scenario, ScenarioSpec, SimulationRunner
from repro.http import (
    URL,
    Degraded,
    Headers,
    Request,
    Status,
    mark,
    reason_of,
)
from repro.http.freshness import is_cacheable
from repro.obs.analysis import response_attrs
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    generate_catalog,
    generate_users,
)
from repro.workload.trace import PageView, WorkloadTrace

#: An unmarked answer, to show each test can tell the difference.
EVERY_CASE = pytest.mark.parametrize(
    "reason", [None, *Degraded], ids=lambda r: r.name if r else "unmarked"
)

#: The default spec's one PoP, and the first generated user.
EDGE = "edge-1"
CLIENT = "u0"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture
def runner():
    """A built Speed Kit stack with nothing replayed through it."""
    catalog = generate_catalog(CatalogConfig(n_products=5), random.Random(0))
    users = generate_users(UserPopulationConfig(n_users=2), random.Random(1))
    # One (never dispatched) page view puts its user on the topology.
    trace = WorkloadTrace([PageView(at=0.0, user_id=CLIENT, page_kind="home")])
    runner = SimulationRunner(
        ScenarioSpec(Scenario.SPEED_KIT), catalog, users, trace
    )
    runner._build()
    return runner


def answer(runner, reason, index=0):
    """The origin's answer to a product read, marked for ``reason``."""
    product_id = runner.catalog.products[index].product_id
    request = Request.get(URL.parse(f"/api/products/{product_id}"))
    response = runner.server.handle(request, runner.env.now)
    assert response.status == Status.OK and response.etag is not None
    assert response.version is not None
    assert is_cacheable(response, shared=True)
    if reason is not None:
        response = mark(response, reason)
    return request, response


@EVERY_CASE
def test_mark_round_trips(runner, reason):
    _, plain = answer(runner, None)
    before = dict(plain.headers.items())
    _, response = answer(runner, reason)
    assert reason_of(response) is reason
    if reason is not None:
        assert response.headers[reason.header] == "1"
        marked = mark(plain, reason, "why")
        assert marked is not plain and marked.headers is not plain.headers
        assert marked.headers[reason.header] == "why"
        assert reason_of(marked) is reason
        # Everything but the mark is the answer it was made from.
        assert replace(marked, headers=plain.headers) == plain
        assert marked.body is plain.body and marked.etag == plain.etag
    # ``mark`` leaves its argument alone.
    assert reason_of(plain) is None
    assert dict(plain.headers.items()) == before


def test_most_restrictive_mark_wins(runner):
    _, plain = answer(runner, None)
    # Every pair, in both orders of marking.
    for stronger, weaker in itertools.combinations(Degraded, 2):
        one = mark(plain, weaker)
        both = mark(one, stronger)
        assert reason_of(one) is weaker  # the argument stays as it was
        assert reason_of(both) is stronger
        assert reason_of(mark(mark(plain, stronger), weaker)) is stronger
    assert reason_of(plain) is None


def _four_probes(response):
    """The reference ``reason_of`` is checked against: a membership
    probe of the header map per reason, asked after the fact (the
    response itself reads its reason once, when it is built)."""
    for reason in Degraded:
        if reason.header in response.headers:
            return reason
    return None


@pytest.mark.parametrize(
    "spell",
    [str, str.lower, str.upper, str.swapcase],
    ids=["declared", "lower", "upper", "swapcase"],
)
@pytest.mark.parametrize(
    "marks",
    [
        subset
        for size in range(len(Degraded) + 1)
        for subset in itertools.combinations(Degraded, size)
    ],
    ids=lambda marks: "+".join(r.name for r in marks) or "unmarked",
)
def test_reason_of_equals_the_four_probe_loop(runner, marks, spell):
    _, plain = answer(runner, None)
    headers = dict(plain.headers.items())
    for reason in reversed(marks):
        headers[spell(reason.header)] = "1"
    response = replace(plain, headers=Headers(headers))
    assert reason_of(response) is _four_probes(response)
    assert reason_of(response) is (marks[0] if marks else None)


@EVERY_CASE
def test_never_cached_in_any_tier(runner, reason):
    request, response = answer(runner, reason)
    edge = runner.cdn.pop(EDGE)
    browser = BrowserCache("browser:test")
    for cache in (edge, browser):
        forwarded = cache.admit(request, response, now=0.0)
        assert reason_of(forwarded) is reason  # the mark travels on
        stored = cache.serve(request, now=1.0)
        assert (stored is None) == (reason is not None)


def _stored_at_edge(runner, reason, index=0):
    """Plant a marked copy in the PoP (behind ``admit``'s back) and
    return a conditional request whose validator matches it."""
    request, response = answer(runner, reason, index)
    runner.cdn.pop(EDGE).store.put(request.url.cache_key, response, runner.env.now)
    return request.with_header("If-None-Match", response.etag)


def _drive(runner, generator):
    process = runner.env.process(generator)
    runner.env.run()
    return process.value


@EVERY_CASE
def test_never_304_converted_single_fetch(runner, reason):
    conditional = _stored_at_edge(runner, reason)
    response = _drive(
        runner,
        runner.transport.fetch_via_cdn(
            CLIENT, conditional, runner.cdn
        ),
    )
    if reason is None:
        assert response.status == Status.NOT_MODIFIED
    else:
        assert response.status == Status.OK
        assert reason_of(response) is reason


@EVERY_CASE
def test_never_304_converted_batched_wave(runner, reason):
    marked = _stored_at_edge(runner, reason, index=0)
    plain = _stored_at_edge(runner, None, index=1)
    first, second = _drive(
        runner,
        runner.transport.fetch_many_via_cdn(
            CLIENT, [marked, plain], runner.cdn
        ),
    )
    assert second.status == Status.NOT_MODIFIED
    if reason is None:
        assert first.status == Status.NOT_MODIFIED
    else:
        assert first.status == Status.OK
        assert reason_of(first) is reason


@EVERY_CASE
def test_lands_in_the_ledger_its_columns_say(runner, reason):
    response = answer(runner, reason)[1].served("edge-1")
    runner._record_response(response, client="u")
    # The ledger restates the registry; nothing bumps it.
    result = RunResult.over("speed-kit", runner.metrics)
    served = reason is None or reason.served
    fallback = reason is not None and reason.fallback
    checked = reason is None or reason.checked
    assert result.served_by_layer == ({"edge": 1} if served else {})
    assert result.shed_responses == (0 if served else 1)
    assert result.served_degraded_by_layer == (
        {"edge": 1} if served and fallback else {}
    )
    assert runner.checker.read_count == (1 if checked else 0)
    hits = 1 if served and not fallback else 0
    assert result.cache_hit_ratio() == (hits if served else 0.0)
    # The serve counters are reached through handles resolved on first
    # use; exactly the ones this answer touches may exist.
    kind = response.headers["X-Resource-Kind"]
    expected = (
        {"serve.layer.edge", f"serve.kind.edge.{kind}"}
        if served
        else {"serve.shed.edge"}
    )
    if served and fallback:
        expected.add("serve.degraded.edge")
    snapshot = runner.metrics.snapshot()
    assert {name for name in snapshot if name.startswith("serve.")} == expected
    assert all(snapshot[name] == 1 for name in expected)


@EVERY_CASE
def test_span_attribute_is_exactly_the_declared_one(runner, reason):
    _, response = answer(runner, reason)
    plain = response_attrs(answer(runner, None)[1])
    expected = dict(plain)
    if reason is not None and reason.span_attr is not None:
        expected[reason.span_attr] = True
    assert response_attrs(response) == expected


def test_header_literals_are_spelled_in_one_module():
    literal = re.compile(
        '"X-(Stale-If-Error|Load-Shed|SpeedKit-Offline|Txn-Degraded)"'
    )
    spelled_in = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if literal.search(path.read_text(encoding="utf-8"))
    }
    assert spelled_in == {"http/degraded.py"}
