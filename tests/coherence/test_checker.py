"""Tests for the Δ-atomicity checker."""

import pytest

from repro.coherence import DeltaAtomicityChecker, ReadRecord
from repro.http import Headers, Request, Response, Status, URL
from repro.origin import (
    OriginServer,
    ResourceKind,
    ResourceSpec,
    Site,
)


@pytest.fixture
def server():
    site = Site()
    site.add_route(
        ResourceSpec(
            name="page",
            pattern="/p/{id}",
            kind=ResourceKind.PAGE,
            doc_keys=lambda p: [f"docs/{p['id']}"],
        )
    )
    site.store.put("docs", "1", {"x": 1})
    server = OriginServer(site)
    # Render once so the resource is registered at t=0.
    server.handle(Request.get(URL.parse("/p/1")), now=0.0)
    return server


def response(version, url="/p/1"):
    return Response(
        status=Status.OK,
        headers=Headers({"Cache-Control": "max-age=60"}),
        url=URL.parse(url),
        version=version,
        generated_at=0.0,
    )


class TestChecker:
    def test_current_version_is_never_a_violation(self, server):
        checker = DeltaAtomicityChecker(server, delta=0.0)
        assert checker.record_read(response(1), read_at=5.0) == 0.0
        assert checker.violations == []
        assert checker.read_count == 1

    def test_stale_read_within_delta_is_allowed(self, server):
        checker = DeltaAtomicityChecker(server, delta=10.0)
        server.update("docs", "1", {"x": 2}, at=20.0)
        staleness = checker.record_read(response(1), read_at=25.0)
        assert staleness == pytest.approx(5.0)
        assert checker.violations == []
        assert checker.violation_count == 0

    def test_stale_read_beyond_delta_is_a_violation(self, server):
        checker = DeltaAtomicityChecker(server, delta=10.0)
        server.update("docs", "1", {"x": 2}, at=20.0)
        staleness = checker.record_read(response(1), read_at=35.0, client="u7")
        assert staleness == pytest.approx(15.0)
        assert checker.violation_count == 1
        [record] = checker.violations
        assert record == ReadRecord(
            resource_key="shop.example/p/1",
            version=1,
            read_at=35.0,
            staleness=staleness,
            client="u7",
        )

    def test_boundary_read_exactly_delta_is_allowed(self, server):
        checker = DeltaAtomicityChecker(server, delta=10.0)
        server.update("docs", "1", {"x": 2}, at=20.0)
        assert checker.record_read(response(1), read_at=30.0) == 10.0
        assert checker.violations == []

    def test_only_violations_are_kept(self, server):
        """The checker's own state does not grow with the reads: the
        registry counts them, ``violations`` keeps the breaches, and
        the bound's terms are held once per checker."""
        terms = (("delta", 8.0), ("in_flight", 2.0))
        checker = DeltaAtomicityChecker(server, delta=10.0, terms=terms)
        server.update("docs", "1", {"x": 2}, at=20.0)
        for at in range(20, 60):
            checker.record_read(response(1), read_at=float(at))
        assert checker.read_count == 40
        assert len(checker.violations) == 29  # read at 31 … 59
        assert set(vars(checker)) == {
            "server", "delta", "terms", "metrics", "staleness_metric",
            "violations", "_histograms", "_counters",
        }
        # The registry handles hold one metric per name, not per read.
        assert len(checker._histograms) + len(checker._counters) == 3
        assert checker.terms is terms

    def test_assert_delta_atomic_raises_on_violation(self, server):
        checker = DeltaAtomicityChecker(server, delta=1.0)
        server.update("docs", "1", {"x": 2}, at=20.0)
        checker.record_read(response(1), read_at=50.0)
        with pytest.raises(AssertionError, match="violated"):
            checker.assert_delta_atomic()

    def test_a_violation_report_names_the_bounds_terms(self, server):
        checker = DeltaAtomicityChecker(
            server, delta=1.5, terms=(("delta", 0.5), ("in_flight", 1.0))
        )
        server.update("docs", "1", {"x": 2}, at=20.0)
        checker.record_read(response(1), read_at=50.0)
        with pytest.raises(
            AssertionError, match=r"\(Δ=1\.5 = delta 0\.5 \+ in_flight 1\.0\)"
        ):
            checker.assert_delta_atomic()

    def test_assert_delta_atomic_passes_when_clean(self, server):
        checker = DeltaAtomicityChecker(server, delta=1.0)
        checker.record_read(response(1), read_at=5.0)
        checker.assert_delta_atomic()

    def test_statistics(self, server):
        checker = DeltaAtomicityChecker(server, delta=100.0)
        server.update("docs", "1", {"x": 2}, at=10.0)
        checker.record_read(response(2), read_at=20.0)  # current
        checker.record_read(response(1), read_at=20.0)  # stale by 10
        assert checker.read_count == 2
        assert checker.stale_read_fraction() == 0.5
        assert checker.max_staleness() == pytest.approx(10.0)

    def test_empty_checker_statistics(self, server):
        checker = DeltaAtomicityChecker(server, delta=1.0)
        assert checker.stale_read_fraction() == 0.0
        assert checker.max_staleness() == 0.0

    def test_metadata_required(self, server):
        checker = DeltaAtomicityChecker(server, delta=1.0)
        with pytest.raises(ValueError):
            checker.record_read(
                Response(status=Status.OK), read_at=0.0
            )

    @pytest.mark.parametrize("delta", [-1.0, float("nan")])
    def test_negative_or_nan_delta_rejected(self, server, delta):
        with pytest.raises(ValueError, match="delta"):
            DeltaAtomicityChecker(server, delta=delta)

    def test_infinite_delta_records_without_judging(self, server):
        checker = DeltaAtomicityChecker(server, delta=float("inf"))
        server.update("docs", "1", {"x": 2}, at=10.0)
        assert checker.record_read(response(1), read_at=1e9) == 1e9 - 10.0
        assert checker.violations == []
        assert checker.max_staleness() == 1e9 - 10.0

    def test_metrics_recorded(self, server):
        checker = DeltaAtomicityChecker(server, delta=5.0)
        server.update("docs", "1", {"x": 2}, at=10.0)
        checker.record_read(response(1), read_at=30.0)
        assert checker.metrics.counter("coherence.violations").value == 1
        assert checker.metrics.counter("coherence.stale_reads").value == 1
