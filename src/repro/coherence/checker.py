"""Runtime verification of the Δ-atomicity guarantee.

Every simulated read is checked against the origin's ground-truth
version history: the returned version must have been current at some
instant within ``[t − Δ, t]``. Violations are collected (not raised)
so experiments can report a violation *count* — the paper's guarantee
corresponds to that count being zero — alongside the measured staleness
distribution.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.http.messages import Response
from repro.origin.server import OriginServer
from repro.sim.metrics import MetricRegistry


@dataclass(frozen=True)
class ReadRecord:
    """One read that broke the Δ bound: all a checker keeps of a read."""

    resource_key: str
    version: int
    read_at: float
    staleness: float
    #: The client (user id) that performed the read, when known.
    client: Optional[str] = None


#: One read as :func:`repro.obs.reads_from_trace` rebuilds it.
TraceRead = Mapping[str, Any]


def version_regressions(
    reads: Iterable[TraceRead],
) -> List[Tuple[TraceRead, TraceRead]]:
    """Per-client monotonic-read violations, concurrency-aware.

    Judged over the span export's reads: the live checker keeps no
    record per read. Monotonic reads is a *session* guarantee: it orders only operations
    the client performed one after another. Under queueing, a user's
    overlapping page loads may complete out of issue order, so a read
    that returns an older version than a *concurrent* read is legal.
    A regression is therefore a pair ``(newer, older)`` on the same
    ``(client, version_key)`` where the operation that produced the
    *older*-version read was issued **after** the newer-version read
    had already completed. Reads with ``issued_at=None`` fall back to
    ``read_at`` — the strict sequential interpretation.
    """
    groups: Dict[Tuple[Optional[str], str], List[TraceRead]] = defaultdict(list)
    for read in reads:
        groups[(read["client"], read["version_key"])].append(read)
    regressions: List[Tuple[TraceRead, TraceRead]] = []
    for group in groups.values():
        completions = sorted(group, key=lambda r: r["read_at"])
        times = [r["read_at"] for r in completions]
        # prefix[i]: the highest-version read completed by times[i].
        prefix: List[TraceRead] = []
        best = completions[0]
        for read in completions:
            if read["version"] > best["version"]:
                best = read
            prefix.append(best)
        for read in completions:
            issued = read.get("issued_at")
            if issued is None:
                issued = read["read_at"]
            idx = bisect.bisect_right(times, issued) - 1
            if idx < 0:
                continue
            seen = prefix[idx]
            if seen is not read and seen["version"] > read["version"]:
                regressions.append((seen, read))
    regressions.sort(key=lambda pair: pair[1]["read_at"])
    return regressions


class DeltaAtomicityChecker:
    """Checks reads against ground truth.

    Keeps counts and violations, nothing per read: a read observes its
    staleness into the registry (which ``RunResult.over`` restates),
    and only a read that breaks the bound becomes a :class:`ReadRecord`.
    Per-read evidence is the span export's (``reads_from_trace``).
    """

    def __init__(
        self,
        server: OriginServer,
        delta: float,
        metrics: Optional[MetricRegistry] = None,
        staleness_metric: str = "coherence.staleness",
        terms: Tuple[Tuple[str, float], ...] = (),
    ) -> None:
        """``staleness_metric`` names the histogram this checker's
        staleness distribution goes to. Counts of two checkers on one
        registry add up (``coherence.stale_reads`` spans every checked
        read); distributions do not, so a checker of a population with
        a different promise observes into a histogram of its own.
        ``terms`` are the ``(name, seconds)`` that sum to ``delta``
        (``ScenarioSpec.delta_terms``): a violation report names them."""
        # NaN fails this test too: ``staleness > nan`` is never true,
        # so a NaN bound would silently judge nothing. ``inf`` is legal
        # (record without judging).
        if not delta >= 0:
            raise ValueError(f"delta must be non-negative: {delta}")
        self.server = server
        self.delta = delta
        self.terms = terms
        self.metrics = metrics or MetricRegistry()
        self.staleness_metric = staleness_metric
        self.violations: List[ReadRecord] = []

    def record_read(
        self,
        response: Response,
        read_at: float,
        user_id: Optional[str] = None,
        client: Optional[str] = None,
    ) -> float:
        """Check one read; returns its staleness."""
        if response.url is None or response.version is None:
            raise ValueError(
                f"response lacks url/version metadata: {response!r}"
            )
        resource_key = response.version_key
        if resource_key is None:
            resource_key = self.server.version_key_for(response.url, user_id)
        versions = self.server.versions
        superseded = versions.superseded_at(resource_key, response.version)
        staleness = 0.0
        if superseded is not None and superseded < read_at:
            staleness = read_at - superseded
        self.metrics.histogram(self.staleness_metric).observe(staleness)
        if staleness > 0:
            self.metrics.counter("coherence.stale_reads").inc()
        # Δ-atomicity: the returned version must have been current at
        # some instant within [t − Δ, t] — equivalently, its staleness
        # may not exceed Δ.
        if staleness > self.delta:
            self.violations.append(
                ReadRecord(
                    resource_key=resource_key,
                    version=response.version,
                    read_at=read_at,
                    staleness=staleness,
                    client=client if client is not None else user_id,
                )
            )
            self.metrics.counter("coherence.violations").inc()
        return staleness

    # -- summaries (read off the registry) ---------------------------------

    def _staleness(self) -> Tuple[float, ...]:
        histogram = self.metrics.get_histogram(self.staleness_metric)
        return histogram.values if histogram is not None else ()

    @property
    def read_count(self) -> int:
        return len(self._staleness())

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def stale_read_fraction(self) -> float:
        """Fraction of reads that returned any outdated version."""
        values = self._staleness()
        return sum(value > 0 for value in values) / len(values) if values else 0.0

    def max_staleness(self) -> float:
        """The worst staleness observed (0 when all reads were current)."""
        return max(self._staleness(), default=0.0)

    def assert_delta_atomic(self) -> None:
        """Raise if any read violated the Δ bound (for tests)."""
        if self.violations:
            worst = max(self.violations, key=lambda r: r.staleness)
            composed = " + ".join(
                f"{name} {seconds}" for name, seconds in self.terms
            )
            raise AssertionError(
                f"{len(self.violations)} of {self.read_count} reads "
                f"violated Δ-atomicity (Δ={self.delta}"
                f"{' = ' + composed if composed else ''}); worst: "
                f"{worst.resource_key} v{worst.version} read at "
                f"{worst.read_at:.3f} with staleness {worst.staleness:.3f}"
            )
