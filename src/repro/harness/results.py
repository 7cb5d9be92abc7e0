"""Aggregated results of one simulation run.

A :class:`RunResult` is a function of what a run exports — the
scenario's name, its metric registry and its span records — and
:meth:`RunResult.over` is the one way to make one, for a serial run
and for the folded registries of N shards alike. Each field is
declared once, with :func:`ledger`, and carries its own rules: where in
the registry it is read from (a counter or counter family, the peak of
a histogram, the observation count of histograms) and whether
:meth:`RunResult.to_dict` exports it. A field is never bumped on the
way: it restates, at end of run, the collector kept where the event
happens (DESIGN.md, *Observability*).
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.sim.metrics import Histogram, MetricRegistry


#: The resource kinds the per-content-type hit-ratio table reports.
CONTENT_KINDS = ("static", "page", "query", "api", "fragment")

#: The per-tier latency histograms ``tier_breakdown`` restates the sums of.
_TIER_HISTOGRAMS = "tier.plt."


def _nest(family: Dict[str, int]) -> Dict[str, Dict[str, int]]:
    nested: Dict[str, Dict[str, int]] = {}
    for label, count in family.items():
        outer, _, inner = label.partition(".")
        nested.setdefault(outer, {})[inner] = count
    return nested


def ledger(
    default=dataclasses.MISSING,
    *,
    export: Union[bool, str] = True,
    counter: Optional[str] = None,
    peak: Optional[str] = None,
    observations: Optional[Tuple[str, ...]] = None,
    **field_kwargs,
):
    """One :class:`RunResult` field with its rules.

    ``export`` is ``True`` (exported under the field's name), another
    key, or ``False``. At most one of the rest names where
    :meth:`RunResult.over` reads the field from:

    * ``counter`` — the registry counter the field restates, or, ending
      in ``*``, a counter *family*: every counter under that prefix, in
      the shape the pattern and the field give it (``"serve.kind.*.*"``
      nests, the label split at its first dot; a ``dict`` field such as
      ``"serve.layer.*"`` takes the map by label; a number field such
      as ``"serve.shed.*"`` the total);
    * ``peak`` — the histogram whose largest observation the field
      restates, in the field's own type (histograms merge by
      concatenation, so over merged shards it is the worst any saw);
    * ``observations`` — the histograms whose observation counts add
      up to the field (one page load, one PLT).
    """
    return dataclasses.field(
        default=default,
        metadata={
            "export": export,
            "counter": counter,
            "peak": peak,
            "observations": observations,
        },
        **field_kwargs,
    )


def _require_rules(cls):
    """Fail class creation when its body declares a rule-less field."""
    for name in inspect.get_annotations(cls):
        if "export" not in getattr(cls.__dict__.get(name), "metadata", ()):
            raise TypeError(
                f"{cls.__name__}.{name} has no source/export rule: "
                f"declare it with ledger(...)"
            )
    return cls


@dataclass
@_require_rules
class RunResult:
    """Everything measured during one trace replay."""

    scenario_name: str = ledger(export="scenario")
    metrics: MetricRegistry = ledger(export=False)
    #: Page load times — an alias of the registry-owned histogram
    #: ``plt.all`` (per dimension: ``plt.page.<kind>``,
    #: ``plt.conn.<connection>``, in the registry only).
    plt: Histogram = ledger(export=False)
    #: Request counts by serving layer ("origin", "edge-1",
    #: "browser:<node>"→"browser", "sw:<node>"→"sw").
    served_by_layer: Dict[str, int] = ledger(
        default_factory=dict, counter="serve.layer.*"
    )
    #: Request counts by (layer, resource kind).
    served_by_kind: Dict[str, Dict[str, int]] = ledger(
        default_factory=dict, counter="serve.kind.*.*"
    )
    #: Degraded servings (stale-if-error, offline mode) per layer — a
    #: subset of ``served_by_layer``. Kept separate so hit ratios can
    #: exclude availability fallbacks from the fresh-hit numerator.
    served_degraded_by_layer: Dict[str, int] = ledger(
        default_factory=dict, counter="serve.degraded.*"
    )
    #: Coherence outcome. ``stale_reads`` and ``reads_checked`` span
    #: every checked read (each checker observes one staleness per
    #: read); violations exist only where the protocol promises the Δ
    #: bound (the uncovered checker's bound is ∞).
    reads_checked: int = ledger(
        0,
        observations=("coherence.staleness", "coherence.uncovered.staleness"),
    )
    stale_reads: int = ledger(0, counter="coherence.stale_reads")
    delta_violations: int = ledger(0, counter="coherence.violations")
    #: Worst staleness among the covered population — the only one the
    #: protocol promises the Δ bound to.
    max_staleness: float = ledger(0.0, peak="coherence.staleness")
    #: Worst staleness among users NOT covered by the Δ guarantee
    #: (non-consenting users running the plain browser stack).
    uncovered_max_staleness: float = ledger(0.0, peak="coherence.uncovered.staleness")
    #: Sketch accounting (Speed Kit only).
    sketch_fetches: int = ledger(0, counter="sketch.fetches")
    sketch_bytes: int = ledger(0, counter="sketch.bytes")
    #: Scrubbing accounting (Speed Kit only).
    requests_scrubbed: int = ledger(0, counter="speedkit.scrubbed")
    #: Origin load.
    origin_requests: int = ledger(0, counter="origin.requests")
    #: Page views loaded: one page load, one PLT observation.
    page_views: int = ledger(0, observations=("plt.all",))
    #: Requests answered with a 5xx (origin outages).
    failed_responses: int = ledger(0, counter="serve.failed")
    #: Egress bandwidth: bytes the origin served vs. bytes edges served.
    origin_egress_bytes: int = ledger(0, counter="bytes.origin_egress")
    edge_egress_bytes: int = ledger(0, counter="bytes.edge_egress")
    #: Personalization correctness: page/query responses to logged-in
    #: users that carried the right personalization (their segment, or
    #: a full identity-personalized render) vs. anonymous fallbacks.
    #: Exported only as the derived ``personalization_rate``.
    personalization_checks: int = ledger(
        0, export=False, counter="personalization.checks"
    )
    personalization_misses: int = ledger(
        0, export=False, counter="personalization.misses"
    )
    #: GDPR accounting: data-subject requests served and the erasure
    #: outcome. ``erasure_residuals`` is the compliance gate — any
    #: nonzero value means user bytes survived an erase somewhere.
    erasures: int = ledger(0, counter="gdpr.erase.count")
    accesses: int = ledger(0, counter="gdpr.access.count")
    erasure_removed: int = ledger(0, counter="gdpr.erase.removed")
    erasure_residuals: int = ledger(0, counter="gdpr.erase.residuals")
    erasure_replicas_dropped: int = ledger(0, counter="gdpr.erase.replicas_dropped")
    erasure_queued_scrubbed: int = ledger(0, counter="gdpr.erase.queued_scrubbed")
    #: Exported span records rewritten by the erasure scrubbing pass.
    spans_scrubbed: int = ledger(0, counter="gdpr.spans_scrubbed")
    #: Multi-key transaction accounting. ``txn_fractured_reads``,
    #: ``txn_serialization_violations``, and ``txn_silent_downgrades``
    #: are the ladder's compliance gates — all must be zero.
    txns: int = ledger(0, counter="txn.checked")
    txn_aborts: int = ledger(0, counter="txn.aborts")
    txn_validation_retries: int = ledger(0, counter="txn.validation_retries")
    txn_refetches: int = ledger(0, counter="txn.refetches")
    txn_degraded: int = ledger(0, counter="txn.degraded")
    txn_erase_conflicts: int = ledger(0, counter="txn.erase_conflicts")
    txn_fractured_reads: int = ledger(0, counter="txn.fractured_reads")
    txn_serialization_violations: int = ledger(
        0, counter="txn.serialization_violations"
    )
    txn_silent_downgrades: int = ledger(0, counter="txn.silent_downgrades")
    txn_buffers_scrubbed: int = ledger(0, counter="gdpr.erase.txn_buffers_scrubbed")
    #: Overload-plane accounting (zero unless an
    #: ``overload_profile`` governed the run). ``offered_requests``
    #: counts every arrival at a governor, ``admitted_requests`` those
    #: that got a slot (queued or not), ``shed_requests`` the
    #: governor-side refusals, ``shed_responses`` the synthesized
    #: ``X-Load-Shed`` answers that reached clients — the property
    #: suite pins the two shed counts equal.
    offered_requests: int = ledger(0, counter="overload.offered.total")
    admitted_requests: int = ledger(0, counter="overload.admitted.total")
    queued_requests: int = ledger(0, counter="overload.queued.total")
    shed_requests: int = ledger(0, counter="overload.shed.total")
    shed_responses: int = ledger(0, counter="serve.shed.*")
    #: Shed counts by priority class label ("personalized", "static");
    #: "control" must never appear.
    shed_by_class: Dict[str, int] = ledger(
        default_factory=dict, counter="overload.shed.*"
    )
    #: Page views whose every response was fresh, unmarked, and whose
    #: PLT met the profile's SLO — the goodput numerator. Counted only
    #: when an overload profile is active (otherwise 0).
    goodput_pages: int = ledger(0, counter="overload.goodput_pages")
    #: Deepest any governed queue got (one observation per kernel).
    queue_depth_peak: int = ledger(0, peak="overload.queue_depth_peak")
    #: Autoscaler decisions and control-lane tickets.
    scale_ups: int = ledger(0, counter="overload.scale_ups")
    scale_downs: int = ledger(0, counter="overload.scale_downs")
    control_events: int = ledger(0, counter="overload.control.total")
    #: Per-tier latency attribution (tier -> total critical-path
    #: seconds across all traced page views): the sums of the
    #: ``tier.plt.<tier>`` histograms, ``None`` when there are none (the
    #: run recorded no traces).
    tier_breakdown: Optional[Dict[str, float]] = ledger(None)
    #: Exported span records of the whole run (``None`` unless the run
    #: recorded traces); the JSONL exporter serializes exactly these.
    trace_records: Optional[List[dict]] = ledger(None, export=False, repr=False)
    #: Throughput accounting: trace events replayed and kernel events
    #: (event-queue pops) executed — the numerator of events/second.
    events_processed: int = ledger(0, counter="run.trace_events")
    kernel_events: int = ledger(0, counter="run.kernel_events")
    #: How many sim-kernel shards produced this result (1 = serial).
    n_shards: int = ledger(1, counter="run.kernels")
    #: Wall-clock seconds spent producing this result. Serial runs
    #: stamp the replay duration; the sharded orchestrator stamps the
    #: merged result with end-to-end elapsed time so
    #: :meth:`events_per_second` reports real aggregate throughput.
    #: Unexported (host-dependent) and excluded from equality.
    wall_seconds: float = ledger(0.0, export=False, compare=False)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _require_rules(cls)

    # -- derived ----------------------------------------------------------

    def cache_hit_ratio(self) -> float:
        """Fraction of requests answered *fresh* without touching the
        origin.

        Degraded servings (stale-if-error, offline mode) did avoid the
        origin, but only by serving a copy known to be past its
        freshness promise — counting them as hits would let an outage
        inflate the hit ratio. They count in the denominator only (see
        :meth:`degraded_serve_ratio`).
        """
        total = sum(self.served_by_layer.values())
        if not total:
            return 0.0
        cached = (
            total
            - self.served_by_layer.get("origin", 0)
            - sum(self.served_degraded_by_layer.values())
        )
        return cached / total

    def degraded_serve_ratio(self) -> float:
        """Fraction of requests answered by degraded fallbacks."""
        total = sum(self.served_by_layer.values())
        if not total:
            return 0.0
        return sum(self.served_degraded_by_layer.values()) / total

    def layer_share(self, layer: str) -> float:
        total = sum(self.served_by_layer.values())
        if not total:
            return 0.0
        return self.served_by_layer.get(layer, 0) / total

    def hit_ratio_for_kind(self, kind: str) -> float:
        """Cache hit ratio restricted to one resource kind."""
        by_layer = {
            layer: kinds.get(kind, 0)
            for layer, kinds in self.served_by_kind.items()
        }
        total = sum(by_layer.values())
        if not total:
            return 0.0
        return (total - by_layer.get("origin", 0)) / total

    def stale_read_fraction(self) -> float:
        if not self.reads_checked:
            return 0.0
        return self.stale_reads / self.reads_checked

    def error_rate(self) -> float:
        """Fraction of responses that were 5xx failures."""
        total = sum(self.served_by_layer.values()) + self.failed_responses
        if not total:
            return 0.0
        return self.failed_responses / total

    def availability(self) -> float:
        """Fraction of responses served successfully (1 − error rate).

        Degraded servings (stale-if-error, offline mode) count as
        successes — that trade is exactly the availability story the
        fault experiments measure.
        """
        return 1.0 - self.error_rate()

    def personalization_rate(self) -> float:
        """Fraction of logged-in page views personalized correctly."""
        if not self.personalization_checks:
            return 1.0
        return 1.0 - self.personalization_misses / self.personalization_checks

    def goodput_ratio(self) -> float:
        """Fraction of page views that were *good*: every response
        fresh and unmarked (no shed, no stale-if-error, no offline
        fallback, no 5xx) and the PLT within the profile's SLO."""
        if not self.page_views:
            return 0.0
        return self.goodput_pages / self.page_views

    def shed_ratio(self) -> float:
        """Fraction of offered requests the governors refused."""
        if not self.offered_requests:
            return 0.0
        return self.shed_requests / self.offered_requests

    def events_per_second(self) -> float:
        """Kernel events executed per wall-clock second (0 if untimed)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.kernel_events / self.wall_seconds

    def counted(self, name: str) -> int:
        """The registry counter ``name``; a counter nothing incremented
        is absent from the registry and reads as zero."""
        counter = self.metrics.get_counter(name)
        return int(counter.value) if counter is not None else 0

    @classmethod
    def over(
        cls,
        scenario_name: str,
        metrics: MetricRegistry,
        trace_records: Optional[List[dict]] = None,
    ) -> "RunResult":
        """The result of the run that filled ``metrics``: every sourced
        field restated from it (a field whose source observed nothing
        keeps its default).

        The one constructor — a serial run's registry and the folded
        registries of N shards restate by the same rules, so a number
        in the result is a number in the export. A counter family
        spans the nonzero counters under its prefix, less any a field
        restates by its full name (``overload.shed.total`` is not a
        class of ``overload.shed.*``).
        """
        plt = metrics.histogram("plt.all")
        result = cls(scenario_name, metrics, plt, trace_records=trace_records)
        specs = dataclasses.fields(cls)
        by_name = {spec.metadata["counter"] for spec in specs}
        names = metrics.counter_names()
        for spec in specs:
            counter = spec.metadata["counter"]
            peak = spec.metadata["peak"]
            observations = spec.metadata["observations"]
            if counter is not None and counter.endswith("*"):
                prefix = counter[: counter.index("*")]
                value = {
                    name[len(prefix) :]: count
                    for name in names
                    if name.startswith(prefix)
                    and name not in by_name
                    and (count := result.counted(name))
                }
                if counter.endswith(".*.*"):
                    value = _nest(value)
                elif spec.default_factory is not dict:
                    value = sum(value.values())
            elif counter is not None:
                value = result.counted(counter)
            elif peak is not None:
                observed = metrics.get_histogram(peak)
                if not observed:
                    continue  # nothing observed: the default stands
                value = type(spec.default)(observed.max())
            elif observations is not None:
                value = sum(
                    observed.count
                    for name in observations
                    if (observed := metrics.get_histogram(name)) is not None
                )
            else:
                continue  # a stamp, or tier_breakdown below
            setattr(result, spec.name, value)
        # Creation order: the order a walk of the page views meets the
        # tiers in, which the tier tables break ties by.
        tiers = {
            name[len(_TIER_HISTOGRAMS) :]: histogram.sum
            for name, histogram in metrics.histograms().items()
            if name.startswith(_TIER_HISTOGRAMS)
        }
        result.tier_breakdown = tiers or None
        return result

    #: The derived ratios :meth:`to_dict` exports beside the fields.
    _EXPORTED_RATIOS = (
        "cache_hit_ratio",
        "degraded_serve_ratio",
        "stale_read_fraction",
        "error_rate",
        "availability",
        "personalization_rate",
        "goodput_ratio",
        "shed_ratio",
    )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable record of the run (for result archives).

        Every exported field under its declared key (``None`` values
        omitted, containers copied), the derived ratios, and the PLT
        summary.
        """
        record: Dict[str, object] = {}
        for spec in dataclasses.fields(self):
            key = spec.metadata["export"]
            value = getattr(self, spec.name)
            if key is False or value is None:
                continue
            record[spec.name if key is True else key] = copy.deepcopy(value)
        for ratio in self._EXPORTED_RATIOS:
            record[ratio] = getattr(self, ratio)()
        if len(self.plt):
            record["plt"] = {
                "p50": self.plt.percentile(50),
                "p95": self.plt.percentile(95),
                "p99": self.plt.percentile(99),
                "mean": self.plt.mean(),
                "count": self.plt.count,
            }
        return record

    def summary_row(self) -> Dict[str, object]:
        """The standard comparison row printed by benchmarks."""
        row: Dict[str, object] = {"scenario": self.scenario_name}
        if len(self.plt):
            row.update(
                {
                    "plt_p50_ms": round(self.plt.percentile(50) * 1000, 1),
                    "plt_p95_ms": round(self.plt.percentile(95) * 1000, 1),
                    "plt_mean_ms": round(self.plt.mean() * 1000, 1),
                }
            )
        row.update(
            {
                "hit_ratio": round(self.cache_hit_ratio(), 3),
                "origin_reqs": self.origin_requests,
                "stale_frac": round(self.stale_read_fraction(), 4),
                "violations": self.delta_violations,
            }
        )
        return row

    def hit_ratio_row(self) -> Dict[str, float]:
        """Cache hit ratio per content type (:data:`CONTENT_KINDS`)."""
        return {
            kind: round(self.hit_ratio_for_kind(kind), 3)
            for kind in CONTENT_KINDS
        }

    def tier_row(self) -> Dict[str, float]:
        """Critical-path seconds per tier crossed (sorted), then
        ``plt_sum``, the PLT total they add up to."""
        row = {
            tier: round(seconds, 3)
            for tier, seconds in sorted((self.tier_breakdown or {}).items())
        }
        row["plt_sum"] = round(sum(self.plt.values), 3)
        return row
