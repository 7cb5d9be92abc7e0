"""Scenario definitions: what client/server stack handles the traffic."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.cdn.replication import DEFAULT_REPLICATION_DELAY
from repro.knobs import (
    AT_LEAST_ONE,
    NON_NEGATIVE,
    POSITIVE,
    choices,
    integer,
    knob,
    knobs,
)
from repro.storage import BackendSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.faults import FaultProfile, RetryPolicy
    from repro.overload import OverloadProfile

#: Δ-bound term for in-flight delivery: a response can be one network
#: transit old by the time the client records the read (an edge may
#: serve a copy that a concurrent write supersedes while the bytes are
#: on the wire). One second generously covers the slowest modeled link.
IN_FLIGHT_DELIVERY = 1.0


class Scenario(enum.Enum):
    """The client/server configurations under comparison."""

    NO_CACHE = "no-cache"
    BROWSER_ONLY = "browser-only"
    CLASSIC_CDN = "classic-cdn"
    SPEED_KIT = "speed-kit"
    #: Ablation: Speed Kit without segment rewriting — personalized
    #: pages carry identity and become uncacheable, like the baseline.
    SPEED_KIT_NO_SEGMENTS = "speed-kit-no-segments"
    #: Ablation: purges only, no Cache Sketch — client caches rely on
    #: TTL expiry alone (staleness up to the TTL).
    SPEED_KIT_PURGE_ONLY = "speed-kit-purge-only"
    #: Ablation: sketch only, no CDN purges — edges serve stale until
    #: expiry; clients still revalidate via the sketch.
    SPEED_KIT_SKETCH_ONLY = "speed-kit-sketch-only"

    @property
    def uses_speed_kit(self) -> bool:
        return self.value.startswith("speed-kit")

    @property
    def uses_cdn(self) -> bool:
        return self is not Scenario.NO_CACHE and (
            self is not Scenario.BROWSER_ONLY
        )


@dataclass
@knobs
class ScenarioSpec:
    """A scenario plus its tunable parameters."""

    scenario: Scenario
    delta: float = knob(
        60.0,
        NON_NEGATIVE,
        help="sketch refresh interval (Speed Kit variants only)",
        scaled=True,
    )
    #: Page TTL for the classic CDN / the static parts of Speed Kit.
    page_ttl: float = knob(300.0, NON_NEGATIVE, scaled=True)
    adaptive_ttl: bool = knob(
        False,
        help="use the adaptive (Quaestor-style) TTL estimator instead of static "
        "TTLs (Speed Kit variants only)",
    )
    #: Invalidation pipeline latencies (Speed Kit variants only).
    detection_latency: float = knob(0.025, NON_NEGATIVE, scaled=True)
    purge_latency: float = knob(0.080, NON_NEGATIVE, scaled=True)
    #: Regional deployment: split users round-robin into this many
    #: regions, each with its own PoP (``None``: one PoP, ``edge-1``).
    n_regions: Optional[int] = knob(None, integer(1))
    seed: int = knob(0, integer(0), help="root seed for all simulation randomness")
    #: Inject one origin outage window (start, end) in simulated
    #: seconds — the offline-resilience experiment.
    outage: Optional[tuple] = None
    #: Serve revalidation-flagged entries stale-while-revalidate
    #: (Speed Kit variants only).
    stale_while_revalidate: bool = False
    #: Predictive prefetching of likely-next pages (Speed Kit variants
    #: only): a site-wide navigation model drives background fetches.
    prefetch: bool = False
    #: Personalization granularity (Speed Kit variants only):
    #: ``None`` keeps the default tier×locale scheme; otherwise the
    #: runner builds a scheme with (approximately) this many segments
    #: (1 = everyone shares one variant, larger = finer slices).
    n_segments: Optional[int] = knob(None, integer(1))
    #: Storage engine for every cache tier and the origin store
    #: (``None`` keeps the classic in-memory engine everywhere).
    backend: Optional[BackendSpec] = None
    batch_waves: bool = knob(
        False, help="multiplex each page-load wave slot as one multi-asset CDN lookup"
    )
    #: Asynchronously replicate admitted entries between PoPs (needs at
    #: least two PoPs: ``n_regions``). The Δ bound widens by the PoP
    #: propagation delay (``DEFAULT_REPLICATION_DELAY``) — the
    #: in-flight replica window.
    replicate_pops: bool = False
    #: Fault regime for the run (see :mod:`repro.faults`): origin
    #: outages/brownouts, PoP failures, link loss/latency spikes,
    #: storage read errors. ``None`` keeps the perfect world. Composes
    #: with the legacy single-window ``outage`` knob.
    fault_profile: Optional["FaultProfile"] = None
    # ``None`` disables the grace window.
    stale_if_error: Optional[float] = knob(
        None,
        NON_NEGATIVE,
        help="serve cached copies verified within this grace window when "
        "upstream fails; widens the checked Δ bound by the window",
        metavar="SECONDS",
        scaled=True,
    )
    #: Retry-with-backoff policy for origin exchanges; ``None`` keeps
    #: the historical single-attempt fail-fast behaviour.
    retry: Optional["RetryPolicy"] = None
    # The string form of a :class:`repro.txn.ConsistencyLevel` (an
    # import cycle otherwise), parsed by the runner.
    consistency: str = knob(
        "delta",
        choices("delta", "snapshot", "serializable"),
        help="consistency level for multi-key read transactions: per-key "
        "delta-atomicity, snapshot (version-cut certification with origin "
        "re-fetch of violators), or serializable (optimistic validation round "
        "trip at the origin)",
    )
    #: Time-compression factor carried by a rate-scaled replay
    #: (``--replay-rate R`` sets this to ``1/R`` after dividing every
    #: trace timestamp by ``R``). The runner folds it into the
    #: wall-time-gap knobs via :meth:`time_scaled` so the compressed
    #: replay reproduces the original cache dynamics.
    time_scale: float = knob(1.0, POSITIVE)
    #: Capacity model for the overload control plane (see
    #: :mod:`repro.overload`): per-PoP and origin concurrency slots,
    #: service times, and queue bounds. ``None`` leaves every node
    #: ungoverned — draw-for-draw the historical transport.
    overload_profile: Optional["OverloadProfile"] = None
    # The fractional part of the multiplier is hash-sampled.
    load_multiplier: float = knob(
        1.0,
        AT_LEAST_ONE,
        help="amplify the trace's read traffic X-fold (flash-crowd dial; "
        "writes, erasure, and access events are never cloned)",
        metavar="X",
    )
    # Off: unbounded FIFO queues, the uncontrolled baseline.
    admission: bool = knob(
        False,
        help="priority admission control: bounded queues shed personalized "
        "traffic first, statics second, control-lane work never (requires "
        "--overload-profile)",
    )
    autoscale: bool = knob(
        False,
        help="close the loop: scale PoP capacity from the metrics stream "
        "with hysteresis (requires --overload-profile)",
    )
    #: Record request-path spans (see :mod:`repro.obs`): every page
    #: view, worker decision, transport hop, edge lookup, and origin
    #: exchange gets a span with sim-clock timings and cache verdicts.
    #: Off by default — the no-op tracer keeps the hot path free.
    trace_requests: bool = False
    label: Optional[str] = None

    def __post_init__(self) -> None:
        """Refuse knobs that contradict each other (each knob's own
        domain is checked first), before a stack is built: by name, not
        from whichever component first consumes them, or from none."""
        if self.purge_latency < self.detection_latency:
            raise ValueError(
                "purge completes after detection: purge_latency "
                f"{self.purge_latency} < detection_latency "
                f"{self.detection_latency}"
            )
        if self.scenario.uses_speed_kit and self.delta == 0:
            raise ValueError(
                "delta must be positive for Speed Kit scenarios "
                "(it is the sketch refresh interval): 0"
            )
        if self.replicate_pops and not self.scenario.uses_cdn:
            raise ValueError(
                f"replicate_pops needs a CDN: {self.scenario.value} deploys none"
            )
        pops = self.n_regions or 1
        if self.replicate_pops and pops < 2:
            raise ValueError(f"replicate_pops needs at least two PoPs: {pops}")
        for name in ("admission", "autoscale"):
            if getattr(self, name) and self.overload_profile is None:
                raise ValueError(f"{name} requires an overload_profile")

    @property
    def name(self) -> str:
        return self.label or self.scenario.value

    @property
    def swr_budget(self) -> float:
        """The verification-age budget of a stale-while-revalidate
        serving: the worker's and the checker's alike."""
        return 2 * self.delta

    def delta_terms(self) -> Tuple[Tuple[str, float], ...]:
        """The Δ bound the checker judges as ``(name, seconds)`` terms,
        summed left to right (DESIGN, *Δ-bound accounting*, says what
        each covers). ``async_propagation`` is the write-behind flush
        and the PoP replication delay pre-summed: the float association
        every recorded bound has. ``inf`` marks what is recorded but not
        judged: unbounded queueing (admission off), and the ``unjudged``
        stacks, bounded by TTLs only. Read off the time-scaled spec.
        """
        scenario, backend = self.scenario, self.backend
        sketch_only = scenario is Scenario.SPEED_KIT_SKETCH_ONLY
        flush = 0.0
        if backend is not None and backend.kind == "write-behind":
            flush = backend.flush_interval
        queue_delay = 0.0
        if self.overload_profile is not None:
            queue_delay = (
                self.overload_profile.queue_delay_bound()
                if self.admission
                else math.inf
            )
        terms = (
            ("swr_budget", self.swr_budget)
            if self.stale_while_revalidate and not sketch_only
            else ("delta", self.delta),
            ("page_ttl", self.page_ttl)
            if sketch_only
            else ("purge_latency", self.purge_latency),
            ("in_flight", IN_FLIGHT_DELIVERY),
            (
                "async_propagation",
                flush
                + (DEFAULT_REPLICATION_DELAY if self.replicate_pops else 0.0),
            ),
            ("stale_if_error", self.stale_if_error or 0.0),
            ("queue_delay", queue_delay),
        )
        if not scenario.uses_speed_kit or (
            scenario is Scenario.SPEED_KIT_PURGE_ONLY
        ):
            terms += (("unjudged", math.inf),)
        return terms

    def time_scaled(self) -> "ScenarioSpec":
        """Fold ``time_scale`` into the wall-time-gap knobs (declared
        ``scaled``) and the outage window.

        A trace compressed by rate ``R`` (timestamps divided by ``R``)
        only reproduces the recorded cache dynamics if everything
        measured *against* wall-time gaps compresses identically: the
        Δ/sketch-refresh interval, page TTLs, the invalidation
        pipeline's detection/purge latencies, the stale-if-error grace
        window, and any configured outage window. Infrastructure
        latencies — network transit, PoP replication delay, write-
        behind flush cadence, retry budgets — model how fast the
        *system* is, not how fast the recorded timeline plays, so they
        stay unscaled (the checker's in-flight slack covers them).
        Overload-plane knobs (capacities, service times, the SLO, the
        autoscaler interval) are infrastructure too and stay unscaled.
        """
        ts = self.time_scale
        if ts == 1.0:
            return self
        scaled = {
            f.name: getattr(self, f.name) * ts
            for f in fields(self)
            if f.metadata.get("scaled") and getattr(self, f.name) is not None
        }
        if self.outage is not None:
            scaled["outage"] = tuple(instant * ts for instant in self.outage)
        return replace(self, **scaled, time_scale=1.0)
