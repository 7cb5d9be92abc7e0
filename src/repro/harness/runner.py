"""Replays one workload trace against one scenario."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import Dict, Generator, List, Optional, Tuple

from repro.baselines.clients import CookieJarFetcher, NoCacheClient
from repro.browser.cache import BrowserCache
from repro.browser.client import BrowserClient, TransportMode
from repro.browser.page import PageLoadEngine
from repro.browser.transport import Transport
from repro.cdn.network import DEFAULT_POP, Cdn
from repro.coherence.checker import DeltaAtomicityChecker
from repro.coherence.client import SketchClient
from repro.http.degraded import reason_of
from repro.http.messages import Method, Request, Status
from repro.http.url import URL
from repro.invalidation.pipeline import InvalidationPipeline
from repro.obs import NOOP_TRACER, RecordingTracer
from repro.origin.server import OriginServer
from repro.origin.site import ResourceKind
from repro.sim.environment import Environment
from repro.sim.metrics import Counter, MetricRegistry
from repro.sim.rng import RngStreams
from repro.simnet.faults import NO_FAULTS, FaultSchedule
from repro.simnet.profiles import build_web_topology
from repro.simnet.topology import ORIGIN_NODE
from repro.sketch.cache_sketch import ServerCacheSketch
from repro.speedkit.config import SpeedKitConfig
from repro.speedkit.gdpr import ConsentManager, PiiVault
from repro.speedkit.segments import SegmentResolver, SegmentScheme
from repro.speedkit.worker import ServiceWorkerProxy
from repro.origin.server import StaticTtlPolicy
from repro.ttl.policy import AdaptiveTtlPolicy
from repro.harness.results import RunResult
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.storage import BackendSpec
from repro.workload.catalog import Catalog
from repro.workload.pages import PageBuilder
from repro.workload.sitebuilder import build_ecommerce_site
from repro.txn import ConsistencyLevel, TxnCoordinator, TxnRegistry
from repro.coherence.txn import TxnConsistencyChecker
from repro.workload.trace import (
    AccessUser,
    CartAdd,
    EraseUser,
    PageView,
    ProductUpdate,
    TxnRead,
    WorkloadTrace,
)
from repro.workload.users import User, UserPopulation

@dataclass
class _ClientStack:
    """What the runner keeps per user, built on first traffic."""

    fetcher: CookieJarFetcher
    #: The service worker behind the fetcher; ``None`` on baseline
    #: scenarios and for non-consenting users.
    worker: Optional[ServiceWorkerProxy]
    #: Whether this user's reads are under the Δ promise: everyone on
    #: baseline scenarios (the main checker's bound is ∞ there), only
    #: worker-served users on Speed Kit scenarios.
    delta_covered: bool
    #: Created lazily, on the first event that needs them.
    engine: Optional[PageLoadEngine] = None
    coordinator: Optional[TxnCoordinator] = None
    prefetcher: Optional[object] = None


def _client_cache_stores(stacks: Dict[str, _ClientStack]) -> Dict[str, object]:
    """Every client-side cache store of ``stacks``, by tier label.

    Covers both halves of a Speed Kit stack: the service-worker cache
    *and* the fallback browser cache behind it (pass-through and
    user-blocklisted requests land there).
    """
    tiers: Dict[str, object] = {}
    for user_id, stack in stacks.items():
        browser = stack.fetcher.inner
        if stack.worker is not None:
            tiers[f"sw:{user_id}"] = stack.worker.cache.store
            browser = stack.worker.fallback
        # A NoCacheClient has no cache at all.
        if isinstance(browser, BrowserClient):
            tiers[f"browser:{user_id}"] = browser.cache.store
    return tiers


class SimulationRunner:
    """Builds the full stack for a scenario and replays a trace."""

    def __init__(
        self,
        spec: ScenarioSpec,
        catalog: Catalog,
        users: UserPopulation,
        trace: WorkloadTrace,
        site_factory=None,
        page_builder=None,
    ) -> None:
        """``site_factory(catalog, store_backend=None) -> Site`` (the
        backend, when given, is the storage engine of the site's
        document store) and ``page_builder`` (an object with
        ``for_view(page_kind, target) -> PageSpec``) default to the
        e-commerce shop; pass alternatives to replay the same trace
        format against a different site (e.g. the media site in
        :mod:`repro.workload.mediasite`)."""
        # Rate-scaled replay: fold the spec's time-compression factor
        # into its wall-time-gap knobs (Δ, TTLs, purge pipeline, …) so
        # the Δ-bound accounting matches the compressed trace; see
        # ScenarioSpec.time_scaled for what scales and what does not.
        self.spec = spec.time_scaled()
        self.catalog = catalog
        self.users = users
        # Flash-crowd amplification: clone read events per the load
        # multiplier. Clones are keyed on event identity (not a running
        # counter), so amplifying a per-user shard partition equals
        # partitioning the amplified trace — sharded replay stays exact.
        if self.spec.load_multiplier != 1.0:
            from repro.workload.ingest import amplify_trace

            trace = amplify_trace(trace, self.spec.load_multiplier)
        self.trace = trace
        self.site_factory = site_factory or build_ecommerce_site
        self.pages = page_builder or PageBuilder()

    # -- assembly ---------------------------------------------------------

    def _ttl_policy(self):
        overrides = {
            ResourceKind.PAGE: self.spec.page_ttl,
            ResourceKind.QUERY: self.spec.page_ttl,
            ResourceKind.API: self.spec.page_ttl,
        }
        if self.spec.adaptive_ttl and self.spec.scenario.uses_speed_kit:
            return AdaptiveTtlPolicy()
        return StaticTtlPolicy(overrides=overrides)

    def _cache_backend_spec(self) -> Optional[BackendSpec]:
        """The storage spec every *cache* tier builds engines from.

        A fault profile with storage read errors wraps the scenario's
        spec (or the default in-memory engine) in the flaky wrapper, so
        edges, browser caches, and service workers all fail reads at
        the profile's rate — each with its own salted failure stream.
        The origin document store stays unwrapped: it is the source of
        truth, and origin failure is modeled by outages/brownouts.
        """
        profile = self.spec.fault_profile
        if profile is None or profile.storage_error_rate <= 0:
            return self.spec.backend
        from repro.faults import FaultyBackendSpec

        return FaultyBackendSpec.wrapping(
            self.spec.backend or BackendSpec(),
            error_rate=profile.storage_error_rate,
            fault_seed=self.spec.seed,
        )

    def _build_faults(self) -> FaultSchedule:
        """The run's fault oracle (``NO_FAULTS`` in the perfect world).

        A configured fault profile builds a seeded
        :class:`~repro.faults.injector.FaultInjector`; the legacy
        single-window ``outage`` knob composes on top of it, or stands
        alone as a plain :class:`~repro.simnet.faults.FaultSchedule`.
        """
        spec = self.spec
        if spec.fault_profile is not None and spec.fault_profile.is_active:
            injector = spec.fault_profile.build(
                duration=self.trace.duration,
                pop_names=(
                    self._pop_names if spec.scenario.uses_cdn else ()
                ),
                seed=spec.seed,
            )
            if spec.outage is not None:
                injector.add_outage(ORIGIN_NODE, *spec.outage)
            return injector
        if spec.outage is not None:
            return FaultSchedule.origin_outage(*spec.outage)
        return NO_FAULTS

    def _build(self) -> None:
        spec = self.spec
        self.env = Environment()
        self.streams = RngStreams(spec.seed)
        self.metrics = MetricRegistry()
        # (layer, kind) -> its serve.layer / serve.kind counters, both
        # created by the first response of that pair (never earlier: a
        # counter that exists shows in the exported metrics).
        self._serve_counters: Dict[
            Tuple[str, str], Tuple[Counter, Counter]
        ] = {}
        # Tracing is opt-in: the no-op tracer hands every caller the
        # shared null span, so the request path pays one attribute
        # lookup per hop when disabled.
        self.tracer = (
            RecordingTracer() if spec.trace_requests else NOOP_TRACER
        )

        # Each user's events not yet handled: when the last handler
        # returns, the user's client stack is retired (DESIGN, *A
        # user's state ends with the user*).
        self._events_left = self.trace.events_per_user()
        seen = sorted(self._events_left)
        profiles = {
            user_id: self.users.by_id(user_id).connection
            for user_id in seen
        }
        client_regions = edge_regions = None
        pop_names = [DEFAULT_POP]
        if spec.n_regions is not None:
            pop_names = [f"edge-r{i}" for i in range(spec.n_regions)]
            edge_regions = {
                name: f"region-{i}" for i, name in enumerate(pop_names)
            }
            client_regions = {
                user_id: f"region-{index % spec.n_regions}"
                for index, user_id in enumerate(sorted(seen))
            }
        self._pop_names = pop_names
        self.topology = build_web_topology(
            clients=seen,
            profiles=profiles,
            edges=pop_names,
            client_regions=client_regions,
            edge_regions=edge_regions,
        )

        self._cache_spec = self._cache_backend_spec()
        # Every worker of the run shares one config and one scheme:
        # both depend on the spec alone.
        self._worker_config = self._speedkit_config()
        self._segments = self._segment_scheme()
        site = self._build_site()
        self.server = OriginServer(site, ttl_policy=self._ttl_policy())
        self.cdn: Optional[Cdn] = None
        self.sketch: Optional[ServerCacheSketch] = None
        scenario = spec.scenario
        if scenario.uses_cdn:
            self.cdn = Cdn(
                self._pop_names,
                metrics=self.metrics,
                backend_spec=self._cache_spec,
            )
            if spec.replicate_pops:
                from repro.cdn.replication import PopReplicator

                PopReplicator(
                    self.env,
                    self.cdn,
                    metrics=self.metrics,
                    tracer=self.tracer,
                )
        # The overload control plane: governors in front of the origin
        # and every PoP, the never-shed control lane, and (opted in)
        # the closed autoscaling loop reading the metrics stream.
        self._overload = None
        self._autoscaler = None
        self._overload_slo: Optional[float] = None
        if spec.overload_profile is not None:
            from repro.overload import ControlPlane, PopAutoscaler

            self._overload = ControlPlane(
                self.env,
                spec.overload_profile,
                pop_names=self._pop_names if scenario.uses_cdn else (),
                admission=spec.admission,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            self._overload_slo = spec.overload_profile.slo
            if spec.autoscale:
                self._autoscaler = PopAutoscaler(
                    self.env,
                    self._overload,
                    self.metrics,
                    rng=self.streams.stream("autoscale"),
                    horizon=self.trace.duration,
                    tracer=self.tracer,
                )
        if scenario.uses_speed_kit:
            use_sketch = scenario is not Scenario.SPEED_KIT_PURGE_ONLY
            use_purge = scenario is not Scenario.SPEED_KIT_SKETCH_ONLY
            self.sketch = ServerCacheSketch()
            self.pipeline = InvalidationPipeline(
                self.env,
                self.server,
                cdn=self.cdn if use_purge else None,
                sketch=self.sketch if use_sketch else None,
                detection_latency=spec.detection_latency,
                purge_latency=spec.purge_latency,
                metrics=self.metrics,
                tracer=self.tracer,
                overload=self._overload,
            )
        self._faults = self._build_faults()
        breaker = None
        if (
            scenario.uses_cdn
            and spec.fault_profile is not None
            and spec.fault_profile.is_active
        ):
            from repro.faults import CircuitBreaker

            breaker = CircuitBreaker(metrics=self.metrics)
        self.breaker = breaker
        self.transport = Transport(
            self.env,
            self.topology,
            self.server,
            self.streams.stream("network"),
            faults=self._faults,
            metrics=self.metrics,
            retry=spec.retry,
            breaker=breaker,
            stale_if_error=spec.stale_if_error,
            tracer=self.tracer,
            overload=self._overload,
        )
        # Summed left to right, the float order every bound was recorded
        # with (``sum`` may compensate its rounding).
        terms = spec.delta_terms()
        self.checker = DeltaAtomicityChecker(
            self.server,
            delta=reduce(add, (seconds for _, seconds in terms)),
            terms=terms,
            metrics=self.metrics,
        )
        # Non-consenting users on a Speed Kit site run the plain
        # browser stack: their staleness is bounded by TTLs, not Δ.
        # Their reads are recorded separately so violations are only
        # counted where the protocol actually promises the bound.
        self.baseline_checker = DeltaAtomicityChecker(
            self.server,
            delta=float("inf"),
            metrics=self.metrics,
            staleness_metric="coherence.uncovered.staleness",
        )
        # Multi-key transaction machinery: the level every TxnRead
        # event runs at, the ground-truth ladder checker, and the
        # registry that makes in-flight buffers visible to erasure.
        self._txn_level = ConsistencyLevel.parse(spec.consistency)
        self.txn_checker = TxnConsistencyChecker(
            self.server, metrics=self.metrics
        )
        self.txn_registry = TxnRegistry()
        self._stacks: Dict[str, _ClientStack] = {}
        self._client_cache_stores = partial(_client_cache_stores, self._stacks)
        # The erasure/access coordinator sees the whole assembled
        # stack; client caches are resolved lazily (stacks are built
        # on first traffic and retired after the user's last event), so
        # an erase walks every device cache live at that instant. A
        # retired device holds only its owner's data, and its owner has
        # no request left. It is handed what it reads — never
        # the runner, which owns it (no cycle: DESIGN, *A finished
        # world is garbage by refcount*).
        from repro.gdpr import ErasureCoordinator

        self.gdpr = ErasureCoordinator(
            store=self.server.site.store,
            origin=self.server,
            cdn=self.cdn,
            sketch=self.sketch,
            client_stores=self._client_cache_stores,
            metrics=self.metrics,
            tracer=self.tracer,
            now_fn=partial(getattr, self.env, "now"),
            txn_registry=self.txn_registry,
            overload=self._overload,
            checkers=(self.checker, self.baseline_checker),
        )
        self._navigation_model = None
        if spec.prefetch and spec.scenario.uses_speed_kit:
            from repro.speedkit.prefetch import NavigationPredictor

            # One site-wide model: in production it is trained on
            # anonymized navigation statistics across all users.
            self._navigation_model = NavigationPredictor()
        self._plt = self.metrics.histogram("plt.all")

    def _build_site(self):
        """Build the site, its document store on the scenario's storage
        engine when one is selected."""
        backend = self.spec.backend
        return self.site_factory(
            self.catalog,
            store_backend=(
                backend.build(salt="origin") if backend is not None else None
            ),
        )

    def _browser_client(self, node: str, mode: TransportMode) -> BrowserClient:
        """A plain browser stack, its cache on the scenario's storage
        engine (or the cache's default when no backend is selected)."""
        spec = self._cache_spec
        name = f"browser:{node}"
        return BrowserClient(
            node,
            self.transport,
            mode=mode,
            cdn=self.cdn if mode is TransportMode.CDN else None,
            cache=BrowserCache(
                name,
                metrics=self.metrics,
                backend=spec.build(salt=name) if spec is not None else None,
            ),
            metrics=self.metrics,
            tracer=self.tracer,
        )

    def _speedkit_config(self) -> SpeedKitConfig:
        config = SpeedKitConfig.ecommerce_default()
        config.sketch_refresh_interval = self.spec.delta
        config.stale_while_revalidate = self.spec.stale_while_revalidate
        config.swr_staleness_budget = self.spec.swr_budget
        config.stale_if_error_window = self.spec.stale_if_error
        if self._cache_spec is not None:
            config.backend = self._cache_spec
        if self.spec.scenario is Scenario.SPEED_KIT_NO_SEGMENTS:
            config.segment_personalized = []
        return config

    def _stack_for(self, user: User) -> _ClientStack:
        """The (cached) client stack of one user."""
        stack = self._stacks.get(user.user_id)
        if stack is None:
            inner = self._build_client(user)
            worker = inner if isinstance(inner, ServiceWorkerProxy) else None
            stack = self._stacks[user.user_id] = _ClientStack(
                fetcher=CookieJarFetcher(
                    inner, user.user_id if user.logged_in else None
                ),
                worker=worker,
                delta_covered=worker is not None
                or not self.spec.scenario.uses_speed_kit,
            )
        return stack

    def _build_client(self, user: User):
        node = user.user_id
        scenario = self.spec.scenario
        if scenario is Scenario.NO_CACHE:
            return NoCacheClient(node, self.transport)
        if scenario is Scenario.CLASSIC_CDN:
            return self._browser_client(node, TransportMode.CDN)
        if scenario is Scenario.BROWSER_ONLY or not user.consents:
            # A non-consenting user keeps the plain browser stack even
            # on a Speed Kit site (the worker never activates).
            return self._browser_client(node, TransportMode.DIRECT)
        return self._build_worker(user)

    def _segment_scheme(self) -> SegmentScheme:
        """The segmentation scheme for this run's granularity setting."""
        n = self.spec.n_segments
        if n is None:
            return SegmentScheme.ecommerce_default()
        if n <= 1:
            return SegmentScheme().add_dimension("all", lambda attrs: "all")
        if n <= 3:
            return SegmentScheme().add_dimension(
                "tier", lambda attrs: str(attrs.get("tier", "standard"))
            )
        scheme = SegmentScheme.ecommerce_default()  # tier×locale ≈ 9
        if n > 9:
            buckets = max(1, n // 9)

            def bucket_of(attrs) -> str:
                # User ids are "u<number>"; a stable modulo beats
                # hash(), which Python randomizes per process.
                uid = str(attrs.get("uid", "u0"))
                try:
                    number = int(uid[1:])
                except ValueError:
                    number = 0
                return str(number % buckets)

            scheme.add_dimension("bucket", bucket_of)
        return scheme

    def _build_worker(self, user: User) -> ServiceWorkerProxy:
        attributes = dict(user.attributes)
        attributes["uid"] = user.user_id
        vault = PiiVault(
            user_id=user.user_id if user.logged_in else None,
            attributes=attributes,
        )
        consent = ConsentManager.all_granted()
        sketch_client = SketchClient(
            self.env,
            self.sketch,
            self.topology,
            client_node=user.user_id,
            rng=self.streams.fork(user.user_id).stream("sketch"),
            refresh_interval=self.spec.delta,
            faults=self._faults,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        return ServiceWorkerProxy(
            node=user.user_id,
            transport=self.transport,
            cdn=self.cdn,
            config=self._worker_config,
            vault=vault,
            consent=consent,
            segments=SegmentResolver(self._segments, vault, consent),
            sketch_client=sketch_client,
            metrics=self.metrics,
            fallback=self._browser_client(
                user.user_id, TransportMode.DIRECT
            ),
            tracer=self.tracer,
        )

    # -- replay ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Replay the whole trace; returns aggregated results."""
        import time

        started = time.perf_counter()
        self._build()
        self.env.process(self._dispatcher())
        self.env.run()
        self._finalize()
        self.result.wall_seconds = time.perf_counter() - started
        return self.result

    def _dispatcher(self) -> Generator:
        for event in self.trace.events:
            delay = event.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if isinstance(event, PageView):
                self.env.process(self._handle_page_view(event))
            elif isinstance(event, ProductUpdate):
                self.server.update(
                    "products",
                    event.product_id,
                    event.changes_dict,
                    at=self.env.now,
                )
            elif isinstance(event, CartAdd):
                self.env.process(self._handle_cart_add(event))
            elif isinstance(event, TxnRead):
                self.env.process(self._handle_txn(event))
            elif isinstance(event, EraseUser):
                self.env.process(self._handle_gdpr(self.gdpr.erase, event))
            elif isinstance(event, AccessUser):
                self.env.process(self._handle_gdpr(self.gdpr.access, event))

    def _handle_page_view(self, event: PageView) -> Generator:
        user = self.users.by_id(event.user_id)
        stack = self._stack_for(user)
        if stack.engine is None:
            stack.engine = PageLoadEngine(
                self.env,
                stack.fetcher,
                batch_waves=self.spec.batch_waves,
                tracer=self.tracer,
            )
        if stack.worker is not None:
            yield from stack.worker.on_navigate()
        # The pageview span starts *after* the navigation hook (eager
        # sketch refresh) so its start coincides with the instant the
        # engine stamps as PLT start — per-tier attribution then sums
        # to the PLT exactly.
        span = self.tracer.start(
            "pageview",
            self.env.now,
            node=user.user_id,
            tier="client",
            user=event.user_id,
            page_kind=event.page_kind,
            target=event.target,
            covered=stack.delta_covered,
        )
        page = self.pages.for_view(event.page_kind, event.target)
        result = yield from stack.engine.load(page, trace=span.context)
        if self._navigation_model is not None and stack.worker is not None:
            if stack.prefetcher is None:
                from repro.speedkit.prefetch import Prefetcher

                stack.prefetcher = Prefetcher(
                    stack.worker, self._navigation_model
                )
            stack.prefetcher.on_navigation(event.page_kind, event.target)
        self._record_page_load(user, event, result, stack.delta_covered)
        span.set(plt=result.plt)
        self.tracer.finish(span, self.env.now)
        self._events_left[event.user_id] -= 1
        if not self._events_left[event.user_id]:
            self._retire(event.user_id)
        return None

    def _handle_cart_add(self, event: CartAdd) -> Generator:
        user = self.users.by_id(event.user_id)
        fetcher = self._stack_for(user).fetcher
        span = self.tracer.start(
            "cart-add",
            self.env.now,
            node=event.user_id,
            tier="client",
            user=event.user_id,
            product=event.product_id,
        )
        request = Request(
            method=Method.POST,
            url=URL.parse(f"/api/documents/carts/{event.user_id}"),
            body={"items": [event.product_id]},
            client_id=event.user_id,
        )
        request.trace = span.context
        yield from fetcher.fetch(request)
        self.tracer.finish(span, self.env.now)
        self._events_left[event.user_id] -= 1
        if not self._events_left[event.user_id]:
            self._retire(event.user_id)
        return None

    def _txn_coordinator_for(self, user: User) -> TxnCoordinator:
        stack = self._stack_for(user)
        if stack.coordinator is None:
            stack.coordinator = TxnCoordinator(
                self.env,
                stack.fetcher,
                self.transport,
                client_node=user.user_id,
                user_id=user.user_id,
                registry=self.txn_registry,
                tracer=self.tracer,
            )
        return stack.coordinator

    def _handle_txn(self, event: TxnRead) -> Generator:
        user = self.users.by_id(event.user_id)
        stack = self._stack_for(user)
        coordinator = self._txn_coordinator_for(user)
        urls = [
            URL.parse(f"/api/products/{product_id}")
            for product_id in event.product_ids
        ]
        result = yield from coordinator.execute(urls, self._txn_level)
        self._record_txn(user, result, stack.delta_covered)
        self._events_left[event.user_id] -= 1
        if not self._events_left[event.user_id]:
            self._retire(event.user_id)
        return None

    def _record_txn(self, user: User, txn, delta_covered: bool) -> None:
        if txn.validation_retries:
            self.metrics.counter("txn.validation_retries").inc(
                txn.validation_retries
            )
        if txn.refetches:
            self.metrics.counter("txn.refetches").inc(txn.refetches)
        if txn.degraded:
            self.metrics.counter("txn.degraded").inc()
        if txn.erase_conflict:
            self.metrics.counter("txn.erase_conflicts").inc()
        if txn.aborts:
            self.metrics.counter("txn.aborts").inc(txn.aborts)
        self.metrics.counter(f"txn.level.{txn.requested.value}").inc()
        # Per-level latency sketches: the consistency-vs-PLT curve is a
        # quantile query away, and shards merge exactly.
        self.metrics.sketch(f"txn.plt.{txn.requested.value}").observe(
            txn.plt
        )
        self.metrics.sketch("txn.aborts.per_txn").observe(float(txn.aborts))
        for read in txn.reads:
            self._record_response(
                read.response,
                delta_covered,
                client=user.user_id,
                read_at=read.read_at,
            )
        self.txn_checker.record_txn(
            requested=txn.requested,
            achieved=txn.achieved,
            degraded=txn.degraded,
            reads=tuple(
                (read.version_key, read.version, read.read_at)
                for read in txn.reads
                if read.certifiable and read.response.status == Status.OK
            ),
            validated_at=txn.validated_at,
            finished_at=txn.finished_at,
            client=user.user_id,
        )

    def _handle_gdpr(self, serve, event) -> Generator:
        """Serve one data-subject request — Art. 17 (``gdpr.erase``:
        walk, verify) or Art. 15 (``gdpr.access``: read-only walk) —
        and charge its latency. The coordinator does the counting."""
        report = serve(event.user_id)
        yield self.env.timeout(max(0.0, report.simulated_latency))
        self._events_left[event.user_id] -= 1
        if not self._events_left[event.user_id]:
            self._retire(event.user_id)

    def _retire(self, user_id: str) -> None:
        """Drop ``user_id``'s client stack: every event of the user's
        has been handled.

        Counted, not found by the last event: a user's erase can return
        while a page load issued before it is still in flight. Only the
        reference goes; a revalidation or prefetch still in flight
        holds its own and finishes as before.
        """
        self._stacks.pop(user_id, None)

    # -- recording ---------------------------------------------------------------

    def _record_page_load(
        self, user: User, event: PageView, result, delta_covered: bool = True
    ) -> None:
        self._plt.observe(result.plt)
        self.metrics.histogram(f"plt.page.{event.page_kind}").observe(
            result.plt
        )
        self.metrics.histogram(f"plt.conn.{user.connection}").observe(
            result.plt
        )
        # Timeline for phase-based analyses (flash sale, outages).
        self.metrics.series("plt.timeline").record(
            result.started_at, result.plt
        )
        if self._overload_slo is not None:
            # Goodput: every response clean (no 5xx, no shed, no
            # degraded fallback) *and* the page met the profile's SLO.
            clean = not any(
                response.status.is_server_error
                or (
                    (reason := reason_of(response)) is not None
                    and reason.fallback
                )
                for response in result.responses
            )
            if clean and result.plt <= self._overload_slo:
                self.metrics.counter("overload.goodput_pages").inc()
        for response in result.responses:
            self._record_response(response, delta_covered, client=user.user_id)
        if result.responses:
            self._record_personalization(user, result.responses[0])

    def _record_personalization(self, user: User, html_response) -> None:
        """Did a logged-in user get correctly personalized HTML?

        Correct means either identity-personalized by the origin
        (classic path: the response is private/no-store) or the user's
        segment variant (Speed Kit path). An anonymous fallback served
        to a logged-in user counts as a personalization miss — the
        failure mode of caching personalized pages naively.
        """
        from repro.origin.server import SEGMENT_PARAM

        if not user.logged_in or html_response.status != Status.OK:
            return
        if html_response.kind not in ("page", "query"):
            return
        self.metrics.counter("personalization.checks").inc()
        cc = html_response.cache_control
        if cc.no_store or cc.private:
            return  # identity-personalized render: correct
        segment = (
            html_response.url.params.get(SEGMENT_PARAM)
            if html_response.url is not None
            else None
        )
        if segment is not None and segment != "anonymous":
            return  # segment variant: correct
        self.metrics.counter("personalization.misses").inc()

    @staticmethod
    def _layer_of(served_by: str) -> str:
        if served_by.startswith("browser:"):
            return "browser"
        if served_by.startswith("sw:"):
            return "sw"
        if served_by.startswith("edge"):
            return "edge"
        return served_by

    def _record_response(
        self,
        response,
        delta_covered: bool = True,
        client: Optional[str] = None,
        read_at: Optional[float] = None,
    ) -> None:
        if response.status.is_server_error:
            self.metrics.counter("serve.failed").inc()
            return
        # The one classification of a marked answer: which ledger it
        # enters, whether it is a hit, whether it is a checked read.
        reason = reason_of(response)
        if reason is not None and not reason.served:
            # A synthesized shed answer is counted on its own — it
            # must not pollute the serve/hit ledgers or the coherence
            # read log.
            layer = self._layer_of(response.served_by)
            self.metrics.counter(f"serve.shed.{layer}").inc()
            return
        if response.status != Status.OK or response.version is None:
            return
        layer = self._layer_of(response.served_by)
        kind = response.kind if response.kind is not None else "unknown"
        counters = self._serve_counters.get((layer, kind))
        if counters is None:
            counters = self._serve_counters[(layer, kind)] = (
                self.metrics.counter(f"serve.layer.{layer}"),
                self.metrics.counter(f"serve.kind.{layer}.{kind}"),
            )
        for counter in counters:
            counter.inc()
        if reason is not None:
            if reason.fallback:
                # Fallback servings (stale-if-error, offline mode) are
                # availability wins, not fresh cache hits — they are
                # tallied separately so hit ratios stay honest.
                self.metrics.counter(f"serve.degraded.{layer}").inc()
            if not reason.checked:
                # Offline serving explicitly trades Δ-atomicity for
                # availability; these reads are accounted, not checked.
                return
        if response.version_key is not None:
            checker = self.checker if delta_covered else self.baseline_checker
            checker.record_read(
                response,
                read_at if read_at is not None else self.env.now,
                client=client,
            )

    def _finalize(self) -> None:
        """Publish, once, what no collector holds — the run's size, the
        origin's load, the queue peak — then restate the run from its
        registry and spans."""
        records = self._finalize_trace() if self.tracer.enabled else None
        counter = self.metrics.counter
        counter("run.kernels").inc()
        counter("run.trace_events").inc(len(self.trace))
        counter("run.kernel_events").inc(self.env.steps)
        counter("origin.requests").inc(self.server.requests_served)
        if self._overload is not None:
            self.metrics.histogram("overload.queue_depth_peak").observe(
                self._overload.queue_depth_peak()
            )
        self.result = RunResult.over(self.spec.name, self.metrics, records)

    def _finalize_trace(self) -> List[dict]:
        """The exported span records, their per-tier attribution
        observed into the registry on the way."""
        from repro.obs import pageview_attributions, span_records

        records = span_records(self.tracer.spans)
        if self.gdpr.erased_users:
            # Right to erasure extends to telemetry: rewrite exported
            # records so no span carries an erased user's id. Scrubbed
            # copies are new objects, so the rewrite count is exact.
            from repro.gdpr import scrub_span_records

            scrubbed = scrub_span_records(records, self.gdpr.erased_users)
            self.metrics.counter("gdpr.spans_scrubbed").inc(
                sum(
                    before is not after
                    for before, after in zip(records, scrubbed)
                )
            )
            records = scrubbed
        # Streaming per-tier latency sketches: each page view's
        # critical-path seconds per tier, quantile-queryable without
        # retaining the per-page attributions; their sums are the
        # result's ``tier_breakdown``.
        for _, attribution in pageview_attributions(records):
            for tier, seconds in attribution.items():
                self.metrics.sketch(f"tier.plt.{tier}").observe(seconds)
        return records
