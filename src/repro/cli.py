"""Command-line interface: run scenarios and sweeps from the shell.

Examples::

    python -m repro compare --quick
    python -m repro run --scenario speed-kit --delta 30
    python -m repro sweep-delta --deltas 10,30,60,120
    python -m repro sweep-segments --segments 1,3,9,27
    python -m repro gen-trace --out trace.jsonl
    python -m repro run --scenario classic-cdn --replay trace.jsonl
    python -m repro run --scenario speed-kit --record trace.jsonl
    python -m repro run --replay trace.jsonl --replay-rate 10
    python -m repro run --import-log access.csv --record imported.jsonl
    python -m repro run --scenario speed-kit --trace spans.jsonl
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from dataclasses import replace
from typing import List, Optional

from repro.harness import (
    Scenario,
    ScenarioSpec,
    SimulationRunner,
    compare_scenarios,
    format_table,
)
from repro.storage import BACKEND_KINDS, BackendSpec
from repro.workload import (
    CatalogConfig,
    EraseUser,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadTrace,
    WorldSpec,
    dump_trace,
    import_access_log,
    load_trace,
    rescale_trace,
    validate_trace_world,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--users", type=int, default=30)
    parser.add_argument("--products", type=int, default=60)
    parser.add_argument("--duration", type=float, default=3600.0)
    parser.add_argument("--session-rate", type=float, default=0.25)
    parser.add_argument("--write-rate", type=float, default=0.05)
    parser.add_argument(
        "--quick", action="store_true", help="15-minute workload"
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="replay a saved workload trace; a v2 trace rebuilds the "
        "exact recorded world (catalog/users/seeds) from its header, "
        "ignoring --seed/--users/--products",
    )
    parser.add_argument(
        "--replay-rate",
        type=float,
        default=1.0,
        metavar="R",
        help="time-compress the trace by R× (timestamps divide by R; "
        "the Δ bound, TTLs and purge-pipeline accounting compress "
        "identically), so multi-hour traces replay in minutes",
    )
    parser.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="dump the trace actually replayed (generated or "
        "imported) as a self-contained v2 trace file for later "
        "--replay",
    )
    parser.add_argument(
        "--import-log",
        default=None,
        metavar="PATH",
        help="ingest a foreign web access log (CSV or JSONL records: "
        "timestamp, client, url, method) as the workload; clients and "
        "URLs map deterministically onto the generated world",
    )
    parser.add_argument(
        "--import-format",
        default="auto",
        choices=["auto", "csv", "jsonl"],
        help="access-log format for --import-log (default: sniff)",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="partition users across N parallel simulation kernels and "
        "merge results exactly (1 = the serial kernel, bit-identical)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes for --shards (default: min(shards, "
        "cpus); results never depend on this)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_KINDS),
        help="storage engine for every cache tier and the origin store "
        "(default: the classic in-memory engine)",
    )
    parser.add_argument(
        "--backend-shards",
        type=_positive_int,
        default=None,
        help="shard count for --backend sharded (default 8)",
    )
    parser.add_argument(
        "--batch-window",
        type=_positive_int,
        default=None,
        help="max keys coalesced per round trip for --backend batched",
    )
    parser.add_argument(
        "--overlap",
        action="store_true",
        help="pipeline batched-storage latency under network transit "
        "(--backend batched or write-behind)",
    )
    parser.add_argument(
        "--batch-waves",
        action="store_true",
        help="multiplex each page-load wave slot as one multi-asset "
        "CDN lookup",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=None,
        help="background flush interval (simulated seconds) for the "
        "write-behind engine; widens the checked Δ bound",
    )
    parser.add_argument(
        "--replicate-pops",
        type=_positive_int,
        default=None,
        metavar="N",
        help="deploy N regional PoPs and asynchronously replicate "
        "admitted entries between them",
    )
    from repro.faults import PROFILES

    parser.add_argument(
        "--fault-profile",
        default=None,
        choices=list(PROFILES),
        help="inject a named fault regime (origin outages/brownouts, "
        "PoP failures, link loss, latency spikes, storage errors)",
    )
    parser.add_argument(
        "--stale-if-error",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve cached copies verified within this grace window "
        "when upstream fails; widens the checked Δ bound by the window",
    )
    parser.add_argument(
        "--retry-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="enable retry-with-backoff for origin exchanges with this "
        "total per-request time budget",
    )
    from repro.overload import OVERLOAD_PROFILES

    parser.add_argument(
        "--load-multiplier",
        type=float,
        default=None,
        metavar="X",
        help="amplify the trace's read traffic X-fold (flash-crowd "
        "dial; writes, erasure, and access events are never cloned)",
    )
    parser.add_argument(
        "--overload-profile",
        default=None,
        choices=list(OVERLOAD_PROFILES),
        help="bound origin/PoP concurrency with the named capacity "
        "profile (queues form in front of every governed node)",
    )
    parser.add_argument(
        "--admission",
        action="store_true",
        help="priority admission control: bounded queues shed "
        "personalized traffic first, statics second, control-lane "
        "work never (requires --overload-profile)",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="close the loop: scale PoP capacity from the metrics "
        "stream with hysteresis (requires --overload-profile)",
    )
    parser.add_argument(
        "--gdpr-mix",
        type=float,
        default=None,
        metavar="FRACTION",
        help="GDPRbench-style request mix: erase FRACTION of the "
        "active logged-in users after their last activity and "
        "interleave subject-access reads at FRACTION x the session "
        "rate",
    )
    parser.add_argument(
        "--txn-mix",
        type=float,
        default=None,
        metavar="FRACTION",
        help="probability that a page view is followed by a multi-key "
        "read transaction (0 disables transactions; traces stay "
        "bit-identical)",
    )
    parser.add_argument(
        "--txn-keys",
        type=_positive_int,
        default=None,
        help="distinct keys per transaction (default 3)",
    )
    parser.add_argument(
        "--consistency",
        default=None,
        choices=["delta", "snapshot", "serializable"],
        help="consistency level for multi-key read transactions: "
        "per-key delta-atomicity, snapshot (version-cut certification "
        "with origin re-fetch of violators), or serializable "
        "(optimistic validation round trip at the origin)",
    )


def _named_exit(build):
    """Report a ``ValueError`` from ``build`` as a one-line exit.

    The spec and workload constructors validate their knobs; a bad
    flag value should end the command with that message, not a
    traceback from wherever the value was finally used.
    """

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as err:
            raise SystemExit(f"repro: error: {err}") from None

    return wrapper


def _world_spec_from_args(args) -> WorldSpec:
    """The world the CLI flags describe (catalog/users/seeds)."""
    return WorldSpec(
        catalog=CatalogConfig(n_products=args.products),
        users=UserPopulationConfig(n_users=args.users),
        seed=args.seed,
        catalog_seed=args.seed,
        users_seed=args.seed + 1,
    )


def _given(**flags) -> dict:
    """The keyword arguments whose flag was given (is not ``None``)."""
    return {
        name: value for name, value in flags.items() if value is not None
    }


@_named_exit
def _spec_from_args(args, **overrides) -> ScenarioSpec:
    """The one place parsed flags become a :class:`ScenarioSpec`.

    ``overrides`` carries what differs per command: the scenario, a
    swept ``delta``/``n_segments``, ``run``'s own flags. A flag left
    unset keeps the spec's default. A tuning flag the selected storage
    engine does not read is refused by :class:`BackendSpec` itself —
    without ``--backend``, by the default engine's spec.
    """
    from repro.faults import FaultProfile, RetryPolicy
    from repro.overload import OVERLOAD_PROFILES

    backend = fault_profile = retry = overload_profile = None
    tuning = _given(
        kind=args.backend,
        n_shards=args.backend_shards,
        batch_window=args.batch_window,
        overlap=args.overlap or None,
        flush_interval=args.flush_interval,
    )
    if tuning:
        backend = BackendSpec(seed=args.seed, **tuning)
    if args.fault_profile is not None:
        fault_profile = FaultProfile.named(args.fault_profile)
    if args.retry_budget is not None:
        retry = RetryPolicy(budget=args.retry_budget)
    if args.overload_profile is not None:
        overload_profile = OVERLOAD_PROFILES[args.overload_profile]
    return ScenarioSpec(
        **_given(
            seed=args.seed,
            backend=backend,
            batch_waves=args.batch_waves,
            replicate_pops=args.replicate_pops is not None,
            n_regions=args.replicate_pops,
            fault_profile=fault_profile,
            stale_if_error=args.stale_if_error,
            retry=retry,
            consistency=args.consistency,
            overload_profile=overload_profile,
            load_multiplier=args.load_multiplier,
            admission=args.admission,
            autoscale=args.autoscale,
            time_scale=1.0 / args.replay_rate,
            **overrides,
        )
    )


@_named_exit
def _build_workload(args):
    """The (catalog, users, trace) triple one command runs against.

    Replaying a v2 trace rebuilds the *recorded* world from the trace
    header — the replay-time ``--seed/--users/--products`` flags are
    irrelevant, so every cross-configuration comparison sees identical
    traffic against identical state. A v1 trace (no embedded world)
    falls back to the flag-built world. Either way every event
    reference is validated against the world it will replay in: a
    mismatch (wrong flags for a v1 file, an edited v2 file) aborts
    loudly instead of replaying strangers against the wrong world.
    """
    rate = args.replay_rate
    if not 0 < rate < float("inf"):
        raise ValueError(
            f"--replay-rate must be positive and finite: {rate}"
        )
    replay = args.replay
    import_log = args.import_log
    if replay and import_log:
        raise ValueError("--replay and --import-log are mutually exclusive")
    if replay:
        trace = load_trace(replay)
        if trace.world is not None:
            catalog, users = trace.world.build()
            # Restore the recording run's root seed so seed-keyed
            # machinery outside the world (storage-backend salts,
            # fault streams) matches the recording run too.
            args.seed = trace.world.seed
        else:
            catalog, users = _world_spec_from_args(args).build()
        try:
            validate_trace_world(trace, catalog, users)
        except ValueError as err:
            raise ValueError(f"cannot replay {replay}: {err}") from None
    elif import_log:
        world = _world_spec_from_args(args)
        catalog, users = world.build()
        trace = import_access_log(
            import_log,
            catalog,
            users,
            fmt=args.import_format,
            world=world,
        )
    else:
        world = _world_spec_from_args(args)
        catalog, users = world.build()
        duration = 900.0 if args.quick else args.duration
        gdpr_mix = args.gdpr_mix or 0.0
        config = WorkloadConfig(
            duration=duration,
            session_rate=args.session_rate,
            write_rate=args.write_rate,
            erase_fraction=gdpr_mix,
            access_rate=gdpr_mix * args.session_rate,
            **_given(txn_mix=args.txn_mix, txn_keys=args.txn_keys),
        )
        trace = WorkloadGenerator(catalog, users, config).generate(
            random.Random(args.seed + 2)
        )
        trace.world = replace(
            world, generator={"seed": args.seed + 2, **config.to_dict()}
        )
    if rate != 1.0:
        trace = rescale_trace(trace, rate)
    if args.record:
        dump_trace(trace, args.record)
        print(
            f"recorded {len(trace)} events to {args.record}",
            file=sys.stderr,
        )
    return catalog, users, trace


def _run(spec: ScenarioSpec, workload, args) -> "RunResult":
    catalog, users, trace = workload
    n_shards = args.shards
    if n_shards > 1:
        from repro.parallel import ShardedSimulationRunner

        result = _named_exit(ShardedSimulationRunner)(
            spec,
            catalog,
            users,
            trace,
            n_shards=n_shards,
            workers=args.workers,
        ).run()
        print(
            f"{n_shards} shards: {result.kernel_events} kernel events "
            f"in {result.wall_seconds:.2f}s "
            f"({result.events_per_second():,.0f} events/s)",
            file=sys.stderr,
        )
        return result
    return SimulationRunner(spec, catalog, users, trace).run()


def cmd_run(args) -> int:
    scenario = Scenario(args.scenario)
    workload = _build_workload(args)
    spec = _spec_from_args(
        args,
        scenario=scenario,
        delta=args.delta,
        adaptive_ttl=args.adaptive_ttl,
        trace_requests=args.trace is not None,
    )
    result = _run(spec, workload, args)
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"wrote result record to {args.json}", file=sys.stderr)
    if args.trace is not None:
        from repro.obs import dump_jsonl

        dump_jsonl(result.trace_records or [], args.trace)
        print(
            f"wrote {len(result.trace_records or [])} spans "
            f"to {args.trace}",
            file=sys.stderr,
        )
    print(format_table([result.summary_row()], title="Run summary"))
    print()
    hit_row = result.hit_ratio_row()
    print(format_table([hit_row], title="Hit ratio by content type"))
    if result.txns:
        print()
        txn_row = {
            "txns": result.txns,
            "aborts": result.txn_aborts,
            "retries": result.txn_validation_retries,
            "refetches": result.txn_refetches,
            "degraded": result.txn_degraded,
            "fractured": result.txn_fractured_reads,
            "serial_viol": result.txn_serialization_violations,
            "silent_downgrades": result.txn_silent_downgrades,
        }
        print(
            format_table(
                [txn_row], title="Multi-key transaction consistency"
            )
        )
    if result.offered_requests:
        print()
        overload_row = {
            "offered": result.offered_requests,
            "admitted": result.admitted_requests,
            "queued": result.queued_requests,
            "shed": result.shed_requests,
            "shed_ratio": round(result.shed_ratio(), 4),
            "goodput": round(result.goodput_ratio(), 3),
            "q_peak": result.queue_depth_peak,
            "scale_ups": result.scale_ups,
            "scale_downs": result.scale_downs,
            "control": result.control_events,
        }
        print(
            format_table([overload_row], title="Overload control plane")
        )
    if result.tier_breakdown:
        print()
        print(
            format_table(
                [result.tier_row()],
                title="Per-tier latency attribution (s)",
            )
        )
    return 0


def cmd_compare(args) -> int:
    workload = _build_workload(args)
    names = args.scenarios.split(",")
    results = []
    for name in names:
        scenario = Scenario(name.strip())
        print(f"running {scenario.value} ...", file=sys.stderr)
        spec = _spec_from_args(args, scenario=scenario, delta=args.delta)
        results.append(_run(spec, workload, args))
    print(
        format_table(
            [result.summary_row() for result in results],
            title="Scenario comparison",
        )
    )
    if len(results) >= 2:
        print()
        print(
            format_table(
                [compare_scenarios(results[-2], results[-1])],
                title="A/B (last two scenarios)",
            )
        )
    return 0


def cmd_sweep_delta(args) -> int:
    workload = _build_workload(args)
    rows = []
    for delta in (float(d) for d in args.deltas.split(",")):
        print(f"running Δ={delta:g} ...", file=sys.stderr)
        spec = _spec_from_args(
            args, scenario=Scenario.SPEED_KIT, delta=delta
        )
        result = _run(spec, workload, args)
        rows.append(
            {
                "delta_s": delta,
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
                "sketch_fetches": result.sketch_fetches,
                "sketch_kib": round(result.sketch_bytes / 1024, 1),
                "max_staleness_s": round(result.max_staleness, 3),
                "violations": result.delta_violations,
            }
        )
    print(format_table(rows, title="Δ sweep"))
    return 0


def cmd_sweep_segments(args) -> int:
    workload = _build_workload(args)
    rows = []
    for n in (int(s) for s in args.segments.split(",")):
        print(f"running {n} segments ...", file=sys.stderr)
        spec = _spec_from_args(
            args, scenario=Scenario.SPEED_KIT, n_segments=n
        )
        result = _run(spec, workload, args)
        rows.append(
            {
                "segments": n,
                "page_hit_ratio": round(result.hit_ratio_for_kind("page"), 3),
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
                "origin_reqs": result.origin_requests,
            }
        )
    print(format_table(rows, title="Segment sweep"))
    return 0


def cmd_report(args) -> int:
    from repro.harness import render_report

    workload = _build_workload(args)
    _, _, trace = workload
    names = args.scenarios.split(",")
    results = []
    for name in names:
        scenario = Scenario(name.strip())
        print(f"running {scenario.value} ...", file=sys.stderr)
        spec = _spec_from_args(args, scenario=scenario)
        results.append(_run(spec, workload, args))
    report = render_report(results, trace=trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote report to {args.out}")
    else:
        print(report)
    return 0


def cmd_erase(args) -> int:
    """Run a scenario, erase users at end-of-trace, audit residuals.

    The exit code is the compliance verdict: 0 when every requested
    erasure completed with zero residuals across all tiers, 1 when any
    residual survived. CI's package-smoke step runs this against the
    installed wheel.
    """
    scenario = Scenario(args.scenario)
    catalog, users, trace = _build_workload(args)
    seen = set(trace.users_seen())
    if args.user:
        unknown = [uid for uid in args.user if uid not in seen]
        if unknown:
            raise SystemExit(
                "repro: error: user(s) not present in the trace: "
                + ", ".join(map(repr, unknown))
            )
        targets = sorted(set(args.user))
    else:
        targets = sorted(
            uid for uid in seen if users.by_id(uid).logged_in
        )
    if not targets:
        raise SystemExit(
            "repro: error: no logged-in users in the trace to erase"
        )
    # Erasure requests land at end-of-trace so every target's organic
    # traffic (and the state it deposited) precedes the request.
    events = list(trace.events) + [
        EraseUser(at=trace.duration, user_id=uid) for uid in targets
    ]
    trace = WorkloadTrace(events=events, duration=trace.duration)
    trace.validate()
    spec = _spec_from_args(args, scenario=scenario, delta=args.delta)
    result = _run(spec, (catalog, users, trace), args)
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"wrote result record to {args.json}", file=sys.stderr)
    row = {
        "erase_requests": result.erasures,
        "entries_removed": result.erasure_removed,
        "queued_scrubbed": result.erasure_queued_scrubbed,
        "replicas_dropped": result.erasure_replicas_dropped,
        "spans_scrubbed": result.spans_scrubbed,
        "residuals": result.erasure_residuals,
    }
    print(format_table([row], title="Right-to-erasure audit"))
    compliant = (
        result.erasure_residuals == 0 and result.erasures >= len(targets)
    )
    print(
        "COMPLIANT: all erasures completed with zero residuals"
        if compliant
        else "NON-COMPLIANT: residual user data survived erasure"
    )
    return 0 if compliant else 1


def cmd_gen_trace(args) -> int:
    args.replay = None  # always generate fresh here
    _, _, trace = _build_workload(args)
    dump_trace(trace, args.out)
    print(
        f"wrote {len(trace)} events "
        f"({len(trace.page_views())} page views) to {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speed Kit reproduction: scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    run_parser.add_argument(
        "--scenario",
        default=Scenario.SPEED_KIT.value,
        choices=[scenario.value for scenario in Scenario],
    )
    run_parser.add_argument("--delta", type=float, default=60.0)
    run_parser.add_argument("--adaptive-ttl", action="store_true")
    run_parser.add_argument(
        "--json", default=None, help="also write the full result record"
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record request-path spans and write them as JSONL; also "
        "prints the per-tier latency attribution",
    )
    _add_workload_args(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    compare_parser = sub.add_parser("compare", help="compare scenarios")
    compare_parser.add_argument(
        "--scenarios",
        default="no-cache,browser-only,classic-cdn,speed-kit",
    )
    compare_parser.add_argument("--delta", type=float, default=60.0)
    _add_workload_args(compare_parser)
    compare_parser.set_defaults(handler=cmd_compare)

    delta_parser = sub.add_parser("sweep-delta", help="sweep Δ")
    delta_parser.add_argument("--deltas", default="10,30,60,120")
    _add_workload_args(delta_parser)
    delta_parser.set_defaults(handler=cmd_sweep_delta)

    seg_parser = sub.add_parser("sweep-segments", help="sweep segments")
    seg_parser.add_argument("--segments", default="1,3,9,27")
    _add_workload_args(seg_parser)
    seg_parser.set_defaults(handler=cmd_sweep_segments)

    report_parser = sub.add_parser(
        "report", help="run scenarios and write a markdown report"
    )
    report_parser.add_argument(
        "--scenarios", default="classic-cdn,speed-kit"
    )
    report_parser.add_argument("--out", default=None)
    _add_workload_args(report_parser)
    report_parser.set_defaults(handler=cmd_report)

    erase_parser = sub.add_parser(
        "erase",
        help="erase users at end-of-trace and audit for residuals "
        "(exit 1 on any residual)",
    )
    erase_parser.add_argument(
        "--scenario",
        default=Scenario.SPEED_KIT.value,
        choices=[scenario.value for scenario in Scenario],
    )
    erase_parser.add_argument("--delta", type=float, default=60.0)
    erase_parser.add_argument(
        "--user",
        action="append",
        default=None,
        metavar="USER_ID",
        help="erase this user (repeatable; default: every logged-in "
        "user seen in the trace)",
    )
    erase_parser.add_argument(
        "--json", default=None, help="also write the full result record"
    )
    _add_workload_args(erase_parser)
    erase_parser.set_defaults(handler=cmd_erase)

    trace_parser = sub.add_parser("gen-trace", help="generate a trace file")
    trace_parser.add_argument("--out", required=True)
    _add_workload_args(trace_parser)
    trace_parser.set_defaults(handler=cmd_gen_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
