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
import os
import random
import sys
from dataclasses import asdict, fields, replace
from typing import Callable, List, Optional, TypeVar

from repro.harness import (
    Scenario,
    ScenarioSpec,
    SimulationRunner,
    compare_scenarios,
    format_table,
)
from repro.knobs import integer
from repro.storage import BackendSpec
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

T = TypeVar("T")


def _flags(cls) -> dict:
    """``cls``'s knobs a flag restates, by the flag's name."""
    return {
        knob.metadata.get("flag") or "--" + knob.name.replace("_", "-"): knob
        for knob in fields(cls)
        if "help" in knob.metadata
    }


def _knob_flags(parser, cls, *names: str, **defaults) -> None:
    """Add the flags restating ``cls``'s knobs ``names`` (default: all),
    with the type, choices and help each knob declares. An unset flag is
    ``None``, so the knob keeps its declared default, unless ``defaults``
    gives the CLI's own (a smaller world than the library's)."""
    for flag, knob in _flags(cls).items():
        if names and knob.name not in names:
            continue
        options = {"default": defaults.get(knob.name), "help": knob.metadata["help"]}
        kind = knob.type.removeprefix("Optional[").removesuffix("]")
        if kind == "bool":
            options["action"] = "store_true"
        else:
            options["type"] = {"int": int, "float": float, "str": str}[kind]
            options["choices"] = knob.metadata["domain"].options
            options["metavar"] = knob.metadata.get("metavar")
        parser.add_argument(flag, **options)


def _given(args, cls) -> dict:
    """``cls``'s knobs whose flag this command has and was given."""
    given = {
        knob.name: getattr(args, flag[2:].replace("-", "_"), None)
        for flag, knob in _flags(cls).items()
    }
    return {name: value for name, value in given.items() if value is not None}


def _count(text: str) -> int:
    """A count of shards, workers or PoPs, as ``integer(1)`` admits it."""
    domain = integer(1)
    if domain.admits(value := int(text)):
        return value
    raise argparse.ArgumentTypeError(f"must be {domain.text}: {text}")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    from repro.faults import PROFILES, RetryPolicy
    from repro.overload import OVERLOAD_PROFILES

    _knob_flags(parser, ScenarioSpec, "seed", seed=0)
    _knob_flags(parser, UserPopulationConfig, n_users=30)
    _knob_flags(parser, CatalogConfig, n_products=60)
    _knob_flags(parser, WorkloadConfig, session_rate=0.25)
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
        type=_count,
        default=1,
        help="partition users across N parallel simulation kernels and "
        "merge results exactly (1 = the serial kernel, bit-identical)",
    )
    parser.add_argument(
        "--workers",
        type=_count,
        default=None,
        help="worker processes for --shards (default: min(shards, "
        "cpus); results never depend on this)",
    )
    _knob_flags(parser, BackendSpec)
    parser.add_argument(
        "--replicate-pops",
        type=_count,
        default=None,
        metavar="N",
        help="deploy N regional PoPs and asynchronously replicate "
        "admitted entries between them",
    )
    parser.add_argument(
        "--fault-profile",
        default=None,
        choices=list(PROFILES),
        help="inject a named fault regime (origin outages/brownouts, "
        "PoP failures, link loss, latency spikes, storage errors)",
    )
    _knob_flags(parser, RetryPolicy)
    parser.add_argument(
        "--overload-profile",
        default=None,
        choices=list(OVERLOAD_PROFILES),
        help="bound origin/PoP concurrency with the named capacity "
        "profile (queues form in front of every governed node)",
    )
    _knob_flags(
        parser, ScenarioSpec, "batch_waves", "stale_if_error", "load_multiplier"
    )
    _knob_flags(parser, ScenarioSpec, "admission", "autoscale", "consistency")
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


def _each(flag: str, text: str, parse: Callable[[str], T]) -> List[T]:
    """Every element of the comma-separated list flag ``--flag``,
    parsed before the first run: an element ``parse`` refuses with a
    ``ValueError`` ends the command there, exit 2, with one line."""
    values = []
    for item in text.split(","):
        try:
            values.append(parse(item.strip()))
        except ValueError as err:
            print(f"repro: error: --{flag} {item!r}: {err}", file=sys.stderr)
            raise SystemExit(2) from None
    return values


def _refuse_missing_directories(**outputs) -> None:
    """Refuse an output path that is a directory, or whose directory
    does not exist, before any work.

    ``--json``, ``--trace`` and a report's ``--out`` are written only
    after the whole run, so a typo in their directory would cost the
    run; a trace file (``--record``, ``gen-trace --out``) is written
    through a temporary file, whose name an ``OSError`` would show
    instead of the path given.
    """
    for flag, path in outputs.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise SystemExit(
                f"repro: error: --{flag} {path}: is a directory"
            )
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise SystemExit(
                f"repro: error: --{flag} {path}: no such directory: "
                f"{directory}"
            )


def _world_spec_from_args(args) -> WorldSpec:
    """The world the CLI flags describe (catalog/users/seeds)."""
    return WorldSpec(
        catalog=CatalogConfig(**_given(args, CatalogConfig)),
        users=UserPopulationConfig(**_given(args, UserPopulationConfig)),
        seed=args.seed,
        catalog_seed=args.seed,
        users_seed=args.seed + 1,
    )


@_named_exit
def _spec_from_args(args, **overrides) -> ScenarioSpec:
    """The one place parsed flags become a :class:`ScenarioSpec`.

    ``overrides`` carries what differs per command: the scenario and
    ``run``'s ``--trace``. A flag left unset keeps
    the spec's default. A tuning flag the selected storage engine does
    not read is refused by :class:`BackendSpec` itself — without
    ``--backend``, by the default engine's spec.
    """
    from repro.faults import FaultProfile, RetryPolicy
    from repro.overload import OVERLOAD_PROFILES

    spec = _given(args, ScenarioSpec)
    tuning = _given(args, BackendSpec)
    if tuning:
        spec["backend"] = BackendSpec(seed=args.seed, **tuning)
    retry = _given(args, RetryPolicy)
    if retry:
        spec["retry"] = RetryPolicy(**retry)
    if args.fault_profile is not None:
        spec["fault_profile"] = FaultProfile.named(args.fault_profile)
    if args.overload_profile is not None:
        spec["overload_profile"] = OVERLOAD_PROFILES[args.overload_profile]
    if args.replicate_pops is not None:
        spec.update(replicate_pops=True, n_regions=args.replicate_pops)
    spec.update(time_scale=1.0 / args.replay_rate, **overrides)
    return ScenarioSpec(**spec)


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
    _refuse_missing_directories(record=args.record)
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
        knobs = _given(args, WorkloadConfig)
        if args.quick:
            knobs["duration"] = 900.0
        gdpr_mix = args.gdpr_mix or 0.0
        config = WorkloadConfig(
            **knobs,
            erase_fraction=gdpr_mix,
            access_rate=gdpr_mix * args.session_rate,
        )
        trace = WorkloadGenerator(catalog, users, config).generate(
            random.Random(args.seed + 2)
        )
        trace.world = replace(
            world, generator={"seed": args.seed + 2, **asdict(config)}
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
    _refuse_missing_directories(json=args.json, trace=args.trace)
    scenario = Scenario(args.scenario)
    workload = _build_workload(args)
    spec = _spec_from_args(
        args, scenario=scenario, trace_requests=args.trace is not None
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


def _p50_ms(result: "RunResult") -> dict:
    """``plt_p50_ms``, omitted (as :meth:`RunResult.summary_row` does)
    when the run had no page view."""
    if not len(result.plt):
        return {}
    return {"plt_p50_ms": round(result.plt.percentile(50) * 1000, 1)}


def cmd_compare(args) -> int:
    workload = _build_workload(args)
    specs = [
        _spec_from_args(args, scenario=scenario)
        for scenario in _each("scenarios", args.scenarios, Scenario)
    ]
    results = []
    for spec in specs:
        print(f"running {spec.scenario.value} ...", file=sys.stderr)
        results.append(_run(spec, workload, args))
    print(
        format_table(
            [result.summary_row() for result in results],
            title="Scenario comparison",
        )
    )
    if len(results) >= 2:
        print()
        control, treatment = results[-2:]
        empty = [r.scenario_name for r in (control, treatment) if not len(r.plt)]
        if empty:
            print(
                "A/B (last two scenarios) skipped: no page view in "
                + ", ".join(empty)
            )
        else:
            print(
                format_table(
                    [compare_scenarios(control, treatment)],
                    title="A/B (last two scenarios)",
                )
            )
    return 0


def cmd_sweep_delta(args) -> int:
    workload = _build_workload(args)
    base = _spec_from_args(args, scenario=Scenario.SPEED_KIT)
    specs = _each(
        "deltas", args.deltas, lambda item: replace(base, delta=float(item))
    )
    rows = []
    for spec in specs:
        print(f"running Δ={spec.delta:g} ...", file=sys.stderr)
        result = _run(spec, workload, args)
        rows.append(
            {
                "delta_s": spec.delta,
                **_p50_ms(result),
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
    base = _spec_from_args(args, scenario=Scenario.SPEED_KIT)
    specs = _each(
        "segments",
        args.segments,
        lambda item: replace(base, n_segments=int(item)),
    )
    rows = []
    for spec in specs:
        print(f"running {spec.n_segments} segments ...", file=sys.stderr)
        result = _run(spec, workload, args)
        rows.append(
            {
                "segments": spec.n_segments,
                "page_hit_ratio": round(result.hit_ratio_for_kind("page"), 3),
                **_p50_ms(result),
                "origin_reqs": result.origin_requests,
            }
        )
    print(format_table(rows, title="Segment sweep"))
    return 0


def cmd_report(args) -> int:
    from repro.harness import render_report

    _refuse_missing_directories(out=args.out)
    workload = _build_workload(args)
    _, _, trace = workload
    specs = [
        _spec_from_args(args, scenario=scenario)
        for scenario in _each("scenarios", args.scenarios, Scenario)
    ]
    results = []
    for spec in specs:
        print(f"running {spec.scenario.value} ...", file=sys.stderr)
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
    _refuse_missing_directories(json=args.json)
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
    spec = _spec_from_args(args, scenario=scenario)
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
    _refuse_missing_directories(out=args.out)
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
    _knob_flags(run_parser, ScenarioSpec, "delta", "adaptive_ttl")
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
    _knob_flags(compare_parser, ScenarioSpec, "delta")
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
    _knob_flags(erase_parser, ScenarioSpec, "delta")
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
    try:
        return args.handler(args)
    except OSError as err:
        raise SystemExit(f"repro: error: {err}") from None


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
