"""Tests for the command-line interface."""

from dataclasses import replace

import pytest

from repro import cli
from repro.cli import main
from repro.faults import FaultProfile, RetryPolicy
from repro.harness import Scenario, ScenarioSpec
from repro.overload import OVERLOAD_PROFILES
from repro.storage import BackendSpec


QUICK = ["--quick", "--users", "8", "--products", "20", "--session-rate", "0.05"]


def test_run_prints_summary(capsys):
    assert main(["run", "--scenario", "speed-kit"] + QUICK) == 0
    out = capsys.readouterr().out
    assert "Run summary" in out
    assert "speed-kit" in out
    assert "Hit ratio by content type" in out


@pytest.mark.parametrize("backend", ["inmemory", "sharded", "remote"])
def test_run_with_backend(capsys, backend):
    code = main(
        ["run", "--scenario", "speed-kit", "--backend", backend] + QUICK
    )
    assert code == 0
    assert "Run summary" in capsys.readouterr().out


def test_sweep_delta_with_backend(capsys):
    code = main(
        ["sweep-delta", "--deltas", "60", "--backend", "sharded"] + QUICK
    )
    assert code == 0
    assert "Δ sweep" in capsys.readouterr().out


def test_run_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        main(["run", "--backend", "warp-drive"] + QUICK)


def test_run_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["run", "--scenario", "warp-drive"])


def test_compare_two_scenarios(capsys):
    code = main(
        ["compare", "--scenarios", "classic-cdn,speed-kit"] + QUICK
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Scenario comparison" in out
    assert "A/B" in out


def test_sweep_delta(capsys):
    assert main(["sweep-delta", "--deltas", "30,120"] + QUICK) == 0
    out = capsys.readouterr().out
    assert "Δ sweep" in out
    assert "30" in out and "120" in out


def test_sweep_segments(capsys):
    assert main(["sweep-segments", "--segments", "1,9"] + QUICK) == 0
    assert "Segment sweep" in capsys.readouterr().out


def test_gen_trace_and_replay(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["gen-trace", "--out", str(trace_path)] + QUICK) == 0
    assert trace_path.exists()
    capsys.readouterr()
    code = main(
        [
            "run",
            "--scenario",
            "classic-cdn",
            "--replay",
            str(trace_path),
            "--users",
            "8",
            "--products",
            "20",
        ]
    )
    assert code == 0
    assert "classic-cdn" in capsys.readouterr().out


@pytest.mark.parametrize(
    "sharding",
    [[], ["--shards", "2", "--workers", "1"]],
    ids=["serial", "2-shards"],
)
def test_run_trace_writes_span_dump(tmp_path, capsys, sharding):
    import json

    from repro.obs import reads_from_trace, tier_breakdown

    spans_path = tmp_path / "spans.jsonl"
    json_path = tmp_path / "result.json"
    code = main(
        ["run", "--scenario", "speed-kit", "--trace", str(spans_path)]
        + ["--json", str(json_path)]
        + sharding
        + QUICK
    )
    assert code == 0
    assert "Per-tier latency attribution" in capsys.readouterr().out
    lines = spans_path.read_text().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    assert any(record["name"] == "pageview" for record in records)
    assert any(record["name"] == "origin" for record in records)
    # One trace, however many kernels recorded it: no span id is used
    # twice, and the dump alone reproduces the record's numbers.
    assert len({record["span"] for record in records}) == len(records)
    result = json.loads(json_path.read_text())
    assert tier_breakdown(records) == pytest.approx(result["tier_breakdown"])
    assert len(reads_from_trace(records)) == result["reads_checked"]


def test_run_writes_json_record(tmp_path, capsys):
    import json

    out = tmp_path / "result.json"
    code = main(
        ["run", "--scenario", "speed-kit", "--json", str(out)] + QUICK
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["scenario"] == "speed-kit"
    assert record["delta_violations"] == 0
    assert "plt" in record and record["plt"]["count"] > 0


def test_report_to_file(tmp_path, capsys):
    out = tmp_path / "report.md"
    code = main(
        ["report", "--scenarios", "speed-kit", "--out", str(out)] + QUICK
    )
    assert code == 0
    content = out.read_text()
    assert content.startswith("# Speed Kit reproduction report")
    assert "speed-kit" in content


def test_report_to_stdout(capsys):
    assert main(["report", "--scenarios", "speed-kit"] + QUICK) == 0
    assert "## Scenario comparison" in capsys.readouterr().out


def test_erase_audits_all_logged_in_users(capsys):
    assert main(["erase", "--seed", "3"] + QUICK) == 0
    out = capsys.readouterr().out
    assert "Right-to-erasure audit" in out
    assert "COMPLIANT: all erasures completed with zero residuals" in out


def test_erase_writes_json_record(tmp_path, capsys):
    import json

    out = tmp_path / "erase.json"
    code = main(
        ["erase", "--seed", "3", "--json", str(out)] + QUICK
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["erasures"] > 0
    assert record["erasure_removed"] >= record["erasures"]
    assert record["erasure_residuals"] == 0


def test_erase_single_user_and_sharded(capsys):
    import random

    from repro.workload import (
        CatalogConfig,
        UserPopulationConfig,
        WorkloadConfig,
        WorkloadGenerator,
        generate_catalog,
        generate_users,
    )

    # Find a logged-in user the quick seed-3 trace actually contains.
    catalog = generate_catalog(CatalogConfig(n_products=20), random.Random(3))
    users = generate_users(
        UserPopulationConfig(n_users=8), random.Random(4)
    )
    trace = WorkloadGenerator(
        catalog, users, WorkloadConfig(duration=900.0, session_rate=0.05)
    ).generate(random.Random(5))
    target = next(
        uid for uid in trace.users_seen() if users.by_id(uid).logged_in
    )
    code = main(
        ["erase", "--seed", "3", "--user", target, "--shards", "2"] + QUICK
    )
    assert code == 0
    assert "COMPLIANT" in capsys.readouterr().out


def test_erase_rejects_unknown_user():
    with pytest.raises(SystemExit):
        main(["erase", "--seed", "3", "--user", "nobody"] + QUICK)


def test_erase_with_write_behind_backend(capsys):
    code = main(
        ["erase", "--seed", "3", "--backend", "write-behind"] + QUICK
    )
    assert code == 0
    assert "COMPLIANT" in capsys.readouterr().out


def test_gdpr_mix_generates_requests(tmp_path, capsys):
    import json

    out = tmp_path / "mix.json"
    code = main(
        [
            "run",
            "--scenario",
            "speed-kit",
            "--gdpr-mix",
            "0.5",
            "--json",
            str(out),
        ]
        + QUICK
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["erasures"] > 0
    assert record["accesses"] > 0
    assert record["erasure_residuals"] == 0


def test_gdpr_mix_rejects_bad_fraction():
    with pytest.raises(SystemExit, match="erase_fraction"):
        main(["run", "--gdpr-mix", "1.5"] + QUICK)


def test_record_then_replay_is_flag_independent(tmp_path, capsys):
    """The lead bugfix: a v2 recording replays identically no matter
    what --seed/--users/--products the replay command line carries."""
    import json

    trace_path = tmp_path / "recorded.jsonl"
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    record_flags = [
        "--seed", "5", "--users", "12", "--products", "30",
        "--session-rate", "0.05", "--quick",
    ]
    assert main(
        [
            "run", "--scenario", "speed-kit", "--record", str(trace_path),
            "--json", str(first),
        ]
        + record_flags
    ) == 0
    capsys.readouterr()
    # Deliberately mismatched world flags: the embedded world must win.
    assert main(
        [
            "run", "--scenario", "speed-kit", "--replay", str(trace_path),
            "--seed", "99", "--users", "3", "--products", "7",
            "--json", str(second),
        ]
    ) == 0
    capsys.readouterr()
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("wall_seconds", None), b.pop("wall_seconds", None)
    assert a == b


def test_sharded_replay_is_flag_independent(tmp_path, capsys):
    """Sharded replay of a v2 recording is just as flag-independent as
    serial replay: two --shards 2 replays with wildly different
    --seed/--users/--products agree byte-for-byte, and both agree with
    the serial recording on every workload-exact invariant (hit-ratio
    parity between serial and sharded is out of scope — sharding
    changes cross-user cache warming by design)."""
    import json

    trace_path = tmp_path / "recorded.jsonl"
    serial_out = tmp_path / "serial.json"
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(
        [
            "run", "--scenario", "speed-kit", "--record", str(trace_path),
            "--json", str(serial_out), "--seed", "5",
        ]
        + QUICK
    ) == 0
    capsys.readouterr()
    assert main(
        [
            "run", "--scenario", "speed-kit", "--replay", str(trace_path),
            "--shards", "2", "--json", str(first), "--seed", "5",
        ]
        + QUICK
    ) == 0
    capsys.readouterr()
    assert main(
        [
            "run", "--scenario", "speed-kit", "--replay", str(trace_path),
            "--shards", "2", "--json", str(second),
            "--seed", "99", "--users", "3", "--products", "7",
        ]
    ) == 0
    capsys.readouterr()
    serial = json.loads(serial_out.read_text())
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    for record in (serial, a, b):
        record.pop("wall_seconds", None)
    assert a == b
    assert a["page_views"] == serial["page_views"]
    assert a["delta_violations"] == serial["delta_violations"] == 0
    assert a["reads_checked"] == serial["reads_checked"]
    assert a["erasure_residuals"] == serial["erasure_residuals"] == 0


def test_v1_replay_against_mismatched_world_fails_actionably(
    tmp_path, capsys
):
    import io
    import json as jsonlib

    from repro.workload import dump_trace, load_trace

    trace_path = tmp_path / "v1.jsonl"
    assert main(
        ["gen-trace", "--out", str(trace_path), "--seed", "5"] + QUICK
    ) == 0
    capsys.readouterr()
    # Strip the trace down to format v1: no embedded world.
    trace = load_trace(trace_path)
    buffer = io.StringIO()
    trace.world = None
    dump_trace(trace, buffer)
    lines = buffer.getvalue().splitlines(keepends=True)
    header = jsonlib.loads(lines[0])
    header["version"] = 1
    trace_path.write_text(
        jsonlib.dumps(header) + "\n" + "".join(lines[1:])
    )
    with pytest.raises(SystemExit) as err:
        main(
            [
                "run", "--scenario", "speed-kit",
                "--replay", str(trace_path),
                "--seed", "99", "--users", "2", "--products", "5",
            ]
        )
    message = str(err.value)
    assert "cannot replay" in message
    assert "--record" in message  # actionable: how to fix it
    assert "KeyError" not in message


def test_v1_replay_with_matching_flags_still_works(tmp_path, capsys):
    import json as jsonlib

    trace_path = tmp_path / "v1.jsonl"
    assert main(
        ["gen-trace", "--out", str(trace_path), "--seed", "5"] + QUICK
    ) == 0
    lines = trace_path.read_text().splitlines(keepends=True)
    header = jsonlib.loads(lines[0])
    header["version"] = 1
    header.pop("world", None)
    trace_path.write_text(
        jsonlib.dumps(header) + "\n" + "".join(lines[1:])
    )
    capsys.readouterr()
    code = main(
        [
            "run", "--scenario", "speed-kit",
            "--replay", str(trace_path), "--seed", "5",
        ]
        + QUICK
    )
    assert code == 0
    assert "Run summary" in capsys.readouterr().out


def test_import_log_smoke(tmp_path, capsys):
    from pathlib import Path

    fixture = str(
        Path(__file__).parent
        / "workload"
        / "fixtures"
        / "sample_access_log.csv"
    )
    code = main(
        [
            "run", "--scenario", "speed-kit", "--import-log", fixture,
            "--users", "10", "--products", "20", "--seed", "3",
        ]
    )
    assert code == 0
    assert "Run summary" in capsys.readouterr().out


def test_replay_rate_smoke(tmp_path, capsys):
    trace_path = tmp_path / "recorded.jsonl"
    assert main(
        [
            "run", "--scenario", "speed-kit", "--record", str(trace_path),
            "--seed", "5",
        ]
        + QUICK
    ) == 0
    capsys.readouterr()
    code = main(
        [
            "run", "--scenario", "speed-kit", "--replay", str(trace_path),
            "--replay-rate", "2",
        ]
    )
    assert code == 0
    assert "Run summary" in capsys.readouterr().out


def test_replay_rate_rejects_nonpositive(tmp_path):
    with pytest.raises(SystemExit):
        main(
            ["run", "--replay-rate", "0", "--scenario", "speed-kit"]
            + QUICK
        )


def test_replay_and_import_log_are_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "run", "--replay", "a.jsonl", "--import-log", "b.csv",
                "--scenario", "speed-kit",
            ]
            + QUICK
        )


@pytest.mark.parametrize(
    "argv, named",
    [
        # Each used to run the elements before the bad one first.
        (["compare", "--scenarios", "speed-kit,bogus"], "'bogus'"),
        (["report", "--scenarios", "classic-cdn,bogus"], "'bogus'"),
        (["sweep-delta", "--deltas", "10,abc"], "'abc'"),
        (["sweep-delta", "--deltas", "10,-1"], "delta must be"),
        (["sweep-segments", "--segments", ""], "''"),
        (["sweep-segments", "--segments", "1,0,-2"], "n_segments must be"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_a_bad_list_element_exits_before_any_run(
    monkeypatch, capsys, argv, named
):
    monkeypatch.setattr(cli, "_run", None)  # must fail before any run
    with pytest.raises(SystemExit) as err:
        main(argv + SMALL)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"repro: error: {argv[1]} ")
    assert stderr.count("\n") == 1  # one line, no traceback
    assert named in stderr


#: ``--duration 5`` ends before the first page view.
NO_PAGE_VIEW = ["--users", "5", "--products", "10", "--duration", "5"]


@pytest.mark.parametrize(
    "argv, title",
    [
        (["sweep-delta", "--deltas", "10,30"], "Δ sweep"),
        (["sweep-segments", "--segments", "1,3"], "Segment sweep"),
        (["compare", "--scenarios", "speed-kit,no-cache"], "Scenario comparison"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_run_with_no_page_view_prints_its_table_without_plt(
    capsys, argv, title
):
    assert main(argv + NO_PAGE_VIEW) == 0
    out = capsys.readouterr().out
    assert title in out
    assert "plt_" not in out
    if argv[0] == "compare":
        assert "A/B (last two scenarios) skipped: no page view in" in out


def test_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


# -- one spec assembly for every command -----------------------------------

EVERY_FLAG = [
    "--seed", "3", "--backend", "write-behind", "--flush-interval", "2",
    "--batch-window", "4", "--overlap", "--batch-waves",
    "--replicate-pops", "3", "--fault-profile", "chaos",
    "--stale-if-error", "30", "--retry-budget", "2",
    "--overload-profile", "flash-crowd", "--admission", "--autoscale",
    "--load-multiplier", "2", "--consistency", "snapshot",
    "--replay-rate", "2",
]  # fmt: skip
EVERY_FLAG_SPEC = ScenarioSpec(
    scenario=Scenario.SPEED_KIT,
    seed=3,
    backend=BackendSpec(
        kind="write-behind",
        seed=3,
        overlap=True,
        batch_window=4,
        flush_interval=2.0,
    ),
    batch_waves=True,
    replicate_pops=True,
    n_regions=3,
    fault_profile=FaultProfile.named("chaos"),
    stale_if_error=30.0,
    retry=RetryPolicy(budget=2.0),
    consistency="snapshot",
    overload_profile=OVERLOAD_PROFILES["flash-crowd"],
    admission=True,
    autoscale=True,
    load_multiplier=2.0,
    time_scale=0.5,
)
#: command line -> the spec fields that command (alone) sets.
COMMANDS = {
    ("run", "--scenario", "classic-cdn", "--delta", "45", "--adaptive-ttl"): {
        "scenario": Scenario.CLASSIC_CDN,
        "delta": 45.0,
        "adaptive_ttl": True,
    },
    ("compare", "--scenarios", "browser-only", "--delta", "45"): {
        "scenario": Scenario.BROWSER_ONLY,
        "delta": 45.0,
    },
    ("sweep-delta", "--deltas", "45"): {"delta": 45.0},
    ("sweep-segments", "--segments", "9"): {"n_segments": 9},
    ("report", "--scenarios", "classic-cdn"): {
        "scenario": Scenario.CLASSIC_CDN
    },
    ("erase", "--delta", "45"): {"delta": 45.0},
}


class _SpecCaptured(Exception):
    pass


def _captured_spec(monkeypatch, argv) -> ScenarioSpec:
    """The spec ``argv`` hands to ``_run`` (the run itself is skipped)."""

    def capture(spec, workload, args):
        raise _SpecCaptured(spec)

    monkeypatch.setattr(cli, "_run", capture)
    with pytest.raises(_SpecCaptured) as caught:
        main(list(argv) + QUICK)
    return caught.value.args[0]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize(
    "flags, shared",
    [
        ([], ScenarioSpec(scenario=Scenario.SPEED_KIT)),
        (EVERY_FLAG, EVERY_FLAG_SPEC),
    ],
    ids=["defaults", "every-flag"],
)
def test_same_flag_line_yields_same_spec(monkeypatch, command, flags, shared):
    spec = _captured_spec(monkeypatch, list(command) + flags)
    assert spec == replace(shared, **COMMANDS[command])


# -- invalid and contradictory flags exit with a named one-liner ------------

SMALL = ["--users", "5", "--products", "10", "--duration", "60"]


@pytest.mark.parametrize(
    "flags, names",
    [
        (["--stale-if-error", "-5"], "stale_if_error"),
        (["--delta", "nan"], "delta"),
        (["--delta", "-5"], "delta"),
        (["--delta", "0"], "delta"),
        (
            ["--load-multiplier", "inf", "--overload-profile", "flash-crowd"],
            "load_multiplier",
        ),
        (["--load-multiplier", "0.5"], "load_multiplier"),
        (["--retry-budget", "0"], "budget"),
        (["--retry-budget", "nan"], "budget"),
        (
            ["--backend", "write-behind", "--flush-interval", "nan"],
            "flush_interval",
        ),
        (
            ["--backend", "write-behind", "--flush-interval", "-1"],
            "flush_interval",
        ),
        (["--write-rate", "-1"], "write_rate"),
        # Non-finite traffic knobs: each used to hang the generator.
        (["--session-rate", "nan"], "session_rate"),
        (["--session-rate", "inf"], "session_rate"),
        (["--duration", "inf"], "duration"),
        (["--duration", "nan"], "duration"),
        (["--users", "0"], "n_users"),
        (["--gdpr-mix", "2"], "erase_fraction"),
        (["--replay-rate", "nan"], "--replay-rate"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_out_of_range_knobs_exit_by_name(monkeypatch, flags, names):
    monkeypatch.setattr(cli, "_run", None)  # must fail before any run
    with pytest.raises(SystemExit) as err:
        main(["run"] + SMALL + flags)
    message = str(err.value)
    assert names in message
    assert "\n" not in message  # one line, no traceback


def _edited_trace(tmp_path, kind, user_id):
    """A recorded v2 trace whose first ``kind`` event names ``user_id``."""
    import json

    path = tmp_path / "edited.jsonl"
    assert main(
        ["gen-trace", "--out", str(path), "--seed", "5", "--gdpr-mix", "0.3"]
        + QUICK
    ) == 0
    lines = path.read_text().splitlines()
    index, record = next(
        (index, record)
        for index, line in enumerate(lines)
        if (record := json.loads(line)).get("kind") == kind
    )
    record["user_id"] = user_id
    lines[index] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "command, edit, named",
    [
        # A v2 trace is checked against the world it embeds: before,
        # these died in UserPopulation.by_id with "invalid literal for
        # int() ... 'its'" from inside SimulationRunner._build.
        (["run"], ("erase_user", "hits"), "unknown user 'hits'"),
        (["run"], ("access_user", "u999"), "unknown user 'u999'"),
        (["run"], ("page_view", ""), "unknown user ''"),
        (["erase"], ("erase_user", "hits"), "unknown user 'hits'"),
        (
            ["erase", "--seed", "3", "--user", "hits"] + QUICK,
            None,
            "not present in the trace: 'hits'",
        ),
        (
            ["erase", "--seed", "2", "--users", "1", "--products", "10"]
            + ["--duration", "60"],
            None,
            "no logged-in users",
        ),
    ],
    ids=[
        "erase-stranger",
        "access-stranger",
        "empty-id",
        "erase-replay",
        "erase-user-flag",
        "nobody-logged-in",
    ],
)
def test_strangers_exit_with_a_named_one_liner(
    monkeypatch, tmp_path, command, edit, named
):
    if edit is not None:
        command = command + ["--replay", _edited_trace(tmp_path, *edit)]
    monkeypatch.setattr(cli, "_run", None)  # must fail before any run
    with pytest.raises(SystemExit) as err:
        main(command)
    message = str(err.value)
    assert message.startswith("repro: error: ")
    assert ("cannot replay" in message) == (edit is not None)
    assert named in message
    assert "\n" not in message  # one line, no traceback


@pytest.mark.parametrize(
    "flags, names",
    [
        # Without --backend the default engine's spec refuses the knob.
        (["--flush-interval", "5"], ("flush_interval", "write-behind", "inmemory")),
        (["--batch-window", "4"], ("batch_window", "batched", "inmemory")),
        (["--overlap"], ("overlap", "batched|write-behind", "inmemory")),
        (["--backend-shards", "4"], ("n_shards", "sharded", "inmemory")),
        (
            ["--backend", "remote", "--batch-window", "4"],
            ("batch_window", "batched|write-behind", "'remote'"),
        ),
        (
            ["--backend", "batched", "--flush-interval", "5"],
            ("flush_interval", "write-behind", "'batched'"),
        ),
        # Refused by ScenarioSpec itself, by field name.
        (["--admission"], ("admission requires an overload_profile",)),
        (["--autoscale"], ("autoscale requires an overload_profile",)),
        (["--replicate-pops", "1"], ("replicate_pops", "two PoPs")),
        (["--replay-rate", "0"], ("--replay-rate", "positive")),
        (
            ["--replay", "a.jsonl", "--import-log", "b.csv"],
            ("--replay", "--import-log", "mutually exclusive"),
        ),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_contradictory_flags_exit_naming_both(monkeypatch, flags, names):
    monkeypatch.setattr(cli, "_run", None)
    with pytest.raises(SystemExit) as err:
        main(["run"] + SMALL + flags)
    message = str(err.value)
    assert message.startswith("repro: error: ")
    assert "\n" not in message  # one line, no traceback
    for name in names:
        assert name in message


@pytest.mark.parametrize(
    "flags, path",
    [
        (["--replay", "/nonexistent.jsonl"], "/nonexistent.jsonl"),
        (["--import-log", "/nonexistent.csv"], "/nonexistent.csv"),
        (["--record", "/nonexistent/dir/t.jsonl"], "/nonexistent/dir/t.jsonl"),
        # Written only after the whole run: refused before it starts.
        (["--trace", "/nonexistent/dir/s.jsonl"], "/nonexistent/dir/s.jsonl"),
        (["--json", "/nonexistent/dir/r.json"], "/nonexistent/dir/r.json"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_file_errors_exit_naming_the_path(monkeypatch, flags, path):
    monkeypatch.setattr(cli, "_run", None)  # must fail before any run
    with pytest.raises(SystemExit) as err:
        main(["run"] + SMALL + flags)
    message = str(err.value)
    assert message.startswith("repro: error: ")
    assert "\n" not in message  # one line, no traceback
    assert path in message


#: One command line per subcommand; each builds its workload through
#: the same flags.
SUBCOMMANDS = {
    "run": ["run"],
    "compare": ["compare", "--scenarios", "classic-cdn"],
    "sweep-delta": ["sweep-delta", "--deltas", "45"],
    "sweep-segments": ["sweep-segments", "--segments", "1"],
    "report": ["report", "--scenarios", "classic-cdn"],
    "erase": ["erase"],
}
#: ``DIR`` stands for an existing directory.
INPUT_FILE_ERRORS = {
    "missing-replay": ["--replay", "/nonexistent.jsonl"],
    "missing-import-log": ["--import-log", "/nonexistent.csv"],
    "record-into-missing-dir": ["--record", "/nonexistent/dir/t.jsonl"],
    "replay-is-a-directory": ["--replay", "DIR"],
    "import-log-is-a-directory": ["--import-log", "DIR"],
    "record-onto-a-directory": ["--record", "DIR"],
}


def assert_one_line_naming(argv, path):
    with pytest.raises(SystemExit) as err:
        main(argv)
    message = str(err.value)
    assert message.startswith("repro: error: ")
    assert "\n" not in message  # one line, no traceback
    assert path in message


@pytest.mark.parametrize("error", sorted(INPUT_FILE_ERRORS))
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_command_reports_workload_file_errors_in_one_line(
    monkeypatch, tmp_path, command, error
):
    monkeypatch.setattr(cli, "_run", None)  # must fail before any run
    flag, path = INPUT_FILE_ERRORS[error]
    path = path.replace("DIR", str(tmp_path))
    assert_one_line_naming(SUBCOMMANDS[command] + SMALL + [flag, path], path)


@pytest.mark.parametrize(
    "error",
    ["missing-import-log", "record-into-missing-dir",
     "import-log-is-a-directory", "record-onto-a-directory"],
)  # fmt: skip
def test_gen_trace_reports_workload_file_errors_in_one_line(tmp_path, error):
    flag, path = INPUT_FILE_ERRORS[error]
    path = path.replace("DIR", str(tmp_path))
    out = str(tmp_path / "t.jsonl")
    assert_one_line_naming(
        ["gen-trace", "--out", out] + SMALL + [flag, path], path
    )
    assert not (tmp_path / "t.jsonl").exists()


#: Outputs written only after the work, refused before it: ``DIR``
#: stands for an existing directory.
OUTPUT_PATHS = [
    ["run", "--json", "DIR"],
    ["run", "--trace", "DIR"],
    ["erase", "--json", "/nonexistent/dir/r.json"],
    ["erase", "--json", "DIR"],
    ["report", "--scenarios", "browser-only", "--out", "/nonexistent/r/r.md"],
    ["report", "--scenarios", "classic-cdn", "--out", "DIR"],
    ["gen-trace", "--out", "/nonexistent/dir/t.jsonl"],
    ["gen-trace", "--out", "DIR"],
]


@pytest.mark.parametrize(
    "argv", OUTPUT_PATHS, ids=lambda argv: " ".join([argv[0]] + argv[-2:])
)
def test_unwritable_outputs_are_refused_before_the_work(
    monkeypatch, tmp_path, argv
):
    monkeypatch.setattr(cli, "_run", None)
    monkeypatch.setattr(cli, "_build_workload", None)
    path = argv[-1].replace("DIR", str(tmp_path))
    assert_one_line_naming(argv[:-1] + [path] + SMALL, path)


@pytest.mark.parametrize("workers", ["x", "0", "-3"])
def test_a_hostile_workers_variable_exits_naming_it(monkeypatch, workers):
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", workers)
    with pytest.raises(SystemExit) as err:
        main(["run"] + SMALL + ["--shards", "2"])
    message = str(err.value)
    assert message.startswith("repro: error: ")
    assert "\n" not in message  # one line, no traceback
    assert "REPRO_PARALLEL_WORKERS" in message and repr(workers) in message


def test_a_v2_replay_runs_at_the_recorded_seed(monkeypatch, tmp_path):
    """``--seed`` reaches the spec, and a v2 replay overrides it with
    the recording's root seed, so fault and network streams match."""
    path = tmp_path / "recorded.jsonl"
    assert main(["gen-trace", "--out", str(path), "--seed", "5"] + QUICK) == 0
    assert _captured_spec(monkeypatch, ["run", "--seed", "99"]).seed == 99
    replayed = _captured_spec(
        monkeypatch, ["run", "--replay", str(path), "--seed", "99"]
    )
    assert replayed.seed == 5


def test_storage_tuning_flags_reach_their_engine(monkeypatch):
    sharded = _captured_spec(
        monkeypatch, ["run", "--backend", "sharded", "--backend-shards", "4"]
    )
    assert sharded.backend == BackendSpec(kind="sharded", n_shards=4)
    default = _captured_spec(monkeypatch, ["run", "--backend", "sharded"])
    assert default.backend.n_shards == 8
    behind = _captured_spec(
        monkeypatch,
        ["run", "--backend", "write-behind", "--flush-interval", "5"],
    )
    assert behind.backend.flush_interval == 5.0
