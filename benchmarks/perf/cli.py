"""Command line of the wall-clock ledger (``python -m benchmarks.perf``).

``bench`` is the single command ``BENCHMARK.json`` names: one workload,
measured in this process, one JSON object as the last line of stdout.
``run`` and ``traced`` are what people type: every workload, each in a
fresh ``bench`` subprocess (``ru_maxrss`` is monotone within a process),
gathered into one result file that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.perf.compare import (
    ROOT,
    compare,
    format_list,
    format_rows,
    load_contract,
    read_json,
)
from benchmarks.perf.measure import run_untraced
from benchmarks.perf.traced import run_traced
from benchmarks.perf.workloads import PERF_DIR, WORKLOADS, build_episodes


def write_json_atomic(path: Path, document: dict) -> None:
    """Temp file in the target's directory, then ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def format_metrics(name: str, detail: dict) -> str:
    lines = [f"workload {name}"]
    for key, metric in detail["metrics"].items():
        line = f"  {key:<38} {metric['value']:>14.6g} {metric['unit']:<8}"
        if metric.get("n", 0) > 1:
            line += f" q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}"
        if "n" in metric:
            line += f"  n {metric['n']}"
        lines.append(line)
    for check, passed in detail["checks"].items():
        lines.append(f"  check {check}: {'ok' if passed else 'FAILED'}")
    return "\n".join(lines)


def cmd_bench(args) -> int:
    if args.trace:
        detail = run_traced(args.workload, args.seed, args.duration)
    else:
        detail = run_untraced(args.workload, args.seed, args.seconds, args.duration)
    if args.detail:
        write_json_atomic(Path(args.detail), detail)
    print(format_metrics(args.workload, detail))
    print(
        json.dumps(
            {
                "correct": detail["correct"],
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {
                    key: {"value": metric["value"], "unit": metric["unit"]}
                    for key, metric in detail["metrics"].items()
                },
            }
        )
    )
    return 0


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_gather(args) -> int:
    """``run`` / ``traced``: every workload in its own subprocess."""
    names = args.workload or list(WORKLOADS)
    if args.out:
        out = Path(args.out)
    else:
        out = Path(tempfile.mkdtemp(prefix="repro-perf-")) / f"{args.kind}.json"
    document: Dict[str, object] = {
        "kind": args.kind,
        "seed": args.seed,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
        },
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(dir=PERF_DIR, prefix=".tmp-") as tmp:
        for name in names:
            detail_path = Path(tmp) / f"{name}.json"
            command = [
                sys.executable,
                str(PERF_DIR / "__main__.py"),
                "bench",
                *("--workload", name),
                *("--seed", str(args.seed)),
                *("--trace", "1" if args.kind == "traced" else "0"),
                *("--detail", str(detail_path)),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.duration is not None:
                command += ["--duration", str(args.duration)]
            finished = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # The child's last line is the driver's JSON; people get the table.
            print("\n".join(finished.stdout.splitlines()[:-1]), flush=True)
            if finished.returncode != 0:
                print(f"workload {name}: bench exited {finished.returncode}")
                ok = False
                continue
            detail = read_json(detail_path)
            document["workloads"][name] = detail
            ok &= detail["correct"]
    write_json_atomic(out, document)
    print(f"wrote {out}")
    return 0 if ok else 1


def cmd_setup_probe(args) -> int:
    build_episodes(args.workload, args.seed, args.duration)
    return 0


def cmd_list(args) -> int:
    print(format_list(load_contract()))
    return 0


def cmd_compare(args) -> int:
    rows, regressed = compare(
        load_contract(), read_json(args.base), read_json(args.new)
    )
    print(format_rows(rows))
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_inputs(sub, many: bool) -> None:
        if many:
            sub.add_argument("--workload", choices=list(WORKLOADS), action="append")
        else:
            sub.add_argument("--workload", choices=list(WORKLOADS), required=True)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--duration",
            type=float,
            default=None,
            help="simulated seconds per episode (default: the workload's "
            "own); the self-test uses 60",
        )

    bench = commands.add_parser("bench", help="one workload, in-process")
    add_inputs(bench, many=False)
    bench.add_argument(
        "--seconds",
        type=float,
        default=float(load_contract()["run_seconds"]),
        help="replay time to measure; one pass over the episodes always "
        "completes",
    )
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.add_argument(
        "--detail", default=None, help="also write medians with quartiles"
    )
    bench.set_defaults(func=cmd_bench)

    probe = commands.add_parser(
        "setup-probe", help="set up one workload and exit (times setup_s)"
    )
    add_inputs(probe, many=False)
    probe.set_defaults(func=cmd_setup_probe)

    for kind, text in (
        ("run", "end-to-end metrics of every workload, tracing off"),
        ("traced", "per-layer metrics of every workload"),
    ):
        gather = commands.add_parser(kind, help=text)
        add_inputs(gather, many=True)
        gather.add_argument("--seconds", type=float, default=None)
        gather.add_argument(
            "--out",
            default=None,
            help="result file (default: a new temporary directory, so a "
            "plain run leaves the tree clean)",
        )
        gather.set_defaults(func=cmd_gather, kind=kind)

    comparer = commands.add_parser(
        "compare", help="judge NEW against BASE by BENCHMARK.json's bounds"
    )
    comparer.add_argument("base")
    comparer.add_argument("new")
    comparer.set_defaults(func=cmd_compare)

    lister = commands.add_parser("list", help="workloads, metrics, units and bounds")
    lister.set_defaults(func=cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)
