"""The untraced run: end-to-end metrics of one workload in this process.

Measurement hygiene (each point has a line in the README):

* the first replay of the process is discarded — it fills the parse
  memos (0.3 % more calls, up to 15 % more wall time);
* timed replays never run under a profiler or with ``trace_requests``
  (the traced run owns both);
* the caller runs one workload per process, because ``ru_maxrss`` is
  monotone within a process;
* host time is reported in *reference-host seconds*: every timed replay
  and set-up probe is preceded by a fixed calibration loop, and its
  seconds are scaled by how fast the host ran that loop. The shared
  sandbox changes speed by a quarter in phases longer than a run, which
  no median inside one run can remove; the calibration cuts the
  run-to-run spread of ``pages_per_s`` about threefold.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.harness import SimulationRunner
from repro.harness.results import RunResult
from repro.sim.metrics import Histogram

from benchmarks.perf.workloads import PERF_DIR, Episode, build_episodes

#: One fresh interpreter is timed for ``setup_s`` before every this-many
#: timed replays, so the probes sample the whole run, not its first
#: seconds: the shared host changes speed in phases longer than a probe.
REPLAYS_PER_SETUP_PROBE = 3


#: Seconds ``calibrate()`` takes on the reference sandbox at its usual
#: speed; a host that needs twice as long is running at speed 0.5.
CALIBRATION_REFERENCE_S = 0.125


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, nxt) -> None:
        self.value = 0
        self.next = nxt

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def _ticks(count: int):
    yield from range(count)


def host_speed() -> float:
    """How fast the host is right now; 1.0 = the reference sandbox.

    Times a fixed loop of what the simulator spends its time on —
    generator resumes, method calls, string formatting, dict and heap
    traffic, small allocations. **Frozen**: editing this loop re-bases
    every host-time metric, exactly like editing a workload.
    """
    started = time.perf_counter()
    table: Dict[str, _Node] = {}
    heap: List[tuple] = []
    head = None
    for i in _ticks(120_000):
        key = "k%d" % (i % 5003)
        node = table.get(key)
        if node is None:
            node = table[key] = head = _Node(head)
        node.bump(i)
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return CALIBRATION_REFERENCE_S / (time.perf_counter() - started)


def replay(episode: Episode, **spec_overrides) -> RunResult:
    """One replay through the public runner, tracing off by default."""
    spec = replace(episode.spec, **spec_overrides)
    return SimulationRunner(spec, episode.catalog, episode.users, episode.trace).run()


def sim_digest(result: RunResult) -> str:
    """The bit-identity witness of one replay's simulated outputs."""
    blob = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def responses(result: RunResult) -> int:
    """Responses the simulated stack produced, of any outcome."""
    return (
        sum(result.served_by_layer.values())
        + result.failed_responses
        + result.shed_responses
    )


def violations(result: RunResult) -> int:
    """Invariant breaches: the simulator itself got something wrong."""
    return (
        result.delta_violations
        + result.erasure_residuals
        + result.txn_fractured_reads
        + result.txn_serialization_violations
        + result.txn_silent_downgrades
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(values: List[float], unit: str) -> Dict[str, object]:
    """Median, quartiles and sample count of one metric."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def time_setup(name: str, seed: int, duration: Optional[float]) -> float:
    """Wall seconds of one fresh interpreter doing set-up, timed from outside.

    Process start to ready-to-replay: interpreter start, importing
    ``repro``, generating every episode, and the trace-file round trip.
    """
    command = [sys.executable, str(PERF_DIR / "__main__.py"), "setup-probe"]
    command += ["--workload", name, "--seed", str(seed)]
    if duration is not None:
        command += ["--duration", str(duration)]
    started = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def run_untraced(
    name: str, seed: int, seconds: float, duration: Optional[float]
) -> Dict[str, object]:
    """Measure every end-to-end metric of one workload."""
    episodes = build_episodes(name, seed, duration)

    warm_up = sim_digest(replay(episodes[0]))  # discarded: memo fill

    # First pass: every episode once — the fixed work the simulated
    # statistics come from. Then keep cycling until ``seconds`` of
    # replay have been measured, so a fast host takes more samples.
    first_pass: List[RunResult] = []
    digests: List[str] = []
    rates: List[float] = []
    raw_rates: List[float] = []
    speeds: List[float] = []
    setup: List[float] = []
    deterministic = True
    measured = 0.0
    while len(rates) < len(episodes) or measured < seconds:
        if len(rates) % REPLAYS_PER_SETUP_PROBE == 0:
            setup.append(host_speed() * time_setup(name, seed, duration))
        speeds.append(host_speed())
        slot = len(rates) % len(episodes)
        result = replay(episodes[slot])
        digest = sim_digest(result)
        if len(rates) < len(episodes):
            first_pass.append(result)
            digests.append(digest)
        deterministic &= digest == digests[slot]
        raw_rates.append(result.page_views / result.wall_seconds)
        rates.append(raw_rates[-1] / speeds[-1])
        measured += result.wall_seconds
    rss = peak_rss_mb()

    checks = {
        "replays_share_one_digest": deterministic and warm_up == digests[0],
        "page_views_match_trace": all(
            r.page_views == e.page_views for r, e in zip(first_pass, episodes)
        ),
        "admission_ledger_balances": all(
            r.offered_requests == r.admitted_requests + r.shed_requests
            for r in first_pass
        ),
    }

    pages = sum(r.page_views for r in first_pass)
    plt = Histogram("plt.pooled")
    for result in first_pass:
        plt.merge(result.plt)
    attempted = sum(responses(r) for r in first_pass)
    failed_or_shed = sum(r.failed_responses + r.shed_responses for r in first_pass)
    violated = sum(violations(r) for r in first_pass)
    origin = sum(r.served_by_layer.get("origin", 0) for r in first_pass)
    metrics = {
        "setup_s": summarize(setup, "s"),
        # One pass over the episodes at each replay's rate: the same
        # samples as pages_per_s, free of the episodes' unequal sizes.
        "wall_s": summarize([pages / rate for rate in rates], "s"),
        "pages_per_s": summarize(rates, "pages/s"),
        "peak_rss_mb": summarize([rss], "MiB"),
        "sim_plt_p50_ms": summarize([plt.percentile(50) * 1e3], "ms"),
        "sim_plt_p95_ms": summarize([plt.percentile(95) * 1e3], "ms"),
        "sim_origin_share": summarize([origin / (attempted - failed_or_shed)], "ratio"),
        "sim_ok_share": summarize(
            [1.0 - (failed_or_shed + violated) / attempted], "ratio"
        ),
    }
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": violated,
        "metrics": metrics,
        "checks": checks,
        "info": {
            "sim_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "episodes": len(episodes),
            "sim_seconds_per_episode": episodes[0].trace.duration,
            "trace_events": sum(len(e.trace) for e in episodes),
            "page_views": pages,
            "kernel_events": sum(r.kernel_events for r in first_pass),
            "sim_hit_ratio": statistics.fmean(r.cache_hit_ratio() for r in first_pass),
            "sim_failed_or_shed": failed_or_shed,
            "host_speed": statistics.median(speeds),
            "raw_pages_per_s": statistics.median(raw_rates),
        },
    }
