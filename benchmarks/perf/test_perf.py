"""Self-test of the wall-clock ledger (``pytest benchmarks/perf -q``).

Runs 60-simulated-second copies of every workload through the same
code path as the real benchmark (``--duration 60``), so it checks the
plumbing — names, units, determinism, attribution, ``compare`` — in
about a minute, not the numbers. Not part of the tier-1 ``testpaths``.
"""

import copy
import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf.compare import ROOT, compare, load_contract
from benchmarks.perf.layers import ENTRY_POINTS, LAYERS, REPRO_ROOT, entry_codes
from benchmarks.perf.workloads import PERF_DIR, WORKLOADS

MAIN = str(PERF_DIR / "__main__.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONTRACT = load_contract()


def perf(*argv, check=True):
    return subprocess.run(
        [sys.executable, MAIN, *argv],
        cwd=ROOT,
        check=check,
        capture_output=True,
        text=True,
    )


def gather(kind, out):
    perf(kind, "--duration", "60", "--seconds", "0", "--out", str(out))
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two complete untraced result files, each workload a new process."""
    tmp = tmp_path_factory.mktemp("run")
    return [gather("run", tmp / f"{name}.json") for name in "ab"]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return [gather("traced", tmp / f"{name}.json") for name in "ab"]


def assert_matches_contract(document, section):
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, detail in document["workloads"].items():
        emitted = {k: m["unit"] for k, m in detail["metrics"].items()}
        assert emitted == declared, name
        assert detail["correct"], (name, detail["checks"])
        assert detail["attempted"] >= 1 and detail["failed"] == 0


def test_contract_is_well_formed():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in CONTRACT["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_run_emits_exactly_the_end_to_end_metrics(runs):
    for document in runs:
        assert_matches_contract(document, "end_to_end")
        for detail in document["workloads"].values():
            assert all(m["value"] > 0 for m in detail["metrics"].values())


def test_simulated_outputs_and_counts_repeat_across_processes(runs, traced_runs):
    for name in WORKLOADS:
        a, b = (document["workloads"][name] for document in runs)
        assert a["info"]["sim_digest"] == b["info"]["sim_digest"], name
        for key in a["metrics"]:
            if key.startswith("sim_"):
                assert a["metrics"][key] == b["metrics"][key], (name, key)
        a, b = (document["workloads"][name] for document in traced_runs)
        for key in a["metrics"]:
            if key.endswith(".calls_per_page"):
                assert a["metrics"][key] == b["metrics"][key], (name, key)


def test_traced_emits_exactly_the_per_layer_metrics(traced_runs):
    for document in traced_runs:
        assert_matches_contract(document, "per_layer")
        for name, detail in document["workloads"].items():
            shares = [
                metric["value"]
                for key, metric in detail["metrics"].items()
                if key.endswith(".self_share")
            ]
            assert sum(shares) == pytest.approx(1.0, abs=1e-3), name


def test_bench_prints_the_driver_object_last():
    flags = "--workload miss-path --seed 3 --duration 60 --seconds 0 --trace 0"
    out = perf("bench", *flags.split()).stdout
    last = json.loads(out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_every_repro_package_has_a_bucket():
    packages = {
        path.name
        for path in REPRO_ROOT.iterdir()
        if path.is_dir() and path.name != "__pycache__"
    }
    assert packages == set(LAYERS)


def test_every_entry_point_resolves():
    assert {entry[0] for entry in ENTRY_POINTS} <= set(LAYERS)
    codes = entry_codes()  # raises AttributeError on a stale name
    assert len(codes) >= sum(len(entry[2]) for entry in ENTRY_POINTS)


def test_compare_passes_itself_and_flags_an_injected_regression(runs, tmp_path):
    base = runs[0]
    rows, regressed = compare(CONTRACT, base, base)
    assert not regressed
    verdicts = {row["verdict"] for row in rows}
    assert verdicts <= {"within-bound", "unresolved", "identical"}

    # Slow wall_s down by more than the bound plus the runs' own spread.
    slower = copy.deepcopy(base)
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "wall_s")
    for detail in slower["workloads"].values():
        metric = detail["metrics"]["wall_s"]
        spread = (metric["q3"] - metric["q1"]) / metric["value"]
        for key in ("value", "q1", "q3"):
            metric[key] *= 1.05 + bound + spread
    rows, regressed = compare(CONTRACT, base, slower)
    assert regressed
    flagged = {
        (row["workload"], row["metric"])
        for row in rows
        if row["verdict"] == "regressed"
    }
    assert flagged == {(name, "wall_s") for name in WORKLOADS}

    paths = []
    for label, document in (("base", base), ("slower", slower)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(document))
    assert perf("compare", str(paths[0]), str(paths[0])).returncode == 0
    failed = perf("compare", str(paths[0]), str(paths[1]), check=False)
    assert failed.returncode == 1 and "regressed" in failed.stdout
