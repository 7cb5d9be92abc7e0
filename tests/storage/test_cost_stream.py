"""The storage cost stream, pinned: every engine kind, one script.

A scripted sequence of protocol calls runs through every
``BackendSpec`` kind (the pipelined kinds with ``overlap`` off and on)
and through a ``FlakyBackend`` over write-behind. It covers the
single-key operations, the batched forms, ``scan``,
``erase_matching``, ``residuals_matching``, the GDPR queue views,
``clear``, drains with and without ``concurrent``, and ``sync``. The
stream records every answer and ``pending_latency`` after each step,
each drain's and barrier's return value, the engine stack's
diagnostics, and the next draw of each latency or failure RNG, all
committed in ``fixtures/cost_stream.json``.

A change to how an engine is composed must leave the stream exactly
as it is; the mutant — a write-behind flush that charges its
mutations as reads — trips the gate.

Regenerate the fixture (only when a change is *meant* to move the
stream) with ``PYTHONPATH=src python -m tests.storage.test_cost_stream``.
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultyBackendSpec
from repro.storage import BACKEND_KINDS, BackendSpec, BatchedRemoteBackend

FIXTURE = Path(__file__).parent / "fixtures" / "cost_stream.json"

_PIPELINED = ("batched", "write-behind")

#: Every configuration the script runs through, by name.
CONFIGS = {
    **{
        kind: BackendSpec(kind=kind, seed=3)
        for kind in BACKEND_KINDS
        if kind not in _PIPELINED
    },
    **{
        f"{kind}-overlap-{overlap}": BackendSpec(kind=kind, overlap=overlap, seed=3)
        for kind in _PIPELINED
        for overlap in (False, True)
    },
    **{
        f"flaky-over-write-behind-overlap-{overlap}": FaultyBackendSpec.wrapping(
            BackendSpec(kind="write-behind", overlap=overlap, seed=3),
            error_rate=0.3,
            fault_seed=5,
        )
        for overlap in (False, True)
    },
}

#: Diagnostics an engine stack may keep, each read from the outermost
#: layer that has it.
DIAGNOSTICS = (
    "background_latency",
    "total_latency",
    "overlap_hidden",
    "op_counts",
    "batches_flushed",
    "keys_batched",
    "epochs_flushed",
    "mutations_flushed",
    "acks",
    "failures",
)


def _layers(engine):
    while engine is not None:
        yield engine
        engine = getattr(engine, "inner", None)


def _diagnostics(engine):
    found = {}
    for layer in _layers(engine):
        for name in DIAGNOSTICS:
            if name not in found and hasattr(layer, name):
                value = getattr(layer, name)
                found[name] = dict(value) if isinstance(value, dict) else value
    return found


def _next_draws(engine):
    """The next draw of every RNG in the stack, outermost first."""
    return [
        getattr(layer, name).random()
        for layer in _layers(engine)
        for name in ("_rng", "rng")
        if hasattr(layer, name)
    ]


def _is_erased(key, value):
    return isinstance(value, str) and value.startswith("user-7")


def stream_of(engine):
    """Run the script against ``engine``; returns its recorded stream."""
    rows = []

    def step(label, answer=None):
        if isinstance(answer, dict):
            answer = sorted(answer.items())
        rows.append([label, answer, engine.pending_latency()])

    def drain(concurrent=None):
        if concurrent is None:
            paid = engine.drain_latency()
        else:
            paid = engine.drain_latency(concurrent)
        step(f"drain {concurrent}", paid)

    for key, value, size in (
        ("a", "user-7:a", 3),
        ("b", "plain-b", 5),
        ("c", "user-7:c", 2),
    ):
        engine.put(key, value, size)
        step(f"put {key}")
    step("get a", engine.get("a"))
    step("get missing", engine.get("missing"))
    drain()
    step("get a", engine.get("a"))
    step("get b", engine.get("b"))
    step("peek c", engine.peek("c"))
    step("contains b", "b" in engine)
    engine.put_many([("d", "plain-d", 4), ("e", "user-7:e", 6)])
    step("put_many d e")
    step("get_many a d x", engine.get_many(["a", "d", "x"]))
    step("queued_matching", sorted(engine.queued_matching(_is_erased)))
    drain(0.0005)
    step("remove a", engine.remove("a"))
    step("remove missing", engine.remove("missing"))
    step("remove_many b zz", engine.remove_many(["b", "zz"]))
    step("scan", sorted(engine.scan()))
    step("scan d", sorted(engine.scan("d")))
    drain(0.01)
    engine.put("f", "user-7:f", 1)
    step("scrub_pending", engine.scrub_pending(_is_erased))
    step("erase_matching", engine.erase_matching(_is_erased))
    step("residuals_matching", sorted(engine.residuals_matching(_is_erased)))
    drain(0.0)
    engine.put("g", "plain-g", 2)
    engine.remove("d")
    engine.put("d", "plain-d2", 3)
    step("sync", engine.sync())
    step("sync again", engine.sync())
    # More reads than one batch window holds, then a direction turn.
    for index in range(20):
        step(f"get g #{index}", engine.get("g" if index % 3 else "d"))
    engine.put("h", "plain-h", 7)
    step("put h")
    step("get h", engine.get("h"))
    engine.remove("g")
    step("get g", engine.get("g"))
    drain(0.002)
    step("len", len(engine))
    step("bytes_used", engine.bytes_used)
    step("keys", sorted(engine.keys()))
    engine.put("i", "user-7:i", 2)
    engine.clear()
    step("clear")
    drain()
    step("sync after clear", engine.sync())
    step("len after clear", len(engine))
    return {
        "steps": rows,
        "diagnostics": _diagnostics(engine),
        "next_draws": _next_draws(engine),
    }


def streams():
    return {
        name: stream_of(spec.build(salt=f"pop-{name}"))
        for name, spec in sorted(CONFIGS.items())
    }


def committed():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _as_json(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_cost_stream_is_pinned(name):
    stream = stream_of(CONFIGS[name].build(salt=f"pop-{name}"))
    assert _as_json(stream) == committed()[name]


def test_every_backend_kind_runs_the_script():
    assert {spec.kind for spec in CONFIGS.values()} == set(BACKEND_KINDS)


def test_the_gate_trips_on_a_flush_charged_as_reads(monkeypatch):
    """The mutant: mutations flushed from the write-behind queue (and
    the batched forms they travel as) take read-pipeline slots."""
    charge = BatchedRemoteBackend._charge_batched

    def as_reads(self, op, is_write):
        charge(self, op, is_write and op not in ("put_many", "remove_many"))

    monkeypatch.setattr(BatchedRemoteBackend, "_charge_batched", as_reads)
    for name in ("write-behind-overlap-False", "flaky-over-write-behind-overlap-True"):
        stream = stream_of(CONFIGS[name].build(salt=f"pop-{name}"))
        assert _as_json(stream) != committed()[name]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = (f"{json.dumps(name)}: {json.dumps(row)}" for name, row in streams().items())
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
