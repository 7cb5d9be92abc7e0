"""Which code is which layer: the one place the attribution is defined.

The layers are this repo's packages. A profile entry lands in the
bucket of the ``src/repro`` package its source file lives in; C
functions land in ``builtins`` and every other Python file (standard
library, third-party, the benchmark itself) in ``stdlib``. A package
that is not listed in :data:`LAYERS` makes the traced run — and the
self-test — fail until it is added here, so a new subsystem cannot
hide in somebody else's share.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import repro

REPRO_ROOT = Path(repro.__file__).resolve().parent

#: Every directory under ``src/repro``.
LAYERS = (
    "sim",
    "http",
    "simnet",
    "origin",
    "cdn",
    "browser",
    "speedkit",
    "sketch",
    "storage",
    "coherence",
    "invalidation",
    "ttl",
    "obs",
    "faults",
    "gdpr",
    "txn",
    "overload",
    "workload",
    "harness",
    "baselines",
    "parallel",
)
BUCKETS = LAYERS + ("stdlib", "builtins")

#: Top-level modules of ``repro`` (``cli.py``, ``__main__.py``) drive
#: the harness and are billed to it.
_TOP_LEVEL_BUCKET = "harness"

#: The public boundary functions of each layer, as
#: ``(layer, "module:Class", methods, include_subclasses)``. The layer
#: is the one the boundary *belongs to*, which for ``CacheStore`` (the
#: policy front of every storage engine, housed in ``cdn/cache.py``) is
#: not the directory it lives in.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], bool], ...] = (
    ("speedkit", "repro.speedkit.worker:ServiceWorkerProxy", ("fetch",), False),
    (
        "browser",
        "repro.browser.transport:Transport",
        ("fetch_direct", "fetch_via_cdn", "fetch_many_via_cdn"),
        False,
    ),
    (
        "cdn",
        "repro.cdn.httpcache:HttpCache",
        ("serve", "serve_many", "admit"),
        False,
    ),
    ("storage", "repro.cdn.cache:CacheStore", ("get", "put"), False),
    (
        "storage",
        "repro.storage.backend:CacheBackend",
        ("get", "put", "get_many", "put_many", "remove_many"),
        True,
    ),
    ("origin", "repro.origin.server:OriginServer", ("handle",), False),
    (
        "coherence",
        "repro.coherence.checker:DeltaAtomicityChecker",
        ("record_read",),
        False,
    ),
    (
        "invalidation",
        "repro.invalidation.pipeline:InvalidationPipeline",
        ("_on_change",),
        False,
    ),
    ("sketch", "repro.sketch.cache_sketch:ServerCacheSketch", ("snapshot",), False),
    ("sketch", "repro.sketch.cache_sketch:ClientCacheSketch", ("contains",), False),
    ("gdpr", "repro.gdpr.erasure:ErasureCoordinator", ("erase", "access"), False),
    ("txn", "repro.txn.coordinator:TxnCoordinator", ("execute",), False),
    ("overload", "repro.overload.governor:NodeGovernor", ("acquire",), False),
)
ENTRY_LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))


def bucket_of(code) -> str:
    """The bucket of one ``cProfile`` entry's ``code`` field."""
    if isinstance(code, str):  # C function: "<built-in method ...>"
        return "builtins"
    try:
        relative = Path(code.co_filename).resolve().relative_to(REPRO_ROOT)
    except ValueError:
        return "stdlib"
    if len(relative.parts) == 1:
        return _TOP_LEVEL_BUCKET
    package = relative.parts[0]
    if package not in LAYERS:
        raise KeyError(f"src/repro/{package} has no bucket in {Path(__file__).name}")
    return package


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def entry_codes() -> Dict[object, str]:
    """Code object of every boundary function → its layer.

    With ``include_subclasses`` every override in a loaded subclass is
    a boundary too (the abstract ``CacheBackend.get`` never runs; the
    engines' do). Raises ``AttributeError`` for a name that no longer
    exists, so a rename cannot silently zero a metric.
    """
    codes: Dict[object, str] = {}
    for layer, target, methods, include_subclasses in ENTRY_POINTS:
        module_name, class_name = target.split(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            codes[getattr(cls, method).__code__] = layer
        if include_subclasses:
            for sub in _subclasses(cls):
                for method in methods:
                    if method in vars(sub):
                        codes[vars(sub)[method].__code__] = layer
    return codes


def roll_up(stats: List, pages: int) -> Dict[str, float]:
    """Per-layer shares and counts from ``cProfile.Profile.getstats()``.

    ``self_share`` is the layer's share of profiled self time (each
    call's duration minus its callees) — shares, not seconds, because
    the profiler inflates absolute time about threefold. A generator
    resume counts as a call, so ``entry_calls_per_page`` of a generator
    boundary counts resumes. ``entry_cum_share`` sums the inclusive
    time of a layer's boundary functions; where they nest (a wrapping
    storage engine calling the engine it wraps) the inner time is
    counted at each level, so read it as an upper bound.
    """
    self_time = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    entry_time = dict.fromkeys(ENTRY_LAYERS, 0.0)
    entry_calls = dict.fromkeys(ENTRY_LAYERS, 0)
    boundaries = entry_codes()
    for entry in stats:
        bucket = bucket_of(entry.code)
        self_time[bucket] += entry.inlinetime
        calls[bucket] += entry.callcount
        layer = boundaries.get(entry.code)
        if layer is not None:
            entry_time[layer] += entry.totaltime
            entry_calls[layer] += entry.callcount
    total = sum(self_time.values())
    metrics: Dict[str, float] = {}
    for bucket in BUCKETS:
        metrics[f"{bucket}.self_share"] = self_time[bucket] / total
        metrics[f"{bucket}.calls_per_page"] = calls[bucket] / pages
    for layer in ENTRY_LAYERS:
        metrics[f"{layer}.entry_cum_share"] = entry_time[layer] / total
        metrics[f"{layer}.entry_calls_per_page"] = entry_calls[layer] / pages
    return metrics
