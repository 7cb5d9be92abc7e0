"""Trace ingestion: foreign access logs become replayable workloads.

This is the trace-ingestion harness the ROADMAP asks for (in the
style of the CacheBench/Cydonia ``TraceReplay`` tooling): real-world
request skew and GDPR-style erase/access mixes enter the simulator as
just another traffic source, replayable under every configuration like
a generated trace.

Three pieces live here:

* :func:`import_access_log` — read a public web-access-log schema
  (CSV or JSONL: timestamp, client id, URL/key, method) and map its
  foreign keys onto the simulation's catalog pages and user
  population *deterministically* (stable hashing, no RNG), so the
  same log always yields the same trace.
* :func:`rescale_trace` — the ``--replay-rate R`` time-compression
  knob: divide every timestamp (and the duration) by ``R`` so a
  multi-hour log replays in minutes of simulated time. The runner
  compresses its wall-time-gap accounting (Δ bound, TTLs, purge
  pipeline latencies) by the same factor via
  :meth:`~repro.harness.scenarios.ScenarioSpec.time_scaled`.
* :func:`validate_trace_world` — the loud-failure path for replayed
  trace files: every ``user_id``/``product_id``/category the events
  reference must exist in the replay world (flag-built for v1,
  embedded for v2), otherwise replay refuses with an actionable error
  instead of a late ``KeyError`` deep inside the stack.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, List, Optional, Tuple, Union

from repro.workload.catalog import Catalog
from repro.workload.trace import (
    AccessUser,
    CartAdd,
    EraseUser,
    PageView,
    ProductUpdate,
    TraceEvent,
    TxnRead,
    UserEvent,
    WorkloadTrace,
)
from repro.workload.users import UserPopulation
from repro.workload.world import WorldSpec

__all__ = [
    "import_access_log",
    "rescale_trace",
    "validate_trace_world",
]

#: Canonical access-log fields; aliases accepted per field.
_FIELD_ALIASES = {
    "timestamp": ("timestamp", "ts", "time", "at"),
    "client": ("client", "client_id", "user", "ip"),
    "url": ("url", "key", "path", "request"),
    "method": ("method", "verb", "op"),
}

#: Methods that map to user writes (cart adds on the mapped product).
_WRITE_METHODS = ("POST", "PUT", "PATCH")


def _stable_index(text: str, modulus: int) -> int:
    """Deterministic bucket for a foreign key (no RNG, no PYTHONHASHSEED)."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return int(digest, 16) % modulus


def _parse_timestamp(value, lineno: int) -> float:
    """Epoch seconds from a numeric or ISO-8601 timestamp."""
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as err:
        raise ValueError(
            f"line {lineno}: unparseable timestamp {value!r} "
            "(need epoch seconds or ISO-8601)"
        ) from err
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def _pick_field(row: dict, field: str, lineno: int, required: bool = True):
    for alias in _FIELD_ALIASES[field]:
        if alias in row and row[alias] not in (None, ""):
            return row[alias]
    if required:
        raise ValueError(
            f"line {lineno}: access-log record has no {field!r} field "
            f"(accepted names: {', '.join(_FIELD_ALIASES[field])})"
        )
    return None


def _iter_rows(
    handle: IO, fmt: str, source_name: str
) -> Iterable[Tuple[int, dict]]:
    """(1-based line number, raw record dict) pairs for either format."""
    if fmt == "auto":
        first = handle.readline()
        handle.seek(0)
        stripped = first.lstrip()
        fmt = "jsonl" if stripped.startswith("{") else "csv"
    if fmt == "jsonl":
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"{source_name}: line {lineno}: malformed JSON: {err}"
                ) from err
            if not isinstance(record, dict):
                raise ValueError(
                    f"{source_name}: line {lineno}: expected a JSON "
                    f"object, got {type(record).__name__}"
                )
            yield lineno, record
        return
    if fmt != "csv":
        raise ValueError(f"unknown access-log format {fmt!r}")
    reader = csv.reader(handle)
    header: Optional[List[str]] = None
    known = {alias for aliases in _FIELD_ALIASES.values() for alias in aliases}
    for lineno, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        cells = [cell.strip() for cell in row]
        if header is None:
            if cells[0].lower() in known:
                header = [cell.lower() for cell in cells]
                continue
            # Headerless: assume the canonical column order.
            header = ["timestamp", "client", "url", "method"]
        yield lineno, dict(zip(header, cells))


def _map_url(path: str, catalog: Catalog) -> Tuple[str, str]:
    """Map a foreign URL path onto a catalog page, deterministically.

    ``/`` (or ``/index*``) is the home page; a first path segment that
    names one of the catalog's categories is that category page;
    anything else hashes stably onto a product, so each distinct
    foreign URL pins one product page across imports and machines.
    """
    segments = [part for part in path.split("/") if part]
    if not segments or segments[0].startswith("index"):
        return "home", ""
    if segments[0] in catalog.config.categories:
        return "category", segments[0]
    index = _stable_index(path, len(catalog.products))
    return "product", catalog.products[index].product_id


def import_access_log(
    source: Union[str, Path, IO],
    catalog: Catalog,
    users: UserPopulation,
    fmt: str = "auto",
    world: Optional[WorldSpec] = None,
    normalize_t0: bool = True,
) -> WorkloadTrace:
    """Ingest a web access log as a replayable :class:`WorkloadTrace`.

    Schema (CSV with a header row, headerless CSV in canonical order,
    or JSONL objects): ``timestamp`` (epoch seconds or ISO-8601),
    ``client`` (any opaque client id), ``url``, ``method`` (default
    ``GET``). The event mapping is:

    * ``GET`` → :class:`PageView` on the page :func:`_map_url` picks,
      except ``GET /gdpr/access`` → :class:`AccessUser`;
    * ``POST``/``PUT``/``PATCH`` → :class:`CartAdd` on the mapped
      product (``/gdpr/...`` paths excluded);
    * ``DELETE`` (any path) or any method on ``/gdpr/erase`` →
      :class:`EraseUser`.

    Clients hash stably onto the user population and URLs onto the
    catalog, so the import is a pure function of (log bytes, world).
    With ``normalize_t0`` the earliest event is shifted to t=0 (epoch
    stamps would otherwise start the simulation clock in 1970-relative
    billions of seconds).
    """
    def read(handle: IO, source_name: str) -> WorkloadTrace:
        stamped: List[Tuple[float, TraceEvent]] = []
        for lineno, row in _iter_rows(handle, fmt, source_name):
            try:
                at = _parse_timestamp(
                    _pick_field(row, "timestamp", lineno), lineno
                )
                client = str(_pick_field(row, "client", lineno))
                url = str(_pick_field(row, "url", lineno))
                method_raw = _pick_field(
                    row, "method", lineno, required=False
                )
                method = str(method_raw or "GET").upper()
            except ValueError as err:
                raise ValueError(f"{source_name}: {err}") from err
            user_id = users.users[
                _stable_index(client, len(users.users))
            ].user_id
            path = url.split("?", 1)[0]
            segments = [part for part in path.split("/") if part]
            gdpr_op = segments[1] if segments[:1] == ["gdpr"] else None
            if method == "DELETE" or gdpr_op == "erase":
                event: TraceEvent = EraseUser(at=at, user_id=user_id)
            elif gdpr_op == "access":
                event = AccessUser(at=at, user_id=user_id)
            elif gdpr_op is not None:
                raise ValueError(
                    f"{source_name}: line {lineno}: unknown GDPR "
                    f"operation {gdpr_op!r} (expected erase or access)"
                )
            elif method in _WRITE_METHODS:
                kind, target = _map_url(path, catalog)
                product_id = (
                    target
                    if kind == "product"
                    else catalog.products[
                        _stable_index(path, len(catalog.products))
                    ].product_id
                )
                event = CartAdd(
                    at=at, user_id=user_id, product_id=product_id
                )
            elif method == "GET":
                kind, target = _map_url(path, catalog)
                event = PageView(
                    at=at, user_id=user_id, page_kind=kind, target=target
                )
            else:
                raise ValueError(
                    f"{source_name}: line {lineno}: unsupported method "
                    f"{method!r} (expected GET/POST/PUT/PATCH/DELETE)"
                )
            stamped.append((at, event))
        if not stamped:
            raise ValueError(f"{source_name}: no events in access log")
        t0 = min(at for at, _ in stamped) if normalize_t0 else 0.0
        events = sorted(
            (replace(event, at=at - t0) for at, event in stamped),
            key=lambda event: event.at,
        )
        trace = WorkloadTrace(
            events=events,
            duration=events[-1].at,
            world=(
                replace(world, source=f"imported:{source_name}")
                if world is not None
                else None
            ),
        )
        trace.validate()
        return trace

    if hasattr(source, "readline"):
        return read(source, "<stream>")
    with open(source, "r", encoding="utf-8", newline="") as handle:
        return read(handle, str(source))


def rescale_trace(trace: WorkloadTrace, rate: float) -> WorkloadTrace:
    """Time-compress a trace by ``rate`` (2.0 → twice as fast).

    Every timestamp and the duration divide by ``rate``; event order,
    identity, and the attached world are untouched. Replay must scale
    its wall-time-gap accounting by the same factor
    (:meth:`~repro.harness.scenarios.ScenarioSpec.time_scaled`) for
    the compressed run to reproduce the original cache dynamics.
    """
    if not 0 < rate < float("inf"):
        raise ValueError(f"replay rate must be positive and finite: {rate}")
    if rate == 1.0:
        return trace
    return WorkloadTrace(
        events=[
            replace(event, at=event.at / rate) for event in trace.events
        ],
        duration=trace.duration / rate,
        world=trace.world,
    )


#: Event kinds the load multiplier amplifies: *user traffic*. The
#: background write stream (``ProductUpdate``) and GDPR requests
#: (``EraseUser``/``AccessUser``) model site operations and legal
#: obligations, which a flash crowd does not multiply.
_AMPLIFIED = (PageView, CartAdd, TxnRead)


def _amplify_jitter(event: UserEvent, copy: int) -> float:
    """Deterministic per-(event, copy) jitter in ``[0, 1)``.

    Keyed on the event's own identity (never a running counter), so
    amplifying a per-user trace slice yields exactly the clones that
    slice would receive from amplifying the whole trace — the property
    that makes ``--load-multiplier`` commute with ``--shards``
    partitioning.
    """
    if isinstance(event, PageView):
        target = event.target
    elif isinstance(event, CartAdd):
        target = event.product_id
    else:
        target = ""
    digest = hashlib.sha256(
        f"amplify:{event.at!r}:{event.user_id}:{target}:{copy}".encode(
            "utf-8"
        )
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def amplify_trace(trace: WorkloadTrace, multiplier: float) -> WorkloadTrace:
    """Multiply the trace's *user traffic* by ``multiplier`` (≥ 1).

    Every :class:`PageView`/:class:`CartAdd`/:class:`TxnRead` is
    cloned ``multiplier − 1`` extra times (fractional multipliers
    clone a deterministic hash-selected subset), each clone keeping
    its user and landing within one second of the original — a flash
    crowd is the *same* population hammering the same pages, so clones
    stay on their user's client stack and, under ``--shards``, in
    their user's shard. Background writes and GDPR events are never
    amplified. Timestamps stay sorted; duration and the attached world
    are untouched.
    """
    if not 1 <= multiplier < float("inf"):
        raise ValueError(
            f"load multiplier must be finite and >= 1: {multiplier}"
        )
    if multiplier == 1.0:
        return trace
    whole = int(multiplier)
    fraction = multiplier - whole
    events: List[TraceEvent] = []
    for event in trace.events:
        events.append(event)
        if not isinstance(event, _AMPLIFIED):
            continue
        copies = whole - 1
        if fraction and _amplify_jitter(event, 0) < fraction:
            copies += 1
        for copy in range(1, copies + 1):
            offset = _amplify_jitter(event, copy)
            events.append(
                replace(
                    event,
                    at=min(event.at + offset, trace.duration),
                )
            )
    events.sort(key=lambda event: event.at)
    return WorkloadTrace(
        events=events, duration=trace.duration, world=trace.world
    )


def _event_refs(event: TraceEvent) -> Tuple[Optional[str], List[str], List[str]]:
    """(user_id, product_ids, categories) one event references."""
    if isinstance(event, PageView):
        if event.page_kind == "product":
            return event.user_id, [event.target], []
        if event.page_kind == "category":
            return event.user_id, [], [event.target]
        return event.user_id, [], []
    if isinstance(event, ProductUpdate):
        return None, [event.product_id], []
    if isinstance(event, CartAdd):
        return event.user_id, [event.product_id], []
    if isinstance(event, TxnRead):
        return event.user_id, list(event.product_ids), []
    if isinstance(event, (EraseUser, AccessUser)):
        return event.user_id, [], []
    return None, [], []


def validate_trace_world(
    trace: WorkloadTrace,
    catalog: Catalog,
    users: UserPopulation,
    max_reported: int = 5,
) -> None:
    """Fail loudly if the trace references things the world lacks.

    Every user, product, and category the events mention must exist in
    the world they are replayed against: the one rebuilt from the
    replay-time flags for a v1 file, the embedded one for a v2 file
    (whose events can still name strangers if the file was edited).
    A mismatch raises :class:`ValueError` naming the first offending
    events — instead of the silent wrong-world replay (or downstream
    ``KeyError``/``IndexError``) that undermined cross-configuration
    comparisons.
    """
    valid_users = {user.user_id for user in users.users}
    valid_products = {product.product_id for product in catalog.products}
    valid_categories = set(catalog.config.categories)
    problems: List[str] = []
    for index, event in enumerate(trace.events):
        user_id, product_ids, categories = _event_refs(event)
        kind = type(event).__name__
        where = f"event {index} ({kind} at t={event.at:.3f})"
        if user_id is not None and user_id not in valid_users:
            problems.append(f"{where}: unknown user {user_id!r}")
        for product_id in product_ids:
            if product_id not in valid_products:
                problems.append(
                    f"{where}: unknown product {product_id!r}"
                )
        for category in categories:
            if category not in valid_categories:
                problems.append(
                    f"{where}: unknown category {category!r}"
                )
        if len(problems) >= max_reported:
            problems.append("... (further mismatches suppressed)")
            break
    if problems:
        if trace.world is None:
            advice = (
                "This trace (format v1, no embedded world) was recorded "
                "under different --seed/--users/--products flags; replay "
                "with the recording flags, or re-record it with --record "
                "so the v2 file carries its world."
            )
        else:
            advice = (
                "The events do not belong to the world embedded in the "
                "trace header: the file was edited or is corrupt."
            )
        raise ValueError(
            "trace references users/products missing from the replay "
            f"world ({len(users.users)} users, {len(catalog.products)} "
            "products): " + "; ".join(problems) + ". " + advice
        )
